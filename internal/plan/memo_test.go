package plan_test

import (
	"strings"
	"testing"

	"plsqlaway/internal/core"
	"plsqlaway/internal/engine"
	"plsqlaway/internal/plan"
	"plsqlaway/internal/sqlparser"
	"plsqlaway/internal/workload"
)

// loopSubplans returns the part of a rendered plan that lists a Loop's
// embedded queries — everything after its "while" line — with the
// indentation of the Loop's detail lines removed.
func loopSubplans(explained string) string {
	lines := strings.Split(explained, "\n")
	for i, l := range lines {
		if strings.HasPrefix(strings.TrimSpace(l), "while #") {
			pad := len(l) - len(strings.TrimLeft(l, " "))
			var out []string
			for _, s := range lines[i+1:] {
				out = append(out, s[pad:])
			}
			return strings.Join(out, "\n")
		}
	}
	return ""
}

// TestMemoPlacementOfTheQuartet pins where the memo pass puts each
// embedded query of the compiled quartet: policy, cells and edges at the
// subplan root; the window over actions just below the filter on the
// random roll, keyed on (movement, location); the fsm lookup on its index
// scan, keyed on the state alone. fibonacci has no embedded query.
func TestMemoPlacementOfTheQuartet(t *testing.T) {
	e := engine.New(engine.WithSeed(42))
	s := e.NewSession()
	for _, install := range []func() error{
		func() error { return workload.NewRobotWorld(5, 5, 7).Install(s) },
		func() error { return workload.InstallFSM(s) },
		func() error { return workload.InstallGraph(s, 256, 3) },
	} {
		if err := install(); err != nil {
			t.Fatal(err)
		}
	}
	cat := e.NewSession().Catalog()
	want := map[string]string{
		"walk": `subplan(scalar) memo [outer(2).#7]
  Memo [outer(2).#7]
    Project [#1]
      IndexScan policy (loc = outer(2).#7)
subplan(scalar) memo below Filter [outer(1).#0, outer(3).#7]
  Project [#0]
    Filter (outer(1).#1 BETWEEN #1 AND #2)
      Memo [outer(1).#0, outer(3).#7]
        Project [#2, coalesce[#4, 0], #5]
          Window [sum, sum]
            Filter (outer(1).#0 = #1)
              IndexScan actions (here = outer(3).#7)
subplan(scalar) memo [outer(1).#2]
  Memo [outer(1).#2]
    Project [#1]
      IndexScan cells (loc = outer(1).#2)`,
		"parse": `subplan(scalar) memo below Filter [outer(3).#4]
  Project [#2]
    Filter (#1 = CASE…)
      Memo [outer(3).#4]
        IndexScan fsm (state = outer(3).#4)`,
		"traverse": `subplan(scalar) memo [outer(2).#5]
  Memo [outer(2).#5]
    Project [#0]
      Agg [min(#1)]
        IndexScan edges (src = outer(2).#5)`,
		"fibonacci": ``,
	}
	for name, block := range want {
		res, err := core.Compile(workload.Corpus[name], core.Options{})
		if err != nil {
			t.Fatal(err)
		}
		q, err := sqlparser.ParseQuery(res.SQL)
		if err != nil {
			t.Fatal(err)
		}
		hook := func(col string) (int, bool) {
			for i, p := range res.Params {
				if p.Name == col {
					return i + 1, true
				}
			}
			return 0, false
		}
		for _, skip := range []plan.Pass{0, plan.PassMemo} {
			p, err := plan.Build(cat, q, plan.Options{Hook: hook, Skip: skip})
			if err != nil {
				t.Fatal(err)
			}
			text := explain(p)
			got := loopSubplans(text)
			if skip != 0 {
				if strings.Contains(text, "Memo [") || strings.Contains(text, "memo") || strings.Contains(text, "hoisted") {
					t.Errorf("%s: memo-skipped plan has memo decisions:\n%s", name, text)
				}
				continue
			}
			if got != block {
				t.Errorf("%s: embedded queries\n%s\nwant\n%s", name, got, block)
			}
			// Memos sit inside subplans, which NodeCount does not count.
			if p.NodeCount != 1 {
				t.Errorf("%s: nodes=%d, want the Loop alone", name, p.NodeCount)
			}
		}
	}
}

// TestMemoPlacementShapes: one embedded query per case, in the step of a
// hand-written trampoline. Pure subplans get a memo — hoisted when they
// read no loop state, below the row-local filter that reads it when only
// that filter does — and the rest say why not. Every plan returns what
// its memo-skipped twin returns.
func TestMemoPlacementShapes(t *testing.T) {
	cases := []struct {
		name, sub, note, tree string
	}{
		{"invariant: hoisted", "(SELECT max(n) FROM nums)", "hoisted",
			"Memo []\n  Project [#0]\n    Agg [max(#0)]\n      SeqScan nums"},
		{"invariant below a state filter", "(SELECT m FROM (SELECT max(n) AS m FROM nums) AS x WHERE m > s.i)", "hoisted below Filter",
			"Project [#0]\n  Filter (#0 > outer(1).#1)\n    Memo []\n      Project [#0]"},
		{"state read under an aggregate", "(SELECT count(*) FROM nums WHERE n <= s.i)", "memo [outer(1).#1]",
			"Memo [outer(1).#1]\n  Project [#0]\n    Agg [count(*)]"},
		{"a bare scan is not the memo point", "(SELECT n * 10 FROM nums WHERE n = s.i)", "memo [outer(1).#1]",
			"Memo [outer(1).#1]\n  Project [(#0 * 10)]\n    Filter (#0 = outer(1).#1)\n      SeqScan nums"},
		{"volatile", "(SELECT max(n) + floor(random() * 3) FROM nums)", "not memoised: volatile", ""},
		{"CTE", "(WITH w AS (SELECT n FROM nums) SELECT max(n) FROM w)", "not memoised: CTE", ""},
		{"nested subplan", "(SELECT max(n) FROM nums WHERE n IN (SELECT n FROM nums WHERE n < s.i))", "not memoised: nested subplan", ""},
		{"lateral join", "(SELECT max(a.n + b.m) FROM nums AS a, LATERAL (SELECT a.n + s.i AS m) AS b)", "not memoised: pushes outer rows", ""},
		{"nest loop", "(SELECT max(a.n + b.n) FROM nums AS a, nums AS b WHERE a.n < b.n + s.i)", "not memoised: pushes outer rows", ""},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			sql := "WITH RECURSIVE " + strings.Replace(sumToCTE, "s.acc + s.i)", "s.acc + "+c.sub+")", 1) + sumToQuery
			p := build(t, sql, plan.Options{})
			text := explain(p)
			subs := loopSubplans(text)
			if !strings.HasPrefix(subs, "subplan(scalar) "+c.note+"\n") {
				t.Errorf("want the decision %q:\n%s", c.note, text)
			}
			if hasMemo := strings.Contains(subs, "Memo ["); hasMemo != (c.tree != "") {
				t.Errorf("Memo operator present = %v:\n%s", hasMemo, text)
			}
			if !strings.Contains(subs, "\n  "+strings.ReplaceAll(c.tree, "\n", "\n  ")) {
				t.Errorf("want the subtree\n%s\nin\n%s", c.tree, subs)
			}
			if got, want := run(t, p), run(t, build(t, sql, plan.Options{Skip: plan.PassMemo})); got != want {
				t.Errorf("rows %s, memo-skipped plan %s", got, want)
			}
		})
	}
}

// TestMemoOnlyInsideLoops: the same pure subquery outside a Loop keeps
// today's plan and EXPLAIN line.
func TestMemoOnlyInsideLoops(t *testing.T) {
	p := build(t, "SELECT n, (SELECT max(m.n) FROM nums AS m WHERE m.n < nums.n) FROM nums", plan.Options{})
	if text := explain(p); strings.Contains(text, "Memo") || strings.Contains(text, "memo") {
		t.Errorf("memo outside a Loop:\n%s", text)
	}
}
