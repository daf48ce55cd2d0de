package engine

// The compiler's output end to end: every corpus quartet function, once
// compiled and installed, plans to a Loop (no recursive-CTE operators, no
// per-let joins), EXPLAIN shows the decision either way, and the counters
// that report it move.

import (
	"fmt"
	"regexp"
	"strings"
	"testing"

	"plsqlaway/internal/core"
	"plsqlaway/internal/obs"
	"plsqlaway/internal/plan"
	"plsqlaway/internal/workload"
)

var quartet = []string{"walk", "parse", "traverse", "fibonacci"}

// newQuartetEngine installs the corpus tables and the compiled quartet
// (name_c: WITH RECURSIVE, name_ci: WITH ITERATE).
func newQuartetEngine(t testing.TB, opts ...Option) *Engine {
	t.Helper()
	e := New(append([]Option{WithSeed(42)}, opts...)...)
	s := e.NewSession()
	if err := workload.NewRobotWorld(5, 5, 7).Install(s); err != nil {
		t.Fatal(err)
	}
	if err := workload.InstallFSM(s); err != nil {
		t.Fatal(err)
	}
	if err := workload.InstallGraph(s, 256, 3); err != nil {
		t.Fatal(err)
	}
	for _, name := range quartet {
		for sfx, iterate := range map[string]bool{"_c": false, "_ci": true} {
			res, err := core.Compile(workload.Corpus[name], core.Options{Iterate: iterate})
			if err != nil {
				t.Fatal(err)
			}
			if err := s.InstallCompiled(name+sfx, res.Params, res.ReturnType, res.Query); err != nil {
				t.Fatal(err)
			}
		}
	}
	return e
}

// bodyPlan plans an installed function's body the way callSQLBody does.
func bodyPlan(t *testing.T, s *Session, name string) *plan.Plan {
	t.Helper()
	fn, ok := s.Catalog().Function(name)
	if !ok {
		t.Fatalf("function %s not installed", name)
	}
	hook := func(col string) (int, bool) {
		for i, p := range fn.Params {
			if p.Name == col {
				return i + 1, true
			}
		}
		return 0, false
	}
	p, err := plan.Build(s.Catalog(), fn.SQLBody, plan.Options{Hook: hook})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

var quartetCalls = map[string]string{
	"walk":      "SELECT walk%s(coord(2, 2), 1000000, -1000000, 20)",
	"parse":     "SELECT parse%s('ab 12 c')",
	"traverse":  "SELECT traverse%s(3, 20)",
	"fibonacci": "SELECT fibonacci%s(10)",
}

func TestLoopPlanShapeOfTheQuartet(t *testing.T) {
	e := newQuartetEngine(t)
	s := e.NewSession()
	for _, name := range quartet {
		for _, sfx := range []string{"_c", "_ci"} {
			res, err := s.Query("EXPLAIN " + strings.Replace(quartetCalls[name], "%s", sfx, 1))
			if err != nil {
				t.Fatal(err)
			}
			var lines []string
			for _, r := range res.Rows {
				lines = append(lines, r[0].Text())
			}
			text := strings.Join(lines, "\n")
			nodes := -1
			if name == "walk" {
				// Volatile, so the call stays opaque: look at the plan the
				// call runs.
				if !strings.Contains(text, "udf:walk"+sfx) {
					t.Errorf("walk%s should stay an opaque call:\n%s", sfx, text)
				}
				p := bodyPlan(t, s, name+sfx)
				text, nodes = strings.Join(p.Explain(), "\n"), p.NodeCount
			}
			if !regexp.MustCompile(`(?m)^ *Loop$`).MatchString(text) || !strings.Contains(text, "looped=1") {
				t.Errorf("%s%s: no Loop in the plan:\n%s", name, sfx, text)
			}
			for _, gone := range []string{"RecursiveUnion", "WorkingScan", "CTEScan", "NestLoop", "With ["} {
				if strings.Contains(text, gone) {
					t.Errorf("%s%s: %s survives the lowering:\n%s", name, sfx, gone, text)
				}
			}
			if !strings.Contains(text, "Let [") {
				t.Errorf("%s%s: the step's lets should be slots:\n%s", name, sfx, text)
			}
			// The embedded queries are the function's real work and stay
			// subplans; fibonacci has none.
			if want := name != "fibonacci"; strings.Contains(text, "subplan(scalar)") != want {
				t.Errorf("%s%s: embedded queries as subplans = %v, want %v:\n%s", name, sfx, !want, want, text)
			}
			if name == "walk" && nodes != 1 {
				t.Errorf("walk%s body has %d plan nodes, want the Loop alone", sfx, nodes)
			}
			if name == "fibonacci" && !strings.Contains(lines[0], "Plan (nodes=4 ") {
				t.Errorf("fibonacci%s call: %s, want 4 nodes (≤ 5)", sfx, lines[0])
			}
		}
	}
}

func TestLoopExplainAnalyzeAndCounters(t *testing.T) {
	reg := obs.NewRegistry()
	e := newQuartetEngine(t, WithMetricsRegistry(reg))
	s := e.NewSession()
	res, err := s.Query("EXPLAIN ANALYZE SELECT fibonacci_c(10)")
	if err != nil {
		t.Fatal(err)
	}
	var text string
	for _, r := range res.Rows {
		text += r[0].Text() + "\n"
	}
	// Entry block, ten trips round the loop, the exit — and the look at
	// the stopped state recursiveUnionNode also counts.
	if !regexp.MustCompile(`(?m)^ +Loop \(iterations=13\)  \(actual rows=1 batches=1 time=\S+\)$`).MatchString(text) {
		t.Errorf("EXPLAIN ANALYZE:\n%s", text)
	}
	var lowered float64
	for _, m := range reg.Gather() {
		if m.Name == "plsql_plan_loops_lowered_total" {
			for _, smp := range m.Samples {
				if smp.Value != nil {
					lowered = *smp.Value
				}
			}
		}
	}
	if lowered != 1 {
		t.Errorf("plsql_plan_loops_lowered_total = %v, want 1", lowered)
	}

	// A recursive CTE that is not a trampoline says why it stayed generic.
	res, err = s.Query(`EXPLAIN WITH RECURSIVE reach(n) AS (
		SELECT 3 UNION SELECT e.dst FROM reach AS r, edges AS e WHERE e.src = r.n
	) SELECT count(*) FROM reach`)
	if err != nil {
		t.Fatal(err)
	}
	text = ""
	for _, r := range res.Rows {
		text += r[0].Text() + "\n"
	}
	if !strings.Contains(text, "looped=0") || !strings.Contains(text, "not lowered: UNION dedup)") {
		t.Errorf("frontier CTE EXPLAIN:\n%s", text)
	}
}

// TestLoopUnderCorrelatedCalls: compiled functions called per row of a
// table — inlined under Apply (pure bodies, two call sites in one query)
// or opaque per row (the volatile walk) — rescan their Loop per outer row
// and agree with the interpreter, at several batch sizes.
func TestLoopUnderCorrelatedCalls(t *testing.T) {
	queries := []string{
		"SELECT n, fibonacci%[1]s(n), fibonacci%[1]s(n + 5) FROM args ORDER BY n",
		"SELECT n, traverse%[1]s(n, n + 2), parse%[1]s('a' || n || ' b2') FROM args ORDER BY n",
		"SELECT sum(fibonacci%[1]s(n)) FROM args WHERE traverse%[1]s(n, 3) >= 0",
		"SELECT n, walk%[1]s(coord(n %% 5, 2), 1000000, -1000000, n) FROM args ORDER BY n",
	}
	for _, batch := range []int{1, 3, 0} {
		e := newQuartetEngine(t, WithBatchSize(batch))
		s := e.NewSession()
		for _, name := range quartet {
			if err := s.Exec(workload.Corpus[name]); err != nil {
				t.Fatal(err)
			}
		}
		if err := s.Exec("CREATE TABLE args (n int); INSERT INTO args VALUES (0), (1), (4), (9), (12)"); err != nil {
			t.Fatal(err)
		}
		for _, q := range queries {
			run := func(sfx string) string {
				s.Seed(11)
				res, err := s.Query(fmt.Sprintf(q, sfx))
				if err != nil {
					t.Fatalf("batch %d: %s: %v", batch, fmt.Sprintf(q, sfx), err)
				}
				return fmt.Sprint(res.Rows)
			}
			want := run("")
			for _, sfx := range []string{"_c", "_ci"} {
				if got := run(sfx); got != want {
					t.Errorf("batch %d: %s\n  compiled    %s\n  interpreted %s", batch, fmt.Sprintf(q, sfx), got, want)
				}
			}
		}
	}
}
