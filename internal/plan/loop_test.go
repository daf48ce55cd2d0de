package plan_test

import (
	"fmt"
	"strings"
	"testing"

	"plsqlaway/internal/catalog"
	"plsqlaway/internal/exec"
	"plsqlaway/internal/plan"
	"plsqlaway/internal/sqlparser"
	"plsqlaway/internal/sqltypes"
	"plsqlaway/internal/storage"
)

// build plans sql against a catalog holding one small table.
func build(t *testing.T, sql string, opts plan.Options) *plan.Plan {
	t.Helper()
	cat := catalog.New(&storage.Stats{})
	tbl, err := cat.CreateTable("nums", []catalog.Column{{Name: "n", Type: sqltypes.TypeInt}}, false)
	if err != nil {
		t.Fatal(err)
	}
	var rows []storage.Tuple
	for i := int64(1); i <= 3; i++ {
		rows = append(rows, storage.Tuple{sqltypes.NewInt(i)})
	}
	tbl.Heap.Commit(nil, rows, 1)
	q, err := sqlparser.ParseQuery(sql)
	if err != nil {
		t.Fatalf("parse %q: %v", sql, err)
	}
	p, err := plan.Build(cat, q, opts)
	if err != nil {
		t.Fatalf("Build(%q): %v", sql, err)
	}
	return p
}

// run executes a plan on a fresh context and renders its rows.
func run(t *testing.T, p *plan.Plan) string {
	t.Helper()
	ex, err := exec.Instantiate(p, exec.NewCtx())
	if err != nil {
		t.Fatal(err)
	}
	defer ex.Shutdown()
	rows, err := ex.Run()
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	return fmt.Sprint(rows)
}

func explain(p *plan.Plan) string { return strings.Join(p.Explain(), "\n") }

// hasLoop reports whether the rendered plan has a Loop operator line.
func hasLoop(explained string) bool {
	for _, line := range strings.Split(explained, "\n") {
		if strings.TrimSpace(line) == "Loop" {
			return true
		}
	}
	return false
}

// sumTo is a hand-written trampoline — none of the compiler's names —
// summing 1..10: state (go_on, i, acc), one ROW-valued step column.
const sumToCTE = `st(go_on, i, acc) AS (
  SELECT true, 1, 0
  UNION ALL
  SELECT (nx.v).f1, (nx.v).f2, (nx.v).f3
  FROM st AS s, LATERAL (SELECT CASE WHEN s.i <= 10
                                     THEN ROW(true, s.i + 1, s.acc + s.i)
                                     ELSE ROW(false, s.i, s.acc) END AS v) AS nx
  WHERE s.go_on)`

const sumToQuery = " SELECT s.acc, s.i FROM st AS s WHERE NOT s.go_on"

func TestLoopLowersHandWrittenTrampoline(t *testing.T) {
	var shapes []string
	for _, with := range []string{"WITH RECURSIVE ", "WITH ITERATE "} {
		p := build(t, with+sumToCTE+sumToQuery, plan.Options{})
		if _, ok := p.Root.(*plan.Loop); !ok || p.LoopedCTEs != 1 {
			t.Fatalf("%s: root %T, looped=%d; want a Loop\n%s", with, p.Root, p.LoopedCTEs, explain(p))
		}
		if p.NodeCount != 1 || p.CTEs[0].Plan != nil {
			t.Errorf("%s: the CTE's operators should be gone: nodes=%d\n%s", with, p.NodeCount, explain(p))
		}
		if got := run(t, p); got != "[[55 11]]" {
			t.Errorf("%s: rows %s, want [[55 11]]", with, got)
		}
		generic := build(t, with+sumToCTE+sumToQuery, plan.Options{NoLoop: true})
		if generic.LoopedCTEs != 0 || !strings.Contains(explain(generic), "RecursiveUnion (cte[0]") {
			t.Errorf("%s: NoLoop plan:\n%s", with, explain(generic))
		}
		if got := run(t, generic); got != "[[55 11]]" {
			t.Errorf("%s: generic rows %s", with, got)
		}
		shapes = append(shapes, explain(p))
	}
	if shapes[0] != shapes[1] {
		t.Errorf("the two spellings lower differently:\n%s\n--\n%s", shapes[0], shapes[1])
	}
	for _, want := range []string{"looped=1", "seed [true, 1, 0]", "while #0, then emit [#2, #1]"} {
		if !hasLoop(shapes[0]) || !strings.Contains(shapes[0], want) {
			t.Errorf("EXPLAIN lacks %q:\n%s", want, shapes[0])
		}
	}
}

// TestLoopNearMisses: each shape is one edit away from a trampoline. None
// may lower, EXPLAIN must say why, and the rows must be the generic
// plan's (trivially: it is the generic plan — which is the point).
func TestLoopNearMisses(t *testing.T) {
	recursive := func(seed, from, where string) string {
		return `st(go_on, i, acc) AS (
  ` + seed + `
  SELECT (nx.v).f1, (nx.v).f2, (nx.v).f3
  FROM ` + from + `, LATERAL (SELECT CASE WHEN s.i <= 10
                                     THEN ROW(true, s.i + 1, s.acc + s.i)
                                     ELSE ROW(false, s.i, s.acc) END AS v) AS nx
  WHERE ` + where + `)`
	}
	const seed = "SELECT true, 1, 0 UNION ALL"
	cases := []struct {
		name, sql, reason, rows string
	}{
		{"consumer without the NOT filter",
			"WITH RECURSIVE " + sumToCTE + " SELECT count(*), max(s.acc) FROM st AS s",
			"consumer reads continuing rows", "[[12 55]]"},
		{"consumer with a different filter",
			"WITH RECURSIVE " + sumToCTE + " SELECT s.acc FROM st AS s WHERE NOT s.go_on AND s.i > 0",
			"consumer reads continuing rows", "[[55]]"},
		{"two consumers",
			"WITH RECURSIVE " + sumToCTE + " SELECT s.acc, (SELECT count(*) FROM st) FROM st AS s WHERE NOT s.go_on",
			"consumer reads continuing rows", "[[55 12]]"},
		{"extra predicate in the recursive term",
			"WITH RECURSIVE " + recursive(seed, "st AS s", "s.go_on AND s.i < 5") + sumToQuery,
			"recursive term filters on more than one working-table column", "[]"},
		{"two working scans",
			"WITH RECURSIVE " + recursive(seed, "st AS s, st AS s2", "s.go_on") + sumToQuery,
			"self-reference appears twice", "[[55 11]]"},
		{"multi-row seed",
			"WITH RECURSIVE " + recursive("SELECT true, n, 0 FROM nums UNION ALL", "st AS s", "s.go_on") + sumToQuery,
			"seed is not a single row", "[[52 11] [54 11] [55 11]]"},
		{"UNION without ALL",
			"WITH RECURSIVE " + recursive("SELECT true, 1, 0 UNION", "st AS s", "s.go_on") + sumToQuery,
			"UNION dedup", "[[55 11]]"},
		{"not the last CTE of its WITH",
			"WITH RECURSIVE " + sumToCTE + ", other(x) AS (SELECT 1)" + sumToQuery,
			"not the last CTE of its WITH", "[[55 11]]"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			p := build(t, c.sql, plan.Options{})
			ex := explain(p)
			if p.LoopedCTEs != 0 || hasLoop(ex) {
				t.Fatalf("lowered a near miss:\n%s", ex)
			}
			if !strings.Contains(ex, "RecursiveUnion (cte[0]") || !strings.Contains(ex, "not lowered: "+c.reason+")") {
				t.Errorf("EXPLAIN should give the reason %q:\n%s", c.reason, ex)
			}
			got, want := run(t, p), run(t, build(t, c.sql, plan.Options{NoLoop: true}))
			if got != want || got != c.rows {
				t.Errorf("rows %s, generic plan %s, want %s", got, want, c.rows)
			}
		})
	}
}

func TestLetFlattening(t *testing.T) {
	cases := []struct {
		name, sql string
		flat      bool
		rows      string
	}{
		{"lateral chain",
			"SELECT (SELECT a + b FROM (SELECT n + 1) AS x(a) LEFT JOIN LATERAL (SELECT a * 2) AS y(b) ON true) FROM nums",
			true, "[[6] [9] [12]]"},
		{"comma-lateral chain",
			"SELECT (SELECT a + b FROM (SELECT n) AS x(a), LATERAL (SELECT a + 10) AS y(b)) FROM nums",
			true, "[[12] [14] [16]]"},
		{"no FROM at all", "SELECT (SELECT n * 3) FROM nums", true, "[[3] [6] [9]]"},
		{"nested chains",
			"SELECT (SELECT (SELECT a + c FROM (SELECT a * 10) AS z(c)) FROM (SELECT n) AS x(a)) FROM nums",
			true, "[[11] [22] [33]]"},
		{"a table in the chain stays a subplan",
			"SELECT (SELECT max(a + m.n) FROM (SELECT n) AS x(a), nums AS m) FROM nums",
			false, "[[4] [5] [6]]"},
		{"a filtered chain stays a subplan",
			"SELECT (SELECT a FROM (SELECT n) AS x(a) WHERE a > 1) FROM nums",
			false, "[[NULL] [2] [3]]"},
		{"a plain derived table after the first is materialised, not flattened",
			"SELECT (SELECT a + b FROM (SELECT n) AS x(a), (SELECT 5) AS y(b)) FROM nums",
			false, "[[6] [7] [8]]"},
		{"a two-column item stays a subplan",
			"SELECT (SELECT a + b FROM (SELECT n, 1) AS x(a, b)) FROM nums",
			false, "[[2] [3] [4]]"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			p := build(t, c.sql, plan.Options{})
			ex := explain(p)
			if got := strings.Contains(ex, "Let["); got != c.flat {
				t.Errorf("flattened=%v, want %v:\n%s", got, c.flat, ex)
			}
			if c.flat && (strings.Contains(ex, "subplan") || strings.Contains(ex, "NestLoop")) {
				t.Errorf("chain operators survive:\n%s", ex)
			}
			got, want := run(t, p), run(t, build(t, c.sql, plan.Options{NoLoop: true}))
			if got != want || got != c.rows {
				t.Errorf("rows %s, unflattened plan %s, want %s", got, want, c.rows)
			}
		})
	}
}

// TestLetKeepsVolatilePlansVolatile: the batch-1 clamp reads volatility
// through Loop and Let operands.
func TestLetKeepsVolatilePlansVolatile(t *testing.T) {
	p := build(t, "SELECT (SELECT r FROM (SELECT random()) AS x(r)) FROM nums", plan.Options{})
	if !strings.Contains(explain(p), "Let[") || !p.HasVolatile() {
		t.Errorf("volatile let lost: volatile=%v\n%s", p.HasVolatile(), explain(p))
	}
	q := build(t, "WITH RECURSIVE "+strings.Replace(sumToCTE, "s.acc + s.i", "s.acc + random()", 1)+sumToQuery, plan.Options{})
	if q.LoopedCTEs != 1 || !q.HasVolatile() {
		t.Errorf("volatile loop lost: looped=%d volatile=%v", q.LoopedCTEs, q.HasVolatile())
	}
}

// TestLoopPlanIsSharedNotCopied: executors only read a plan, so one Loop
// plan — the shape a cached compiled function has — serves several
// instantiations, interleaved, without a copy, and is unchanged by them.
func TestLoopPlanIsSharedNotCopied(t *testing.T) {
	sql := "WITH RECURSIVE " + strings.Replace(sumToCTE, "ROW(true, s.i + 1, s.acc + s.i)",
		"(SELECT ROW(true, j, s.acc + s.i) FROM (SELECT s.i + 1) AS x(j))", 1) + sumToQuery
	p := build(t, sql, plan.Options{})
	before := explain(p)
	var exs []*exec.Executor
	for i := 0; i < 2; i++ {
		ex, err := exec.Instantiate(p, exec.NewCtx())
		if err != nil {
			t.Fatal(err)
		}
		exs = append(exs, ex)
	}
	for _, ex := range exs {
		rows, err := ex.Run()
		if err != nil {
			t.Fatal(err)
		}
		if got := fmt.Sprint(rows); got != "[[55 11]]" {
			t.Errorf("rows %s", got)
		}
	}
	for _, ex := range exs {
		ex.Shutdown()
	}
	if after := explain(p); after != before {
		t.Errorf("running the plan changed it:\n%s\n--\n%s", before, after)
	}
}
