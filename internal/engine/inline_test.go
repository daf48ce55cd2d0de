package engine

// Inlining end-to-end suite: the planner splices LANGUAGE sql and compiled
// (PL/SQL→SQL) function bodies into calling queries. These tests pin the
// user-visible contract of that rewrite — identical results to the opaque
// per-row call path, identical volatile draw order for functions that must
// NOT inline, cache invalidation when a function is redefined mid-session,
// and the EXPLAIN rendering of the decorrelated plan shapes.

import (
	"strings"
	"testing"

	"plsqlaway/internal/core"
	"plsqlaway/internal/sqltypes"
)

func newInlineTestEngine(t *testing.T) *Engine {
	t.Helper()
	e := New(WithSeed(42))
	s := e.NewSession()
	script := `
CREATE TABLE seq (n int);
CREATE TABLE policy (loc coord, action text);
CREATE TABLE fsm (state int, class int, next int);
CREATE FUNCTION inc(a int) RETURNS int AS $$ SELECT a + 1 $$ LANGUAGE sql;
CREATE FUNCTION tag(a int) RETURNS text AS $$ SELECT 'n=' || a $$ LANGUAGE sql;
`
	if err := s.Exec(script); err != nil {
		t.Fatal(err)
	}
	var rows []string
	for i := 1; i <= 30; i++ {
		rows = append(rows, "("+sqltypes.NewInt(int64(i)).String()+")")
	}
	if err := s.Exec("INSERT INTO seq VALUES " + strings.Join(rows, ", ")); err != nil {
		t.Fatal(err)
	}
	if err := s.Exec(`INSERT INTO policy VALUES
		(coord(0, 0), 'up'), (coord(0, 1), 'down'), (coord(1, 0), 'left'), (coord(1, 1), 'right')`); err != nil {
		t.Fatal(err)
	}
	if err := s.Exec(`INSERT INTO fsm VALUES (0, 1, 1), (0, 2, 2), (1, 1, 0), (1, 2, 2), (2, 1, 2), (2, 2, 0)`); err != nil {
		t.Fatal(err)
	}
	return e
}

// installCompiledLookup compiles the PL/pgSQL source through the full
// pipeline and installs the result, the same path the bench harness and
// the wire DDL use.
func installCompiledLookup(t *testing.T, s *Session, src string) {
	t.Helper()
	res, err := core.Compile(src, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.InstallCompiled(res.Function.Name, res.Params, res.ReturnType, res.Query); err != nil {
		t.Fatal(err)
	}
}

const testActionOf = `
CREATE FUNCTION action_of(l coord) RETURNS text AS $$
BEGIN
  RETURN (SELECT p.action FROM policy AS p WHERE p.loc = l);
END
$$ LANGUAGE plpgsql;`

const testFSMNext = `
CREATE FUNCTION fsm_next(s int, c int) RETURNS int AS $$
BEGIN
  RETURN (SELECT f.next FROM fsm AS f WHERE f.state = s AND f.class = c);
END
$$ LANGUAGE plpgsql;`

func renderRows(t *testing.T, s *Session, sql string) string {
	t.Helper()
	r, err := s.Query(sql)
	if err != nil {
		t.Fatalf("%s: %v", sql, err)
	}
	var sb strings.Builder
	for _, row := range r.Rows {
		for i, v := range row {
			if i > 0 {
				sb.WriteByte('\t')
			}
			sb.WriteString(v.String())
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}

// TestInlinedVsOpaqueDifferential runs every query shape the inliner
// handles under both regimes and requires byte-identical results.
func TestInlinedVsOpaqueDifferential(t *testing.T) {
	s := newInlineTestEngine(t).NewSession()
	installCompiledLookup(t, s, testActionOf)
	installCompiledLookup(t, s, testFSMNext)

	queries := []string{
		// Trivial bodies in the select list, WHERE, aggregates, nesting.
		"SELECT inc(n) FROM seq ORDER BY n",
		"SELECT n FROM seq WHERE inc(n) > 15 ORDER BY n",
		"SELECT sum(inc(n)), count(tag(n)) FROM seq",
		"SELECT inc(inc(n)) FROM seq ORDER BY n",
		"SELECT tag(n) FROM seq WHERE n % 3 = 0 ORDER BY n",
		"SELECT CASE WHEN inc(n) % 2 = 0 THEN tag(n) ELSE 'odd' END FROM seq ORDER BY n",
		// Compiled lookup bodies: correlated scalar subqueries that
		// decorrelate into hash joins, including the no-match NULL case
		// (coords past the policy grid) and group-by over the result.
		"SELECT action_of(coord(n % 3, n % 2)) FROM seq ORDER BY n",
		"SELECT count(action_of(coord(n % 2, n % 2))) FROM seq",
		"SELECT action_of(coord(n % 2, 0)), count(*) FROM seq GROUP BY action_of(coord(n % 2, 0)) ORDER BY 1",
		"SELECT sum(fsm_next(n % 3, n % 2 + 1)) FROM seq",
		"SELECT n, fsm_next(n % 3, n % 2 + 1) FROM seq WHERE fsm_next(n % 3, n % 2 + 1) = 2 ORDER BY n",
	}
	for _, q := range queries {
		s.SetInlining(true)
		inlined := renderRows(t, s, q)
		s.SetInlining(false)
		opaque := renderRows(t, s, q)
		s.SetInlining(true)
		if inlined != opaque {
			t.Errorf("%s:\ninlined:\n%s\nopaque:\n%s", q, inlined, opaque)
		}
	}
}

// TestVolatileUDFStaysOpaque pins the purity gate: a volatile SQL-bodied
// function must not inline (the per-row call preserves the session RNG draw
// order), so results under a fixed seed are identical whether planner
// inlining is on or off.
func TestVolatileUDFStaysOpaque(t *testing.T) {
	s := newInlineTestEngine(t).NewSession()
	if err := s.Exec("CREATE FUNCTION noisy(a int) RETURNS float AS $$ SELECT random() + a $$ LANGUAGE sql"); err != nil {
		t.Fatal(err)
	}
	q := "SELECT noisy(n) FROM seq WHERE n <= 5"
	draw := func(inline bool) string {
		s.SetInlining(inline)
		defer s.SetInlining(true)
		if _, err := s.Query("SELECT setseed(0.42)"); err != nil {
			t.Fatal(err)
		}
		return renderRows(t, s, q)
	}
	on, off := draw(true), draw(false)
	if on != off {
		t.Errorf("volatile draw order differs between inlining regimes:\non:\n%s\noff:\n%s", on, off)
	}
	// The plan keeps the opaque call either way.
	ex := renderRows(t, s, "EXPLAIN "+q)
	if !strings.Contains(ex, "udf:noisy") {
		t.Errorf("volatile call should stay opaque in the plan:\n%s", ex)
	}
	if strings.Contains(ex, "inlined=1") {
		t.Errorf("volatile call must not count as inlined:\n%s", ex)
	}
}

// TestRedefineInvalidatesInlinedPlan is the regression test for plan-cache
// invalidation on CREATE OR REPLACE FUNCTION / DROP FUNCTION: a cached plan
// with an inlined body must not survive the function changing under it.
func TestRedefineInvalidatesInlinedPlan(t *testing.T) {
	s := newInlineTestEngine(t).NewSession()
	q := "SELECT sum(inc(n)) FROM seq"
	v, err := s.QueryValue(q)
	if err != nil {
		t.Fatal(err)
	}
	if v.String() != "495" { // sum(2..31)
		t.Fatalf("before redefine: %s", v)
	}
	// Redefine mid-session: the cached inlined plan must be dropped.
	if err := s.Exec("CREATE OR REPLACE FUNCTION inc(a int) RETURNS int AS $$ SELECT a + 100 $$ LANGUAGE sql"); err != nil {
		t.Fatal(err)
	}
	v, err = s.QueryValue(q)
	if err != nil {
		t.Fatal(err)
	}
	if v.String() != "3465" { // sum(101..130)
		t.Errorf("after redefine: got %s, want 3465 (stale inlined plan served?)", v)
	}
	// Same differential under the opaque regime: both paths must see v2.
	s.SetInlining(false)
	v, err = s.QueryValue(q)
	s.SetInlining(true)
	if err != nil {
		t.Fatal(err)
	}
	if v.String() != "3465" {
		t.Errorf("opaque after redefine: got %s, want 3465", v)
	}
	// Dropping the function must invalidate too, not serve the stale plan.
	if err := s.Exec("DROP FUNCTION inc"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Query(q); err == nil {
		t.Error("query referencing dropped function succeeded (stale plan served)")
	}
}

// TestExplainGoldenInlineDecorrelation pins the planner's flagship rewrite
// end-to-end: a compiled PL/SQL lookup called per probe row becomes a
// left single-row hash join with a static build side — and the opaque
// regime keeps the call visible.
func TestExplainGoldenInlineDecorrelation(t *testing.T) {
	s := newInlineTestEngine(t).NewSession()
	installCompiledLookup(t, s, testActionOf)
	q := "EXPLAIN SELECT count(action_of(coord(n % 2, n % 2))) FROM seq"

	want := strings.TrimLeft(`
Plan (nodes=6 inlined=1 specialized=0 looped=0)
Project [#0]
  Agg [count(#1)]
    HashJoin (left, single-row, static build, keys [coord[(#0 % 2), (#0 % 2)]] = [#1], residual (coord[(#0 % 2), (#0 % 2)] = #2))
      SeqScan seq
      Project [#1, #0]
        SeqScan policy
`, "\n")
	if got := renderRows(t, s, q); got != want {
		t.Errorf("inlined EXPLAIN:\ngot:\n%s\nwant:\n%s", got, want)
	}

	s.SetInlining(false)
	defer s.SetInlining(true)
	wantOpaque := strings.TrimLeft(`
Plan (nodes=3 inlined=0 specialized=0 looped=0)
Project [#0]
  Agg [count(udf:action_of[coord[(#0 % 2), (#0 % 2)]])]
    SeqScan seq
`, "\n")
	if got := renderRows(t, s, q); got != wantOpaque {
		t.Errorf("opaque EXPLAIN:\ngot:\n%s\nwant:\n%s", got, wantOpaque)
	}
}
