package engine

// The session's pool of executor trees (exec.Pool) must be invisible: a
// run on a kept tree returns what a freshly instantiated tree returns —
// the same rows at the run's own snapshot, the same errors, the same
// random() draws. Every case below compares against a fresh run: QueryFresh
// plans anew, so its plan has no kept tree.

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"plsqlaway/internal/exec"
	"plsqlaway/internal/obs"
	"plsqlaway/internal/sqlparser"
	"plsqlaway/internal/sqltypes"
)

// poolShapes holds one scalar query per operator that carries state from
// one Open to the next within a run, or holds its input's rows: a pooled
// tree must start each of them afresh. Scalar, so each also runs as a
// PL/pgSQL function's embedded query.
var poolShapes = []struct{ name, sql, op string }{
	{"static hash-join build", "SELECT sum(a.v * b.w) FROM a, b WHERE a.k = b.k", "HashJoin (inner, static build"},
	{"materialize", "SELECT count(*) FROM a, (SELECT b.k FROM b) AS s WHERE a.k < s.k", "Materialize"},
	{"memo", `WITH RECURSIVE st(go_on, i, acc, m) AS (
  SELECT true, 0, 0, 0
  UNION ALL
  SELECT (nx.v).f1, (nx.v).f2, (nx.v).f3, (nx.v).f4
  FROM st AS s, LATERAL (SELECT CASE WHEN s.i < 12
                                     THEN ROW(true, s.i + 1, s.acc + (SELECT kv.v FROM kv WHERE kv.k = s.m), (s.i + 1) % 4)
                                     ELSE ROW(false, s.i, s.acc, s.m) END AS v) AS nx
  WHERE s.go_on)
SELECT s.acc FROM st AS s WHERE NOT s.go_on`, "Memo ["},
	{"seq scan", "SELECT sum(a.v) FROM a", "SeqScan a"},
	{"index scan", "SELECT kv.v FROM kv WHERE kv.k = 3", "IndexScan kv"},
}

// newPoolEngine creates a(k, v), b(k, w), kv(k, v) indexed on k, and
// pool_qN(), a PL/pgSQL function returning poolShapes[N].
func newPoolEngine(t *testing.T) *Engine {
	t.Helper()
	e := New(WithSeed(42))
	script := []string{
		"CREATE TABLE a (k int, v int)",
		"CREATE TABLE b (k int, w int)",
		"CREATE TABLE kv (k int, v int)",
		"CREATE INDEX ON kv (k)",
		"INSERT INTO a VALUES (1, 1), (2, 2), (3, 3)",
		"INSERT INTO b VALUES (1, 10), (2, 20), (5, 50)",
	}
	var kv []string
	for k := 0; k < 30; k++ {
		kv = append(kv, fmt.Sprintf("(%d, %d)", k, k*k))
	}
	script = append(script, "INSERT INTO kv VALUES "+strings.Join(kv, ", "))
	for i, sh := range poolShapes {
		script = append(script, fmt.Sprintf("CREATE FUNCTION pool_q%d() RETURNS int AS $$ BEGIN RETURN (%s); END; $$ LANGUAGE plpgsql", i, sh.sql))
	}
	for _, q := range script {
		if err := e.Exec(q); err != nil {
			t.Fatalf("%s: %v", q, err)
		}
	}
	return e
}

// fresh runs sql on a freshly planned, freshly instantiated tree.
func fresh(t *testing.T, s *Session, sql string) *Result {
	t.Helper()
	q, err := sqlparser.ParseQuery(sql)
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.QueryFresh(q)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func freshValue(t *testing.T, s *Session, sql string) sqltypes.Value {
	t.Helper()
	v, err := singleValue(fresh(t, s, sql))
	if err != nil {
		t.Fatal(err)
	}
	return v
}

// TestPoolRunSeesItsOwnSnapshot runs every shape three times as a
// statement, a prepared statement and a PL/pgSQL embedded query, once in
// autocommit and once inside a transaction block: the third run takes the
// tree the second left in the pool. In autocommit another session commits
// new rows first, which the third run must see; in a block the session
// writes its own rows first, which it must see through its overlay, while
// another session's commit stays invisible.
func TestPoolRunSeesItsOwnSnapshot(t *testing.T) {
	e := newPoolEngine(t)
	s, other := e.NewSession(), e.NewSession()
	stats := &e.sh.execStats
	next := 100
	insert := func() string {
		next++
		return fmt.Sprintf("INSERT INTO a VALUES (%d, 1); INSERT INTO b VALUES (%d, 1)", next, next)
	}
	for i, sh := range poolShapes {
		if text := explainText(t, s, "EXPLAIN "+sh.sql); !strings.Contains(text, sh.op) {
			t.Fatalf("%s: no %q in the plan:\n%s", sh.name, sh.op, text)
		}
		prep, err := s.Prepare(sh.sql)
		if err != nil {
			t.Fatal(err)
		}
		calls := []struct {
			kind string
			call func() (sqltypes.Value, error)
		}{
			{"statement", func() (sqltypes.Value, error) { return s.QueryValue(sh.sql) }},
			{"prepared", func() (sqltypes.Value, error) { return prep.QueryValue() }},
			{"PL/pgSQL", func() (sqltypes.Value, error) { return s.QueryValue(fmt.Sprintf("SELECT pool_q%d()", i)) }},
		}
		for _, c := range calls {
			for _, block := range []bool{false, true} {
				name := fmt.Sprintf("%s, %s, in block %v", sh.name, c.kind, block)
				if block {
					if err := s.Exec("BEGIN"); err != nil {
						t.Fatal(err)
					}
				}
				mustValue(t)(c.call())
				second := mustValue(t)(c.call())
				if err := other.Exec(insert()); err != nil {
					t.Fatal(err)
				}
				if block {
					if err := s.Exec(insert() + "; UPDATE kv SET v = v + 1"); err != nil {
						t.Fatal(err)
					}
				} else if err := other.Exec("UPDATE kv SET v = v + 1"); err != nil {
					t.Fatal(err)
				}
				reused := stats.TreesReused.Load()
				third := mustValue(t)(c.call())
				want := freshValue(t, s, sh.sql)
				if block {
					if err := s.Exec("COMMIT"); err != nil {
						t.Fatal(err)
					}
				}
				if stats.TreesReused.Load() == reused {
					t.Errorf("%s: the third run built its trees again", name)
				}
				if !sqltypes.Identical(third, want) || sqltypes.Identical(third, second) {
					t.Errorf("%s: %v before the writes, %v after; a fresh tree says %v", name, second, third, want)
				}
			}
		}
	}
}

// TestPoolRecursiveSQLFunction: each opaque level of a recursive
// SQL-bodied call runs the same body plan while the levels above it are
// mid-run, so the pool must hand every level a tree of its own.
func TestPoolRecursiveSQLFunction(t *testing.T) {
	e := newPoolEngine(t)
	s, other := e.NewSession(), e.NewSession()
	if err := s.Exec(`CREATE FUNCTION sumto(n int) RETURNS int AS $$
SELECT CASE WHEN n <= 0 THEN 0 ELSE (SELECT kv.v FROM kv WHERE kv.k = n) + sumto(n - 1) END
$$ LANGUAGE sql`); err != nil {
		t.Fatal(err)
	}
	want := func() int64 {
		var sum int64
		for _, r := range fresh(t, s, "SELECT kv.k, kv.v FROM kv WHERE kv.k >= 1 AND kv.k <= 20").Rows {
			sum += r[1].Int()
		}
		return sum
	}
	for round := 0; round < 4; round++ {
		got := mustValue(t)(s.QueryValue("SELECT sumto(20)"))
		if w := want(); got.Int() != w {
			t.Fatalf("round %d: sumto(20) = %v, want %d", round, got, w)
		}
		if err := other.Exec(fmt.Sprintf("UPDATE kv SET v = v + %d WHERE k = %d", round+1, 5+round)); err != nil {
			t.Fatal(err)
		}
	}
	// The body plan inlines one level of its own call, so sumto(20) runs
	// it at ten depths at once.
	if s.pool.Idle() < 10 {
		t.Errorf("%d trees pooled, want one per opaque level of the recursion", s.pool.Idle())
	}
}

// TestPoolRuntimeErrorThenRerun: a run that fails stops mid-tree (a scalar
// subquery's second row, a division in an aggregate's input); the tree is
// dropped, the error is the one a fresh tree raises, and the next run is
// right again.
func TestPoolRuntimeErrorThenRerun(t *testing.T) {
	e := newPoolEngine(t)
	s := e.NewSession()
	for _, sql := range []string{
		"SELECT a.k, (SELECT b.w FROM b WHERE b.k = a.k OR $1 = 0) FROM a ORDER BY a.k",
		"SELECT sum(a.v / $1), count(*) FROM a, b WHERE a.k = b.k",
	} {
		prep, err := s.Prepare(sql)
		if err != nil {
			t.Fatal(err)
		}
		q, err := sqlparser.ParseQuery(sql)
		if err != nil {
			t.Fatal(err)
		}
		one, zero := sqltypes.NewInt(1), sqltypes.NewInt(0)
		want, err := s.QueryFresh(q, one)
		if err != nil {
			t.Fatal(err)
		}
		_, wantErr := s.QueryFresh(q, zero)
		if wantErr == nil {
			t.Fatalf("%s: no error with $1 = 0", sql)
		}
		for i, arg := range []sqltypes.Value{one, one, zero, one, zero, zero, one, one} {
			res, err := prep.Query(arg)
			if arg.Int() == 0 {
				if err == nil || err.Error() != wantErr.Error() {
					t.Errorf("%s, run %d: error %v, a fresh tree raises %v", sql, i, err, wantErr)
				}
				continue
			}
			if err != nil || fmt.Sprint(res.Rows) != fmt.Sprint(want.Rows) {
				t.Errorf("%s, run %d: %v (%v), a fresh tree returns %v", sql, i, res, err, want.Rows)
			}
		}
	}
}

// TestPoolSetBatchSizeBetweenRuns: the pool keys trees by the batch size
// they were built for, so a session that changes it gets trees of the new
// size, and its old trees back when it changes back.
func TestPoolSetBatchSizeBetweenRuns(t *testing.T) {
	e := newPoolEngine(t)
	s := e.NewSession()
	var rows []string
	for k := 10; k < 60; k++ {
		rows = append(rows, fmt.Sprintf("(%d, %d)", k, k%7))
	}
	if err := s.Exec("INSERT INTO a VALUES " + strings.Join(rows, ", ")); err != nil {
		t.Fatal(err)
	}
	stats := &e.sh.execStats
	queries := []string{
		"SELECT a.k, a.v FROM a ORDER BY a.k",
		"SELECT a.k, b.w FROM a, b WHERE a.k = b.k ORDER BY a.k",
		"SELECT a.k, random() FROM a ORDER BY a.k",
	}
	// A size's first run only marks the plan; its second leaves the tree
	// that its third reuses.
	sizes := []int{0, 0, 1, 1, 7, 0, 7, 1}
	reuses := []bool{false, false, false, false, false, true, false, true}
	for _, sql := range queries {
		for i, bs := range sizes {
			s.SetBatchSize(bs)
			s.Seed(5)
			built, reused := stats.TreesBuilt.Load(), stats.TreesReused.Load()
			got, err := s.Query(sql)
			if err != nil {
				t.Fatal(err)
			}
			ranBuilt, ranReused := stats.TreesBuilt.Load()-built, stats.TreesReused.Load()-reused
			s.Seed(5)
			if want := fresh(t, s, sql); fmt.Sprint(got.Rows) != fmt.Sprint(want.Rows) {
				t.Errorf("%s at batch %d: %v, a fresh tree returns %v", sql, bs, got.Rows, want.Rows)
			}
			if ranBuilt+ranReused != 1 || (ranReused == 1) != reuses[i] {
				t.Errorf("%s, run %d at batch %d: %d trees built, %d reused", sql, i, bs, ranBuilt, ranReused)
			}
		}
	}
}

// TestPoolRandomStreamLikeFreshRun runs every batch edge shape, and some
// that draw random(), three times on one session and three times on fresh
// trees from the same seed: the rows and the stream's position after them
// must agree, at every batch size (a volatile plan's tree keeps its
// batch-1 clamp).
func TestPoolRandomStreamLikeFreshRun(t *testing.T) {
	shapes := []struct{ name, sql string }{
		{"random per row", "SELECT n, random() FROM seq ORDER BY n"},
		{"random in a filter", "SELECT count(*) FROM seq WHERE random() < 0.5"},
		{"random over a hash join", "SELECT a.tag, b.lbl, random() FROM a, b WHERE a.x = b.y ORDER BY 1, 2"},
		{"random in a recursive CTE",
			"WITH RECURSIVE r(n, x) AS (SELECT 1, random() UNION ALL SELECT n + 1, random() FROM r WHERE n < 20) SELECT count(*), sum(x) FROM r"},
	}
	shapes = append(shapes, batchEdgeQueries...)
	for _, bs := range []int{1, 7, exec.DefaultBatchSize} {
		e := newBatchTestEngine(t, bs)
		pooled, ref := e.NewSession(), e.NewSession()
		for _, sh := range shapes {
			pooled.Seed(9)
			ref.Seed(9)
			for run := 0; run < 3; run++ {
				got, err := pooled.Query(sh.sql)
				if err != nil {
					t.Fatal(err)
				}
				if want := fresh(t, ref, sh.sql); fmt.Sprint(got.Rows) != fmt.Sprint(want.Rows) {
					t.Errorf("batch %d, %s, run %d: %v, a fresh tree returns %v", bs, sh.name, run, got.Rows, want.Rows)
				}
			}
			p, f := mustValue(t)(pooled.QueryValue("SELECT random()")), mustValue(t)(ref.QueryValue("SELECT random()"))
			if !sqltypes.Identical(p, f) {
				t.Errorf("batch %d, %s: the random() stream moved to %v, on fresh trees to %v", bs, sh.name, p, f)
			}
		}
	}
}

// TestPoolKeepsNoOneShotTree: a statement run once — a 10k-row INSERT …
// VALUES — leaves no tree behind, and neither does EXPLAIN ANALYZE, whose
// instrumented trees are never pooled; a statement's third run is the
// first the registry counts as reused.
func TestPoolKeepsNoOneShotTree(t *testing.T) {
	reg := obs.NewRegistry()
	e := New(WithSeed(42), WithMetricsRegistry(reg))
	s := e.NewSession()
	counter := func(name string) float64 {
		for _, m := range reg.Gather() {
			if m.Name == name && len(m.Samples) == 1 && m.Samples[0].Value != nil {
				return *m.Samples[0].Value
			}
		}
		t.Fatalf("no %s in the registry", name)
		return 0
	}
	if err := s.Exec("CREATE TABLE big (n int, s text)"); err != nil {
		t.Fatal(err)
	}
	var rows []string
	for i := 0; i < 10_000; i++ {
		rows = append(rows, fmt.Sprintf("(%d, 'row %d')", i, i))
	}
	if err := s.Exec("INSERT INTO big VALUES " + strings.Join(rows, ", ")); err != nil {
		t.Fatal(err)
	}
	if n := s.pool.Idle(); n != 0 {
		t.Errorf("%d trees pooled after a one-shot INSERT", n)
	}
	for i := 0; i < 3; i++ {
		if _, err := s.Query("EXPLAIN ANALYZE SELECT count(*) FROM big WHERE n % 3 = 0"); err != nil {
			t.Fatal(err)
		}
	}
	if n := s.pool.Idle(); n != 0 {
		t.Errorf("%d trees pooled after EXPLAIN ANALYZE", n)
	}
	built := counter("plsql_exec_trees_built_total")
	if reused := counter("plsql_exec_trees_reused_total"); built != 4 || reused != 0 {
		t.Errorf("trees built %v, reused %v; want the INSERT's and three EXPLAIN ANALYZE's, none reused", built, reused)
	}
	for i := 0; i < 3; i++ {
		if _, err := s.Query("SELECT count(*) FROM big WHERE n % 3 = 0"); err != nil {
			t.Fatal(err)
		}
	}
	if b, r := counter("plsql_exec_trees_built_total")-built, counter("plsql_exec_trees_reused_total"); b != 2 || r != 1 {
		t.Errorf("three runs of one statement built %v trees and reused %v, want 2 and 1", b, r)
	}
}

// TestPoolConcurrentSessions runs the shapes on several sessions at once,
// each on its own pooled trees over the shared cached plans, while another
// session commits; once the writer is done, every session must see its
// last write.
func TestPoolConcurrentSessions(t *testing.T) {
	e := newPoolEngine(t)
	const readers, rounds, writes = 4, 30, 100
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		w := e.NewSession()
		for n := 1000; n < 1000+writes; n++ {
			if err := w.Exec(fmt.Sprintf("INSERT INTO a VALUES (%d, 1); INSERT INTO b VALUES (%d, 1); UPDATE kv SET v = v + 1 WHERE k = %d", n, n, n%4)); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	sessions := make([]*Session, readers)
	for r := range sessions {
		sessions[r] = e.NewSession()
		wg.Add(1)
		go func(s *Session) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				for _, sh := range poolShapes {
					if _, err := s.QueryValue(sh.sql); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}(sessions[r])
	}
	wg.Wait()
	for r, s := range sessions {
		for _, sh := range poolShapes {
			got := mustValue(t)(s.QueryValue(sh.sql))
			if want := freshValue(t, s, sh.sql); !sqltypes.Identical(got, want) {
				t.Errorf("session %d, %s: %v, a fresh tree says %v", r, sh.name, got, want)
			}
		}
	}
}

// TestPoolSecondPreparedRunAllocs pins what the pool saves a prepared
// point SELECT: its runs after the second rebind a kept tree, so they
// allocate a small fixed amount, none of it instantiation (9 allocations
// measured; 26 when every run instantiated).
func TestPoolSecondPreparedRunAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation counting is slow under -short")
	}
	e := newPoolEngine(t)
	s := e.NewSession()
	prep, err := s.Prepare("SELECT kv.v FROM kv WHERE kv.k = $1")
	if err != nil {
		t.Fatal(err)
	}
	arg := sqltypes.NewInt(7)
	run := func() {
		if v, err := prep.QueryValue(arg); err != nil || v.Int() != 49 {
			t.Fatalf("kv(7) = %v (%v)", v, err)
		}
	}
	run()
	run()
	built := e.sh.execStats.TreesBuilt.Load()
	allocs := testing.AllocsPerRun(100, run)
	if e.sh.execStats.TreesBuilt.Load() != built {
		t.Fatal("a run after the second built a tree")
	}
	if allocs > 12 {
		t.Errorf("a prepared point SELECT on a kept tree allocates %.1f times per run, budget 12", allocs)
	}
}
