package engine

// Batch-boundary edge-case suite for the vectorized executor: every query
// here is evaluated at a grid of batch sizes — 1 (tuple-at-a-time), tiny
// sizes that force many mid-stream batch boundaries, and the default — and
// must produce byte-identical results. The cases target the seams:
// LIMIT/OFFSET cutting inside a batch, DISTINCT and set operations whose
// duplicate pairs span batches, filters yielding empty batches mid-stream,
// window frames crossing batch boundaries, and hash-join edge inputs
// (NULL keys, duplicate keys, empty build side, left-join null extension).

import (
	"strings"
	"testing"

	"plsqlaway/internal/exec"
	"plsqlaway/internal/plan"
	"plsqlaway/internal/sqlparser"
	"plsqlaway/internal/sqltypes"
	"plsqlaway/internal/storage"
)

// batchGrid is the batch sizes each edge case runs at.
var batchGrid = []int{1, 2, 3, 5, 1024}

func newBatchTestEngine(t *testing.T, batchSize int) *Engine {
	t.Helper()
	e := New(WithSeed(42), WithBatchSize(batchSize))
	s := e.NewSession()
	script := `
CREATE TABLE seq (n int);
CREATE TABLE a (x int, tag text);
CREATE TABLE b (y int, lbl text);
CREATE TABLE empty (z int);
`
	if err := s.Exec(script); err != nil {
		t.Fatal(err)
	}
	var rows []string
	for i := 1; i <= 10; i++ {
		rows = append(rows, "("+sqltypes.NewInt(int64(i)).String()+")")
	}
	if err := s.Exec("INSERT INTO seq VALUES " + strings.Join(rows, ", ")); err != nil {
		t.Fatal(err)
	}
	// a: duplicates and a NULL key; b: duplicates and NULLs too.
	if err := s.Exec(`INSERT INTO a VALUES (1, 'a1'), (2, 'a2'), (2, 'a2bis'), (NULL, 'anull'), (5, 'a5')`); err != nil {
		t.Fatal(err)
	}
	if err := s.Exec(`INSERT INTO b VALUES (2, 'b2'), (2, 'b2bis'), (NULL, 'bnull'), (3, 'b3')`); err != nil {
		t.Fatal(err)
	}
	return e
}

// batchEdgeQueries lists the edge cases. Each must be fully ordered so the
// textual comparison is deterministic.
var batchEdgeQueries = []struct {
	name string
	sql  string
}{
	{"limit_mid_batch", "SELECT n FROM seq ORDER BY n LIMIT 4"},
	{"limit_offset_mid_batch", "SELECT n FROM seq ORDER BY n LIMIT 4 OFFSET 3"},
	{"offset_past_end", "SELECT n FROM seq ORDER BY n LIMIT 5 OFFSET 9"},
	{"offset_beyond_input", "SELECT n FROM seq ORDER BY n OFFSET 50"},
	{"distinct_spanning", "SELECT DISTINCT n % 3 FROM seq ORDER BY 1"},
	{"union_dedup_spanning", "SELECT n % 4 FROM seq UNION SELECT n % 3 FROM seq ORDER BY 1"},
	{"intersect_spanning", "SELECT n FROM seq WHERE n <= 7 INTERSECT SELECT n FROM seq WHERE n >= 4 ORDER BY 1"},
	{"intersect_all_dups", "SELECT n % 2 FROM seq INTERSECT ALL SELECT n % 3 FROM seq ORDER BY 1"},
	{"except_spanning", "SELECT n FROM seq EXCEPT SELECT n FROM seq WHERE n % 2 = 0 ORDER BY 1"},
	{"except_all_dups", "SELECT n % 3 FROM seq EXCEPT ALL SELECT n % 2 FROM seq ORDER BY 1"},
	{"empty_filter_batches", "SELECT n FROM seq WHERE n > 100 ORDER BY n"},
	{"sparse_filter_with_limit", "SELECT n FROM seq WHERE n % 4 = 1 ORDER BY n LIMIT 2"},
	{"window_rows_frame_across_batches",
		"SELECT n, sum(n) OVER (ORDER BY n ROWS BETWEEN 2 PRECEDING AND 1 FOLLOWING) FROM seq ORDER BY n"},
	{"window_range_default_frame",
		"SELECT n % 2, sum(n) OVER (PARTITION BY n % 2 ORDER BY n) FROM seq ORDER BY 1, 2"},
	{"hash_join_inner_dup_keys",
		"SELECT a.tag, b.lbl FROM a, b WHERE a.x = b.y ORDER BY 1, 2"},
	{"hash_join_left_null_extension",
		"SELECT a.tag, b.lbl FROM a LEFT JOIN b ON a.x = b.y ORDER BY 1, 2"},
	{"hash_join_empty_build",
		"SELECT a.tag FROM a, empty WHERE a.x = empty.z ORDER BY 1"},
	{"hash_join_left_empty_build",
		"SELECT a.tag, empty.z FROM a LEFT JOIN empty ON a.x = empty.z ORDER BY 1"},
	{"recursive_frontier",
		`WITH RECURSIVE r(n) AS (SELECT 1 UNION ALL SELECT n + 1 FROM r WHERE n < 37)
		 SELECT count(*), sum(n), max(n) FROM r`},
	{"recursive_dedup_frontier",
		`WITH RECURSIVE r(n) AS (SELECT 1 UNION SELECT (n * 2) % 11 + 1 FROM r)
		 SELECT count(*), sum(n) FROM r`},
	{"agg_grand_over_join",
		"SELECT count(*), min(b.lbl) FROM a, b WHERE a.x = b.y"},
}

func TestBatchBoundaryEdgeCases(t *testing.T) {
	sessions := make(map[int]*Session, len(batchGrid))
	for _, bs := range batchGrid {
		sessions[bs] = newBatchTestEngine(t, bs).NewSession()
	}
	for _, q := range batchEdgeQueries {
		t.Run(q.name, func(t *testing.T) {
			want := rowsOf(t, sessions[batchGrid[0]], q.sql)
			for _, bs := range batchGrid[1:] {
				got := rowsOf(t, sessions[bs], q.sql)
				if got != want {
					t.Errorf("batch size %d: %q\n  batch=%d: %s\n  batch=%d: %s",
						bs, q.sql, batchGrid[0], want, bs, got)
				}
			}
		})
	}
}

// TestOneResultPathDifferential runs every edge query three ways —
// buffered (Query), streamed (QueryStream) and prepared — at batch sizes
// 1, 7 and the default. The three must agree row for row, and each must
// move the profile counters by the same amount: the buffered *Result is
// the streaming path with a collecting sink, not a second path beside it.
func TestOneResultPathDifferential(t *testing.T) {
	type outcome struct {
		rows            string
		starts, queries int64
	}
	render := func(dst *[]string, rows []storage.Tuple) {
		for _, r := range rows {
			var vals []string
			for _, v := range r {
				vals = append(vals, v.String())
			}
			*dst = append(*dst, strings.Join(vals, ","))
		}
	}
	for _, bs := range []int{1, 7, exec.DefaultBatchSize} {
		s := newBatchTestEngine(t, bs).NewSession()
		measure := func(name string, run func(rows *[]string) error) outcome {
			t.Helper()
			c := s.Counters()
			starts, queries := c.ExecutorStarts, c.QueriesRun
			var rows []string
			if err := run(&rows); err != nil {
				t.Fatalf("batch %d, %s: %v", bs, name, err)
			}
			return outcome{strings.Join(rows, ";"), c.ExecutorStarts - starts, c.QueriesRun - queries}
		}
		for _, q := range batchEdgeQueries {
			buffered := measure(q.name+" buffered", func(rows *[]string) error {
				res, err := s.Query(q.sql)
				if err == nil {
					render(rows, res.Rows)
				}
				return err
			})
			streamed := measure(q.name+" streamed", func(rows *[]string) error {
				return s.QueryStream(q.sql,
					func([]string) error { return nil },
					func(b *exec.Batch) error { render(rows, b.Rows()); return nil })
			})
			prepared := measure(q.name+" prepared", func(rows *[]string) error {
				p, err := s.Prepare(q.sql)
				if err != nil {
					return err
				}
				res, err := p.Query()
				if err == nil {
					render(rows, res.Rows)
				}
				return err
			})
			if buffered != streamed || buffered != prepared {
				t.Errorf("batch %d, %s:\n  buffered %+v\n  streamed %+v\n  prepared %+v", bs, q.name, buffered, streamed, prepared)
			}
			if buffered.starts == 0 || buffered.queries == 0 {
				t.Errorf("batch %d, %s: counters did not move: %+v", bs, q.name, buffered)
			}
		}
	}
}

// TestHashJoinVsNestLoopDifferential plans every edge query twice — once
// with the hash-join rewrite, once pinned to nest loops (Skip:
// PassHashJoin) — and asserts identical row streams, covering NULL keys,
// duplicate keys, empty build sides, and left-join null extension on both
// join implementations.
func TestHashJoinVsNestLoopDifferential(t *testing.T) {
	e := newBatchTestEngine(t, 4)
	s := e.NewSession()
	for _, q := range batchEdgeQueries {
		run := func(opts plan.Options) []string {
			t.Helper()
			// Reparse per plan: Build mutates the bound tree in place.
			parsed, err := sqlparser.ParseQuery(q.sql)
			if err != nil {
				t.Fatalf("%s: parse: %v", q.name, err)
			}
			p, err := plan.Build(s.sh.state.Load().cat, parsed, opts)
			if err != nil {
				t.Fatalf("%s: plan: %v", q.name, err)
			}
			ex, err := exec.Instantiate(p, s.newCtx())
			if err != nil {
				t.Fatalf("%s: instantiate: %v", q.name, err)
			}
			rows, err := ex.Run()
			if err != nil {
				t.Fatalf("%s: run: %v", q.name, err)
			}
			ex.Shutdown()
			var out []string
			for _, row := range rows {
				var vals []string
				for _, v := range row {
					vals = append(vals, v.String())
				}
				out = append(out, strings.Join(vals, ","))
			}
			return out
		}
		hash := run(plan.Options{})
		nest := run(plan.Options{Skip: plan.PassHashJoin})
		if strings.Join(hash, ";") != strings.Join(nest, ";") {
			t.Errorf("%s: hash join != nest loop\n  hash: %s\n  nest: %s",
				q.name, strings.Join(hash, ";"), strings.Join(nest, ";"))
		}
	}
}

// TestHashJoinPlanShapes pins the conversion rules: equi-joins over static
// tables become hash joins (with the working-table probe of a recursive
// CTE as the headline case), while correlated or volatile right sides stay
// nest loops.
func TestHashJoinPlanShapes(t *testing.T) {
	e := newBatchTestEngine(t, 1024)
	s := e.NewSession()
	buildPlan := func(sql string, opts plan.Options) *plan.Plan {
		t.Helper()
		parsed, err := sqlparser.ParseQuery(sql)
		if err != nil {
			t.Fatalf("parse %q: %v", sql, err)
		}
		p, err := plan.Build(s.sh.state.Load().cat, parsed, opts)
		if err != nil {
			t.Fatalf("plan %q: %v", sql, err)
		}
		return p
	}
	countKind := func(p *plan.Plan) (hash, nest int) {
		var walk func(n plan.Node)
		walk = func(n plan.Node) {
			switch x := n.(type) {
			case *plan.HashJoin:
				hash++
				walk(x.Left)
				walk(x.Right)
			case *plan.NestLoop:
				nest++
				walk(x.Left)
				walk(x.Right)
			case *plan.Filter:
				walk(x.Child)
			case *plan.Project:
				walk(x.Child)
			case *plan.Sort:
				walk(x.Child)
			case *plan.Limit:
				walk(x.Child)
			case *plan.Distinct:
				walk(x.Child)
			case *plan.Agg:
				walk(x.Child)
			case *plan.Window:
				walk(x.Child)
			case *plan.Materialize:
				walk(x.Child)
			case *plan.Append:
				for _, c := range x.Children {
					walk(c)
				}
			case *plan.SetOp:
				walk(x.L)
				walk(x.R)
			case *plan.RecursiveUnion:
				walk(x.NonRec)
				walk(x.Rec)
			case *plan.WithNode:
				walk(x.Child)
			}
		}
		walk(p.Root)
		for _, cte := range p.CTEs {
			walk(cte.Plan)
		}
		return hash, nest
	}

	// Comma-join + WHERE equality → hash join.
	p := buildPlan("SELECT a.tag FROM a, b WHERE a.x = b.y", plan.Options{})
	if h, n := countKind(p); h != 1 || n != 0 {
		t.Errorf("equi-join: got %d hash joins, %d nest loops; want 1, 0", h, n)
	}
	// Skipping the hash-join pass pins the Volcano shape.
	p = buildPlan("SELECT a.tag FROM a, b WHERE a.x = b.y", plan.Options{Skip: plan.PassHashJoin})
	if h, n := countKind(p); h != 0 || n != 1 {
		t.Errorf("hash joins skipped: got %d hash joins, %d nest loops; want 0, 1", h, n)
	}
	// No equality conjunct → nest loop stays.
	p = buildPlan("SELECT a.tag FROM a, b WHERE a.x < b.y", plan.Options{})
	if h, n := countKind(p); h != 0 || n != 1 {
		t.Errorf("inequality join: got %d hash joins, %d nest loops; want 0, 1", h, n)
	}
	// Volatile build side must stay a nest loop (random() count changes).
	p = buildPlan("SELECT a.tag FROM a, (SELECT y FROM b WHERE random() >= 0) AS r WHERE a.x = r.y", plan.Options{})
	if h, _ := countKind(p); h != 0 {
		t.Errorf("volatile build side: got %d hash joins; want 0", h)
	}
	// The recursive-union probe: working scan joined to a static table
	// becomes a hash join whose build side survives rescans.
	p = buildPlan(`WITH RECURSIVE r(n) AS (
		SELECT seq.n FROM seq WHERE seq.n = 1
		UNION ALL
		SELECT seq.n FROM r, seq WHERE seq.n = r.n + 1
	) SELECT count(*) FROM r`, plan.Options{})
	h, _ := countKind(p)
	if h != 1 {
		t.Fatalf("recursive working-table probe: got %d hash joins; want 1", h)
	}
	var hj *plan.HashJoin
	var find func(n plan.Node)
	find = func(n plan.Node) {
		switch x := n.(type) {
		case *plan.HashJoin:
			hj = x
		case *plan.Filter:
			find(x.Child)
		case *plan.Project:
			find(x.Child)
		case *plan.RecursiveUnion:
			find(x.NonRec)
			find(x.Rec)
		case *plan.WithNode:
			find(x.Child)
		case *plan.Agg:
			find(x.Child)
		}
	}
	find(p.Root)
	for _, cte := range p.CTEs {
		find(cte.Plan)
	}
	if hj == nil {
		t.Fatal("recursive probe: hash join not found in CTE plan")
	}
	if !hj.RightStatic {
		t.Error("recursive probe: build side should be static (hash table must survive rescans)")
	}
}

// TestHashJoinLargeNumericKeys is the regression test for the hash-bucket
// soundness bug: int 10^16 joined against float 1e16 compares equal per
// sqltypes.Compare, but naive numeric normalization put them in different
// buckets and silently lost the row. Buckets now use the canonical float64
// image, and the residual re-checks exactness, so the hash plan must agree
// with the pinned nest-loop plan on every large-numeric edge.
func TestHashJoinLargeNumericKeys(t *testing.T) {
	s := New(WithSeed(42), WithBatchSize(4)).NewSession()
	if err := s.Exec(`CREATE TABLE ci (x int); CREATE TABLE cf (y float)`); err != nil {
		t.Fatal(err)
	}
	// 10^16 (> 2^53): int and float images coincide. 2^53 and 2^53+1: two
	// ints sharing one float image — bucket-mates the residual must split.
	if err := s.Exec(`INSERT INTO ci VALUES (10000000000000000), (9007199254740992), (9007199254740993), (7)`); err != nil {
		t.Fatal(err)
	}
	if err := s.Exec(`INSERT INTO cf VALUES (1e16), (9007199254740992.0), (7.0), (0.5)`); err != nil {
		t.Fatal(err)
	}
	for _, sql := range []string{
		"SELECT ci.x, cf.y FROM ci, cf WHERE ci.x = cf.y ORDER BY 1, 2",
		"SELECT a.x, b.x FROM ci AS a, ci AS b WHERE a.x = b.x ORDER BY 1, 2",
	} {
		run := func(opts plan.Options) string {
			t.Helper()
			parsed, err := sqlparser.ParseQuery(sql)
			if err != nil {
				t.Fatal(err)
			}
			p, err := plan.Build(s.sh.state.Load().cat, parsed, opts)
			if err != nil {
				t.Fatal(err)
			}
			ex, err := exec.Instantiate(p, s.newCtx())
			if err != nil {
				t.Fatal(err)
			}
			rows, err := ex.Run()
			if err != nil {
				t.Fatal(err)
			}
			ex.Shutdown()
			var out []string
			for _, row := range rows {
				var vals []string
				for _, v := range row {
					vals = append(vals, v.String())
				}
				out = append(out, strings.Join(vals, ","))
			}
			return strings.Join(out, ";")
		}
		hash, nest := run(plan.Options{}), run(plan.Options{Skip: plan.PassHashJoin})
		if hash != nest {
			t.Errorf("%q:\n  hash: %s\n  nest: %s", sql, hash, nest)
		}
		if hash == "" {
			t.Errorf("%q returned no rows — large-numeric keys lost", sql)
		}
	}
}

// TestVolatileDrawOrderAcrossBatchSizes is the regression test for the
// volatile-reordering bugs: multi-expression operators must evaluate
// impure expressions row-major (never column-major), and joins must not
// over-pull volatile inputs past a LIMIT cut, so the random() stream is
// identical at every batch size.
func TestVolatileDrawOrderAcrossBatchSizes(t *testing.T) {
	results := map[string][]string{}
	for _, bs := range []int{1, 3, 1024} {
		s := newBatchTestEngine(t, bs).NewSession()
		// Column transposition: two random() columns over several rows.
		s.Seed(7)
		multi := rowsOf(t, s, "SELECT n, random(), random() FROM seq ORDER BY n")
		// Over-pull: a volatile subquery under a join cut by LIMIT, then
		// the very next draw must continue from the same stream position.
		s.Seed(7)
		cut := rowsOf(t, s, "SELECT s.r FROM (SELECT random() AS r FROM seq) AS s, b LIMIT 1")
		after := rowsOf(t, s, "SELECT random()")
		// Volatile sort key and window partition draw order.
		s.Seed(7)
		sorted := rowsOf(t, s, "SELECT n FROM seq ORDER BY random(), random()")
		s.Seed(7)
		agg := rowsOf(t, s, "SELECT sum(n), sum(n * random()) > -1, sum(random()) > -1 FROM seq")
		for name, got := range map[string]string{
			"multi": multi, "cut": cut, "after": after, "sorted": sorted, "agg": agg,
		} {
			results[name] = append(results[name], got)
		}
	}
	for name, vals := range results {
		for i := 1; i < len(vals); i++ {
			if vals[i] != vals[0] {
				t.Errorf("%s: batch-size dependent random() stream:\n  %s\n  %s", name, vals[0], vals[i])
			}
		}
	}
}

// TestVolatilePlansRunTupleAtATime is the regression test for cross-stage
// volatile transposition: a volatile filter above a volatile projection
// interleaves random() draws per row under Volcano iteration, which
// batching would transpose (the child's whole batch draws before the
// filter's first draw). Instantiate forces batch size 1 for volatile
// plans, so results must be identical at every configured batch size.
func TestVolatilePlansRunTupleAtATime(t *testing.T) {
	var ref string
	for i, bs := range []int{1, 4, 256} {
		s := newBatchTestEngine(t, bs).NewSession()
		s.Seed(11)
		got := rowsOf(t, s, "SELECT s.r FROM (SELECT n, random() AS r FROM seq) AS s WHERE random() < 0.5")
		if i == 0 {
			ref = got
			continue
		}
		if got != ref {
			t.Errorf("batch size %d: volatile cross-stage draws diverged\n  batch=1: %s\n  batch=%d: %s", bs, ref, bs, got)
		}
	}
}

// TestHashJoinIncomparableKindsError is the regression test for silent
// cross-type suppression: `a.x = b.y` with int x and text y errors under
// the nest-loop plan when the pair is evaluated; the hash-join plan must
// surface the same error instead of silently returning zero rows.
func TestHashJoinIncomparableKindsError(t *testing.T) {
	s := New(WithSeed(42), WithBatchSize(8)).NewSession()
	if err := s.Exec(`CREATE TABLE ik (x int); CREATE TABLE tk (y text);
		INSERT INTO ik VALUES (1), (2); INSERT INTO tk VALUES ('one')`); err != nil {
		t.Fatal(err)
	}
	_, hashErr := s.Query("SELECT count(*) FROM ik, tk WHERE ik.x = tk.y")
	if hashErr == nil {
		t.Fatal("hash join over int/text keys must error like the nest-loop plan")
	}
	// The non-hashable shape of the same predicate (forced nest loop).
	_, nestErr := s.Query("SELECT count(*) FROM ik, tk WHERE ik.x = tk.y OR false")
	if nestErr == nil {
		t.Fatal("nest-loop over int/text keys must error")
	}
	// Comparable mixed numerics still join fine.
	if err := s.Exec(`CREATE TABLE fk (y float); INSERT INTO fk VALUES (2.0)`); err != nil {
		t.Fatal(err)
	}
	res, err := s.Query("SELECT count(*) FROM ik, fk WHERE ik.x = fk.y")
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0].Int() != 1 {
		t.Errorf("int/float join found %s rows, want 1", res.Rows[0][0])
	}
}

// TestJoinLimitDoesNotComputePastCut is the regression test for the
// LIMIT-over-join pull discipline: a projection that errors on a later
// left row (division by zero) must never be evaluated when the rows the
// LIMIT needs come entirely from earlier left rows — at any batch size,
// exactly as the tuple-at-a-time executor behaved.
func TestJoinLimitDoesNotComputePastCut(t *testing.T) {
	for _, bs := range []int{1, 2, 256} {
		s := New(WithSeed(42), WithBatchSize(bs)).NewSession()
		if err := s.Exec(`CREATE TABLE t (x int); CREATE TABLE r (y int);
			INSERT INTO t VALUES (1), (2), (0);
			INSERT INTO r VALUES (10), (10), (10), (10), (10)`); err != nil {
			t.Fatal(err)
		}
		res, err := s.Query("SELECT l.v, r.y FROM (SELECT 10 / x AS v FROM t) AS l JOIN r ON l.v = r.y LIMIT 5")
		if err != nil {
			t.Fatalf("batch size %d: LIMIT-bounded join computed past the cut: %v", bs, err)
		}
		if len(res.Rows) != 5 {
			t.Fatalf("batch size %d: got %d rows, want 5", bs, len(res.Rows))
		}
	}
}
