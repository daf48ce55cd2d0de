package engine

import (
	"fmt"
	"runtime"
	"testing"

	"plsqlaway/internal/exec"
	"plsqlaway/internal/plan"
	"plsqlaway/internal/sqlast"
	"plsqlaway/internal/sqlparser"
	"plsqlaway/internal/sqltypes"
)

// TestColumnarAllocsRegression guards the tentpole property of the
// columnar executor: per-query allocations scale with the number of
// batches, not the number of rows. Reintroducing boxing on the scan,
// filter, or aggregate hot path (one sqltypes.Value or interface header
// per row) multiplies allocations by the row count and trips the bound
// immediately — 50k rows at even one alloc per row is an order of
// magnitude over the budget, while the legitimate per-batch cost (a few
// dozen batches per query) sits far under it.
func TestColumnarAllocsRegression(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation counting is slow under -short")
	}
	const rows = 50_000
	e := New(WithSeed(42))
	s := e.NewSession()
	if err := s.Exec("CREATE TABLE m (a int, b int, c float)"); err != nil {
		t.Fatal(err)
	}
	ins, err := s.Prepare("INSERT INTO m VALUES ($1, $2, $3)")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < rows; i++ {
		if err := ins.Exec(sqltypes.NewInt(int64(i)), sqltypes.NewInt(int64(i%97)), sqltypes.NewFloat(float64(i)*0.5)); err != nil {
			t.Fatal(err)
		}
	}

	queries := []struct {
		name, sql string
		budget    float64
	}{
		// Columnar seqscan + filter + projection + grand aggregate: the
		// three stages the issue names. ~49 batches at 1024 rows/batch;
		// measured cost is ~190 allocs per run, so the budget keeps ~8×
		// headroom for incidental growth while any per-row allocation
		// (50k+) overshoots it 30-fold.
		{"scan-filter-aggregate", "SELECT sum(a + b), count(*), avg(c) FROM m WHERE a % 3 <> 0", 1500},
		// Filter-heavy scan with a float kernel in the predicate.
		{"scan-filter-project", "SELECT count(*) FROM m WHERE c * 2.0 < 10000.0 AND b < 50", 1500},
	}
	for _, q := range queries {
		t.Run(q.name, func(t *testing.T) {
			// Warm the plan cache so the measurement sees execution only.
			want, err := s.Query(q.sql)
			if err != nil {
				t.Fatal(err)
			}
			wantText := fmt.Sprint(want.Rows)
			allocs := testing.AllocsPerRun(5, func() {
				res, err := s.Query(q.sql)
				if err != nil {
					panic(err)
				}
				if len(res.Rows) != len(want.Rows) {
					panic("result drifted across runs")
				}
			})
			if allocs > q.budget {
				t.Fatalf("%s: %.0f allocs per run over %d rows (budget %.0f) — boxing crept back into the columnar path",
					q.name, allocs, rows, q.budget)
			}
			res, err := s.Query(q.sql)
			if err != nil {
				t.Fatal(err)
			}
			if fmt.Sprint(res.Rows) != wantText {
				t.Fatalf("result drifted: %v want %v", res.Rows, want.Rows)
			}
		})
	}
}

// TestLoopAllocsPin pins what the Loop operator and the session's pool of
// executor trees bought for the compiled fibonacci call: a small fixed
// cost per call (a kept tree rebound, not a handful of operators
// instantiated, let alone one nest loop per let) and an iteration that
// allocates nothing of its own — the state row is updated in place and no
// iteration is kept. The generic recursive-CTE plan measured 238 KB per
// call and ~10 allocations (2 KB) per iteration; the Loop plan
// instantiated per call 35 KB and 130 allocations, on a kept tree 2.3 KB
// and 27.
func TestLoopAllocsPin(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation counting is slow under -short")
	}
	s := newQuartetEngine(t).NewSession()
	measure := func(n int64) (bytes, allocs float64) {
		arg := sqltypes.NewInt(n)
		call := func() {
			if _, err := s.QueryValue("SELECT fibonacci_c($1)", arg); err != nil {
				t.Fatal(err)
			}
		}
		call() // plan once
		const runs = 100
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			call()
		}
		runtime.ReadMemStats(&after)
		return float64(after.TotalAlloc-before.TotalAlloc) / runs, float64(after.Mallocs-before.Mallocs) / runs
	}
	bytes1, allocs1 := measure(1)
	_, allocs90 := measure(90)
	if bytes1 > 8<<10 {
		t.Errorf("fibonacci_c(1) allocates %.0f bytes per call, budget 8 KiB", bytes1)
	}
	if perIter := (allocs90 - allocs1) / 89; perIter > 2 {
		t.Errorf("fibonacci_c allocates %.2f times per iteration (%.0f at n=90, %.0f at n=1), budget 2",
			perIter, allocs90, allocs1)
	}
}

// TestMemoAllocsPin pins the memo's two paths inside a Loop. A hit — the
// embedded query's key seen before in this statement — replays cached
// rows and allocates nothing; a miss runs the query and records its rows
// into slabs shared by every entry, so it may allocate only a bounded
// amount more than the same loop planned with NoMemo. Both are measured
// per iteration of a hand-written trampoline whose step reads kv once:
// keyed on the state column m = i % 4 (all hits after four) or on i (all
// misses).
func TestMemoAllocsPin(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation counting is slow under -short")
	}
	s := New(WithSeed(42)).NewSession()
	if err := s.Exec("CREATE TABLE kv (k int, v int); CREATE INDEX ON kv (k)"); err != nil {
		t.Fatal(err)
	}
	ins, err := s.Prepare("INSERT INTO kv VALUES ($1, $2)")
	if err != nil {
		t.Fatal(err)
	}
	for k := int64(0); k < 2000; k++ {
		if err := ins.Exec(sqltypes.NewInt(k), sqltypes.NewInt(k%7)); err != nil {
			t.Fatal(err)
		}
	}
	loop := func(key string) *sqlast.Query {
		q, err := sqlparser.ParseQuery(`WITH RECURSIVE st(go_on, i, acc, m) AS (
  SELECT true, 0, 0, 0
  UNION ALL
  SELECT (nx.v).f1, (nx.v).f2, (nx.v).f3, (nx.v).f4
  FROM st AS s, LATERAL (SELECT CASE WHEN s.i < $1
                                     THEN ROW(true, s.i + 1, s.acc + (SELECT kv.v FROM kv WHERE kv.k = ` + key + `), (s.i + 1) % 4)
                                     ELSE ROW(false, s.i, s.acc, s.m) END AS v) AS nx
  WHERE s.go_on)
SELECT s.acc FROM st AS s WHERE NOT s.go_on`)
		if err != nil {
			t.Fatal(err)
		}
		return q
	}
	// perIteration runs the plan for 1000 and for 100 iterations and
	// returns the allocations the extra 900 cost, each.
	perIteration := func(q *sqlast.Query, opts plan.Options) float64 {
		p, err := plan.Build(s.Catalog(), q, opts)
		if err != nil {
			t.Fatal(err)
		}
		measure := func(n int64) float64 {
			return testing.AllocsPerRun(20, func() {
				ctx := s.newCtx()
				ctx.Params = []sqltypes.Value{sqltypes.NewInt(n)}
				ex, err := exec.Instantiate(p, ctx)
				if err != nil {
					t.Fatal(err)
				}
				if _, err := ex.Run(); err != nil {
					t.Fatal(err)
				}
				ex.Shutdown()
			})
		}
		return (measure(1000) - measure(100)) / 900
	}
	if hit := perIteration(loop("s.m"), plan.Options{}); hit > 0.01 {
		t.Errorf("a memo hit allocates %.2f times, want 0", hit)
	}
	miss, plain := perIteration(loop("s.i"), plan.Options{}), perIteration(loop("s.i"), plan.Options{NoMemo: true})
	if miss-plain > 0.5 {
		t.Errorf("a memo miss allocates %.2f times, the query without memo %.2f: budget +0.5", miss, plain)
	}
	t.Logf("per iteration: hit 0, miss %.2f, unmemoised %.2f", miss, plain)
}
