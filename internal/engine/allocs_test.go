package engine

import (
	"fmt"
	"runtime"
	"testing"

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

// TestLoopAllocsPin pins what the Loop operator bought for the compiled
// fibonacci call: a small fixed cost per call (a handful of operators to
// instantiate, not one nest loop per let) and an iteration that allocates
// nothing of its own — the state row is updated in place and no iteration
// is kept. The generic recursive-CTE plan measured 238 KB per call and ~10
// allocations (2 KB) per iteration.
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
	if bytes1 > 60<<10 {
		t.Errorf("fibonacci_c(1) allocates %.0f bytes per call, budget 60 KiB", bytes1)
	}
	if perIter := (allocs90 - allocs1) / 89; perIter > 2 {
		t.Errorf("fibonacci_c allocates %.2f times per iteration (%.0f at n=90, %.0f at n=1), budget 2",
			perIter, allocs90, allocs1)
	}
}
