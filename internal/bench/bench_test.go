package bench

import (
	"testing"

	"plsqlaway/internal/profile"
)

func TestTable1Shape(t *testing.T) {
	rows, err := Table1(Table1Config{WalkSteps: 400, ParseLen: 400, TraverseHops: 200, FibN: 5000})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("rows: %d", len(rows))
	}
	byName := map[string]Table1Row{}
	for _, r := range rows {
		byName[r.Name] = r
		total := r.Start + r.Run + r.End + r.Interp
		if total < 99 || total > 101 {
			t.Errorf("%s: breakdown sums to %.1f%%", r.Name, total)
		}
	}
	// Query-bearing functions pay double-digit context-switch overhead…
	for _, name := range []string{"walk", "parse", "traverse"} {
		r := byName[name]
		if r.Start+r.End < 5 {
			t.Errorf("%s: Exec·Start+End = %.1f%%, expected visible f→Qi overhead", name, r.Start+r.End)
		}
		if r.FtoQSwitches == 0 {
			t.Errorf("%s: no f→Qi switches recorded", name)
		}
	}
	// …while fibonacci's fast path avoids executor starts entirely.
	fib := byName["fibonacci"]
	if fib.Start+fib.End > 1 {
		t.Errorf("fibonacci: Exec·Start+End = %.1f%%, want ≈0 (fast path)", fib.Start+fib.End)
	}
	if fib.FtoQSwitches != 0 {
		t.Errorf("fibonacci: %d f→Qi switches, want 0", fib.FtoQSwitches)
	}
	t.Logf("\n%s", FormatTable1(rows))
}

func TestFigure10Shape(t *testing.T) {
	pts, err := Figure10(Fig10Config{Steps: []int64{500, 1500}, Rounds: 5})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range pts {
		// Compare minima: robust against scheduler contention when the
		// suite runs alongside other load (the claim is about the best
		// case each regime can achieve on identical work).
		if p.RecMinMs >= p.PLMinMs {
			t.Errorf("steps=%d: recursive (min %.1fms) should beat interpreted (min %.1fms)",
				p.Iterations, p.RecMinMs, p.PLMinMs)
		}
		if p.PLMinMs > p.PLMs || p.PLMaxMs < p.PLMs {
			t.Errorf("steps=%d: envelope broken", p.Iterations)
		}
	}
	// Both sides scale roughly linearly in steps.
	if len(pts) == 2 && pts[1].PLMinMs < pts[0].PLMinMs {
		t.Errorf("interpreted time should grow with steps: %v", pts)
	}
	t.Logf("\n%s", FormatFigure10(pts))
}

func TestFigure11Shape(t *testing.T) {
	hm, err := Figure11(Fig11Config{
		Fn:          "walk",
		Invocations: []int64{2, 64},
		Iterations:  []int64{2, 64},
	})
	if err != nil {
		t.Fatal(err)
	}
	// The well-amortized corner must clearly favour SQL. (Loose bound:
	// this is a timing test that must survive noisy CI machines.)
	big := hm.Cells[1][1] // 64 × 64
	if big <= 0 || big >= 100 {
		t.Errorf("64×64 cell = %.0f%%, expected < 100 (SQL wins)", big)
	}
	t.Logf("\n%s", FormatHeatMap(hm))
}

func TestFigure11ParseOracleQuantization(t *testing.T) {
	// With the Oracle profile's 10ms timer, tiny cells fall below
	// resolution and are omitted (the paper's blank lower-left corner).
	hm, err := Figure11(Fig11Config{
		Fn:          "parse",
		Profile:     profile.Oracle,
		Invocations: []int64{2},
		Iterations:  []int64{2},
	})
	if err != nil {
		t.Fatal(err)
	}
	if hm.Cells[0][0] >= 0 {
		t.Logf("2×2 parse cell resolved to %.0f%% (fast machine) — acceptable", hm.Cells[0][0])
	}
}

func TestTable2Shape(t *testing.T) {
	rows, err := Table2([]int{2_000, 4_000})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if r.IterateWrites != 0 {
			t.Errorf("n=%d: WITH ITERATE wrote %d pages, want 0", r.Iterations, r.IterateWrites)
		}
		if r.RecursiveWrites == 0 {
			t.Errorf("n=%d: WITH RECURSIVE wrote no pages, expected a quadratic trace", r.Iterations)
		}
		if r.LoopWrites != 0 {
			t.Errorf("n=%d: lowered WITH RECURSIVE wrote %d pages, want 0", r.Iterations, r.LoopWrites)
		}
	}
	// Quadratic growth: doubling the input should roughly quadruple writes.
	if len(rows) == 2 {
		ratio := float64(rows[1].RecursiveWrites) / float64(rows[0].RecursiveWrites)
		if ratio < 3 || ratio > 5.5 {
			t.Errorf("write growth %0.1fx for 2x input, want ≈4x (quadratic)", ratio)
		}
	}
	t.Logf("\n%s", FormatTable2(rows))
}

func TestAblationsRun(t *testing.T) {
	if testing.Short() {
		t.Skip("ablations are timing runs")
	}
	for _, a := range []struct {
		name string
		fn   func(int64) ([]AblationRow, error)
	}{
		{"A1 dialect", AblationDialect},
		{"A2 ssa-opt", AblationSSAOpt},
		{"A3 fast-path", AblationFastPath},
		{"A4 plan-cache", AblationPlanCache},
		{"A5 iterate", AblationIterate},
	} {
		rows, err := a.fn(600)
		if err != nil {
			t.Fatalf("%s: %v", a.name, err)
		}
		if len(rows) != 2 || rows[0].Ms <= 0 || rows[1].Ms <= 0 {
			t.Errorf("%s: rows %+v", a.name, rows)
		}
		t.Logf("\n%s", FormatAblation(a.name, rows))
	}
}

// TestUDFCallSweep runs the compiled-UDF call sweep at a small size. The
// sweep's warm-up pass is a differential — every regime of each workload
// must return the identical value, so this test fails if the inlined,
// opaque, or hand-written plans ever disagree on the corpus lookups.
func TestUDFCallSweep(t *testing.T) {
	rep, err := UDFCall(UDFCallConfig{Probes: 1_000, Rounds: 1, Inline: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Calls) != 6 {
		t.Fatalf("calls: %d rows, want 2 workloads × 3 regimes", len(rep.Calls))
	}
	if rep.PlansInlined < 2 {
		t.Errorf("PlansInlined = %d, want >= 2 (both lookups must inline)", rep.PlansInlined)
	}
	for _, r := range rep.Calls {
		if r.Regime == "inlined" && r.SpeedupVsOpaque < 1 {
			t.Errorf("%s: inlined slower than opaque (%.2fx)", r.Workload, r.SpeedupVsOpaque)
		}
	}
	if len(rep.BatchClamp) != 4 {
		t.Errorf("batch clamp rows: %d, want 4", len(rep.BatchClamp))
	}
}

func TestContentionSweepShape(t *testing.T) {
	rows, err := ContentionSweep(ContentionConfig{
		Workers: []int{1, 4}, Txns: 64, TableRows: 256, RowsPerTxn: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 { // 2 modes × 2 worker counts
		t.Fatalf("got %d rows, want 4", len(rows))
	}
	for _, r := range rows {
		if r.Txns != 64 || r.TxnsPerSec <= 0 {
			t.Errorf("%s ×%d: implausible row %+v", r.Mode, r.Workers, r)
		}
		if r.Mode == "disjoint" && r.Conflicts != 0 {
			t.Errorf("disjoint ×%d: %d conflicts, want 0 (partitioned writers must never collide)", r.Workers, r.Conflicts)
		}
	}
	// The checksum inside ContentionSweep already failed the run if any
	// retry lost or duplicated an update; reaching here means it held.
}
