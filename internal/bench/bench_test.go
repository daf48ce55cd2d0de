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
	// Query-bearing functions switch f→Qi and pay for it in Exec·Start and
	// Exec·End, while fibonacci's fast path avoids executor starts
	// entirely. With executor trees pooled per session a start rebinds a
	// kept tree instead of instantiating one, so the overhead is a few
	// percent rather than PostgreSQL's double digits; only its presence is
	// the shape.
	fib := byName["fibonacci"]
	for _, name := range []string{"walk", "parse", "traverse"} {
		r := byName[name]
		if r.Start+r.End <= fib.Start+fib.End {
			t.Errorf("%s: Exec·Start+End = %.2f%%, not above fibonacci's %.2f%%", name, r.Start+r.End, fib.Start+fib.End)
		}
		if r.FtoQSwitches == 0 {
			t.Errorf("%s: no f→Qi switches recorded", name)
		}
	}
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
