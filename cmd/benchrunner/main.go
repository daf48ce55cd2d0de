// benchrunner regenerates the paper's evaluation: Table 1, Figure 10,
// Figures 11a/11b, Table 2 and five ablations of the compiler and
// interpreter, printing each in a paper-style text layout.
//
// Usage:
//
//	benchrunner [-experiment LIST] [-quick]
//
// LIST is "all" (the default) or a comma-separated subset of table1, fig10,
// fig11a, fig11b, table2 and ablations; any other name is an error. -quick
// shrinks workload sizes so a full run takes seconds (the default sizes
// mirror the paper's and take several minutes, dominated by the Figure 11
// grids and Table 2's gigabyte-scale spill).
//
// The experiments live in internal/bench, whose tests run each at a small
// size: `go test -run TestFigure11Shape -cpuprofile cpu.out ./internal/bench`
// profiles one. The system's performance trajectory is benchmark/.
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"time"

	"plsqlaway/internal/bench"
	"plsqlaway/internal/profile"
)

// experiment is one section of the paper's evaluation; run returns its
// text rendering.
type experiment struct {
	name string
	run  func(quick bool) (string, error)
}

var experiments = []experiment{
	{"table1", func(quick bool) (string, error) {
		cfg := bench.Table1Config{}
		if quick {
			cfg = bench.Table1Config{WalkSteps: 1_000, ParseLen: 1_000, TraverseHops: 500, FibN: 20_000}
		}
		rows, err := bench.Table1(cfg)
		return bench.FormatTable1(rows), err
	}},
	{"fig10", func(quick bool) (string, error) {
		cfg := bench.Fig10Config{}
		if quick {
			cfg = bench.Fig10Config{Steps: []int64{2_000, 5_000, 10_000}, Rounds: 3}
		}
		pts, err := bench.Figure10(cfg)
		return bench.FormatFigure10(pts), err
	}},
	{"fig11a", func(quick bool) (string, error) {
		return heatMap(bench.Fig11Config{Fn: "walk"}, quick)
	}},
	{"fig11b", func(quick bool) (string, error) {
		return heatMap(bench.Fig11Config{Fn: "parse", Profile: profile.Oracle}, quick)
	}},
	{"table2", func(quick bool) (string, error) {
		lengths := []int{10_000, 20_000, 30_000, 40_000, 50_000}
		if quick {
			lengths = []int{2_000, 4_000, 8_000}
		}
		rows, err := bench.Table2(lengths)
		return bench.FormatTable2(rows), err
	}},
	{"ablations", func(quick bool) (string, error) {
		size := int64(20_000)
		if quick {
			size = 2_000
		}
		var text strings.Builder
		for _, a := range []struct {
			title string
			fn    func(int64) ([]bench.AblationRow, error)
			size  int64
		}{
			{"A1: LATERAL chain vs nested-derived-table rewrite", bench.AblationDialect, size},
			{"A2: SSA optimization passes on/off", bench.AblationSSAOpt, size},
			{"A3: interpreter simple-expression fast path", bench.AblationFastPath, size * 5},
			{"A4: SPI plan cache on/off", bench.AblationPlanCache, size / 4},
			{"A5: WITH RECURSIVE vs WITH ITERATE (run time)", bench.AblationIterate, size},
		} {
			rows, err := a.fn(a.size)
			if err != nil {
				return "", err
			}
			text.WriteString(bench.FormatAblation(a.title, rows) + "\n")
		}
		return text.String(), nil
	}},
}

// heatMap runs one Figure 11 grid.
func heatMap(cfg bench.Fig11Config, quick bool) (string, error) {
	if quick {
		cfg.Invocations = []int64{2, 8, 32, 128}
		cfg.Iterations = []int64{2, 8, 32, 128}
	}
	hm, err := bench.Figure11(cfg)
	if err != nil {
		return "", err
	}
	return bench.FormatHeatMap(hm), nil
}

// selectExperiments resolves -experiment: "all" or a comma-separated list
// of names, in the paper's order. Unknown names are an error that names
// every one of them.
func selectExperiments(list string) ([]experiment, error) {
	want := map[string]bool{}
	for _, name := range strings.Split(list, ",") {
		want[strings.ToLower(strings.TrimSpace(name))] = true
	}
	all := want["all"]
	delete(want, "all")
	var selected []experiment
	var known []string
	for _, x := range experiments {
		if all || want[x.name] {
			selected = append(selected, x)
		}
		delete(want, x.name)
		known = append(known, x.name)
	}
	if len(want) > 0 {
		var unknown []string
		for name := range want {
			unknown = append(unknown, fmt.Sprintf("%q", name))
		}
		sort.Strings(unknown)
		return nil, fmt.Errorf("unknown experiment %s (want all or a list of %s)",
			strings.Join(unknown, ", "), strings.Join(known, ", "))
	}
	return selected, nil
}

func main() {
	list := flag.String("experiment", "all", "all, or a comma-separated list of table1, fig10, fig11a, fig11b, table2, ablations")
	quick := flag.Bool("quick", false, "reduced workload sizes")
	flag.Parse()

	selected, err := selectExperiments(*list)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchrunner: %v\n", err)
		os.Exit(2)
	}
	for _, x := range selected {
		t0 := time.Now()
		text, err := x.run(*quick)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchrunner: %s: %v\n", x.name, err)
			os.Exit(1)
		}
		fmt.Printf("━━━ %s ━━━\n\n%s\n(%s took %s)\n\n", x.name, text, x.name, time.Since(t0).Round(time.Millisecond))
	}
}
