package bench

import (
	"fmt"
	"strings"
)

// FormatTable1 renders the Table 1 breakdown in the paper's layout.
func FormatTable1(rows []Table1Row) string {
	var sb strings.Builder
	sb.WriteString("Table 1: Run time spent (in %) during PL/SQL evaluation.\n")
	sb.WriteString("Exec·Start and Exec·End are f→Qi context switch overhead.\n\n")
	fmt.Fprintf(&sb, "%-12s %11s %10s %10s %8s %8s\n",
		"Function", "Exec·Start", "Exec·Run", "Exec·End", "Interp", "f→Qi")
	sb.WriteString(strings.Repeat("-", 66) + "\n")
	for _, r := range rows {
		fmt.Fprintf(&sb, "%-12s %10.2f%% %9.2f%% %9.2f%% %7.2f%% %8d\n",
			r.Name, r.Start, r.Run, r.End, r.Interp, r.FtoQSwitches)
	}
	return sb.String()
}

// FormatFigure10 renders the Figure 10 series as a table plus the headline
// saving.
func FormatFigure10(points []Fig10Point) string {
	var sb strings.Builder
	sb.WriteString("Figure 10: Iterative vs. recursive — wall clock time for walk()\n")
	sb.WriteString("across varying intra-function iterations (avg of N runs, min/max envelope).\n\n")
	fmt.Fprintf(&sb, "%12s %28s %28s %9s\n", "#iterations", "PL/SQL [ms] (min..max)", "WITH RECURSIVE [ms]", "saving")
	sb.WriteString(strings.Repeat("-", 82) + "\n")
	var sumSaving float64
	for _, p := range points {
		fmt.Fprintf(&sb, "%12d %12.1f (%7.1f..%7.1f) %12.1f (%6.1f..%7.1f) %8.1f%%\n",
			p.Iterations, p.PLMs, p.PLMinMs, p.PLMaxMs, p.RecMs, p.RecMinMs, p.RecMaxMs, p.SavingPct)
		sumSaving += p.SavingPct
	}
	if len(points) > 0 {
		fmt.Fprintf(&sb, "\naverage run time saving: %.1f%% (paper: ≈43%%)\n", sumSaving/float64(len(points)))
	}
	return sb.String()
}

// FormatHeatMap renders Figure 11 in the paper's grid layout: relative run
// time (%) of recursive SQL vs iterative PL/SQL; values < 100 favour SQL,
// blank cells fell below the engine profile's timer resolution.
func FormatHeatMap(hm *HeatMap) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Figure 11 (%s on %s): relative run time (%%) of recursive SQL vs. iterative PL/SQL.\n", hm.Fn, hm.Profile)
	sb.WriteString("Rows: #invocations (Q→f); columns: #iterations (f→Qi). <100 favours SQL.\n\n")
	fmt.Fprintf(&sb, "%11s |", "inv \\ iter")
	for _, it := range hm.Iterations {
		fmt.Fprintf(&sb, "%6d", it)
	}
	sb.WriteString("\n" + strings.Repeat("-", 13+6*len(hm.Iterations)) + "\n")
	for i := len(hm.Invocations) - 1; i >= 0; i-- { // paper draws large counts on top
		fmt.Fprintf(&sb, "%11d |", hm.Invocations[i])
		for j := range hm.Iterations {
			v := hm.Cells[i][j]
			if v < 0 {
				fmt.Fprintf(&sb, "%6s", "·")
			} else {
				fmt.Fprintf(&sb, "%6.0f", v)
			}
		}
		sb.WriteString("\n")
	}
	return sb.String()
}

// FormatTable2 renders the buffer-page-write comparison.
func FormatTable2(rows []Table2Row) string {
	var sb strings.Builder
	sb.WriteString("Table 2: Eliminating buffering effort via WITH ITERATE.\n\n")
	fmt.Fprintf(&sb, "%16s | %s\n", "#Iterations", "#Buffer Page Writes")
	fmt.Fprintf(&sb, "%16s | %14s %16s %16s\n", "(= input length)", "WITH ITERATE", "WITH RECURSIVE", "… lowered: Loop")
	sb.WriteString(strings.Repeat("-", 69) + "\n")
	for _, r := range rows {
		fmt.Fprintf(&sb, "%16d | %14d %16d %16d\n", r.Iterations, r.IterateWrites, r.RecursiveWrites, r.LoopWrites)
	}
	return sb.String()
}
