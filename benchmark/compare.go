package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
)

func readDocument(path string) (*document, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var doc document
	if err := json.Unmarshal(b, &doc); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &doc, nil
}

// iqrShare is the distance between the quartiles of vs as a share of
// their median: the spread measure the benchmark's bounds are held to.
func iqrShare(vs []float64) float64 {
	if len(vs) < 2 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	q := func(p float64) float64 { // linear interpolation between closest ranks
		pos := p * float64(len(s)-1)
		lo := int(pos)
		if lo+1 >= len(s) {
			return s[len(s)-1]
		}
		return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
	}
	if m := median(s); m != 0 {
		return (q(0.75) - q(0.25)) / m
	}
	return 0
}

// worsening is how much worse next is than base as a share of base,
// negative when it is better, by the metric's direction.
func worsening(d metricDef, base, next float64) float64 {
	if base == 0 {
		return 0
	}
	if d.better == "higher" {
		return (base - next) / base
	}
	return (next - base) / base
}

// compareFiles prints one row per (workload, end-to-end metric) and
// returns non-zero when anything is worse than its bound allows or more
// ops failed. Documents that cannot be compared are refused.
func compareFiles(basePath, newPath string, stdout, stderr io.Writer) int {
	base, err := readDocument(basePath)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	next, err := readDocument(newPath)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	for _, d := range []*document{base, next} {
		if d.Quick || d.Degraded || d.Traced {
			fmt.Fprintln(stderr, "refusing to compare: a document is -quick, degraded or traced")
			return 2
		}
	}
	if base.Seed != next.Seed || base.GOMAXPROCS != next.GOMAXPROCS || base.Seconds != next.Seconds {
		fmt.Fprintln(stderr, "refusing to compare: seed, GOMAXPROCS or seconds differ")
		return 2
	}
	byName := map[string]*workloadResult{}
	for i := range next.Workloads {
		byName[next.Workloads[i].Name] = &next.Workloads[i]
	}
	status := 0
	fmt.Fprintf(stdout, "%-14s %-16s %14s %14s %8s %7s  %s\n", "workload", "metric", "base", "new", "delta", "bound", "verdict")
	for i := range base.Workloads {
		b := &base.Workloads[i]
		n, ok := byName[b.Name]
		if !ok {
			continue
		}
		if b.OpsPerRound != n.OpsPerRound {
			fmt.Fprintf(stderr, "refusing to compare %s: op counts differ\n", b.Name)
			return 2
		}
		if n.Failed > b.Failed {
			fmt.Fprintf(stdout, "%-14s failed ops rose from %d to %d\n", b.Name, b.Failed, n.Failed)
			status = 1
		}
		for _, d := range endToEnd {
			bv, nv := b.Metrics[d.name], n.Metrics[d.name]
			w := worsening(d, bv.Value, nv.Value)
			verdict := "same"
			switch {
			case iqrShare(bv.Rounds) > d.bound || iqrShare(nv.Rounds) > d.bound:
				verdict = "unresolved"
			case w > d.bound:
				verdict = "worse"
				status = 1
			case w < -d.bound:
				verdict = "better"
			}
			fmt.Fprintf(stdout, "%-14s %-16s %14.4f %14.4f %+7.1f%% %6.2f%%  %s\n",
				b.Name, d.name, bv.Value, nv.Value, 100*(nv.Value-bv.Value)/bv.Value, 100*d.bound, verdict)
		}
	}
	return status
}

// repeatRuns runs the selected set n times, one process per run, and
// prints min / median / max and (max - min) / median of each end-to-end
// metric, so the bounds are measured rather than guessed.
func repeatRuns(n int, args []string, stdout, stderr io.Writer) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	values := map[string]map[string][]float64{} // workload -> metric -> one value per run
	var order []string
	for run := 0; run < n; run++ {
		path := filepath.Join(outDir, fmt.Sprintf("repeat.%d.json", run))
		cmd := exec.Command(self, append(append([]string(nil), args...), "-repeat", "0", "-out", path)...)
		cmd.Stderr = stderr
		if err := cmd.Run(); err != nil {
			fmt.Fprintf(stderr, "run %d: %v\n", run, err)
			return 1
		}
		doc, err := readDocument(path)
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		for _, r := range doc.Workloads {
			if values[r.Name] == nil {
				values[r.Name] = map[string][]float64{}
				order = append(order, r.Name)
			}
			for name, mv := range r.Metrics {
				values[r.Name][name] = append(values[r.Name][name], mv.Value)
			}
		}
	}
	fmt.Fprintf(stdout, "%-14s %-16s %14s %14s %14s %9s %9s\n", "workload", "metric", "min", "median", "max", "range/med", "iqr/med")
	for _, wl := range order {
		for _, d := range endToEnd {
			vs := append([]float64(nil), values[wl][d.name]...)
			if len(vs) == 0 {
				continue
			}
			sort.Float64s(vs)
			med := median(vs)
			fmt.Fprintf(stdout, "%-14s %-16s %14.4f %14.4f %14.4f %8.1f%% %8.1f%%\n",
				wl, d.name, vs[0], med, vs[len(vs)-1], 100*(vs[len(vs)-1]-vs[0])/med, 100*iqrShare(vs))
		}
	}
	return 0
}
