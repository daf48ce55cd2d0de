package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// manifest mirrors BENCHMARK.json.
type manifest struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []manifestMetric `json:"end_to_end"`
	PerLayer []manifestMetric `json:"per_layer"`
}

type manifestMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func readManifest(t *testing.T) manifest {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var m manifest
	if err := json.Unmarshal(b, &m); err != nil {
		t.Fatal(err)
	}
	return m
}

// quickRun runs the binary's entry point in-process at -quick sizes and
// returns its exit code, the document it wrote and its last stdout line.
func quickRun(t *testing.T, extra ...string) (int, document, string) {
	t.Helper()
	out := filepath.Join(t.TempDir(), "doc.json")
	var stdout, stderr bytes.Buffer
	// The shortest run there is: -seconds only adds rounds past the minimum.
	code := realMain(append([]string{"-quick", "-seconds", "0.001", "-out", out}, extra...), &stdout, &stderr)
	var doc document
	if b, err := os.ReadFile(out); err == nil {
		if err := json.Unmarshal(b, &doc); err != nil {
			t.Fatal(err)
		}
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	return code, doc, lines[len(lines)-1]
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// TestNamesMatchManifest: every workload reports exactly the declared
// metrics, under the declared names and units, with no failed op.
func TestNamesMatchManifest(t *testing.T) {
	m := readManifest(t)
	if len(m.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the binary has %d", len(m.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if m.Workloads[i].Name != w.name || m.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q / %q, the binary %q / %q", i, m.Workloads[i].Name, m.Workloads[i].Why, w.name, w.why)
		}
	}
	for _, mode := range []struct {
		trace    string
		declared []manifestMetric
		defs     []metricDef
	}{{"0", m.EndToEnd, endToEnd}, {"1", m.PerLayer, perLayer}} {
		if len(mode.declared) != len(mode.defs) {
			t.Fatalf("trace %s: BENCHMARK.json declares %d metrics, the binary %d", mode.trace, len(mode.declared), len(mode.defs))
		}
		for i, d := range mode.defs {
			got := mode.declared[i]
			if got.Name != d.name || got.Unit != d.unit || got.Better != d.better || got.Bound != d.bound {
				t.Errorf("trace %s metric %d: BENCHMARK.json has %+v, the binary %+v", mode.trace, i, got, d)
			}
			if !nameRE.MatchString(d.name) {
				t.Errorf("metric name %q is outside the allowed alphabet", d.name)
			}
		}
		code, doc, _ := quickRun(t, "-trace", mode.trace)
		if code != 0 {
			t.Fatalf("trace %s: exit code %d", mode.trace, code)
		}
		if len(doc.Workloads) != len(workloads) {
			t.Fatalf("trace %s: %d workloads in the document", mode.trace, len(doc.Workloads))
		}
		for _, r := range doc.Workloads {
			if !nameRE.MatchString(r.Name) {
				t.Errorf("workload name %q is outside the allowed alphabet", r.Name)
			}
			if !r.Correct || r.Failed != 0 || r.Attempted == 0 {
				t.Errorf("trace %s %s: correct=%v attempted=%d failed=%d: %s", mode.trace, r.Name, r.Correct, r.Attempted, r.Failed, r.Error)
			}
			if len(r.Metrics) != len(mode.defs) {
				t.Errorf("trace %s %s: %d metrics emitted, %d declared", mode.trace, r.Name, len(r.Metrics), len(mode.defs))
			}
			for _, d := range mode.defs {
				mv, ok := r.Metrics[d.name]
				if !ok || mv.Unit != d.unit {
					t.Errorf("trace %s %s: metric %s missing or in unit %q", mode.trace, r.Name, d.name, mv.Unit)
				}
				if mode.trace == "0" && !(mv.Value > 0) {
					t.Errorf("%s: end-to-end metric %s = %v, must never be 0", r.Name, d.name, mv.Value)
				}
			}
		}
	}
}

// TestWrongReferenceFails: the checker must notice a reference that is
// deliberately wrong, on every workload, and the process must say so.
func TestWrongReferenceFails(t *testing.T) {
	for _, w := range workloads {
		code, _, last := quickRun(t, "-workload", w.name, "-wrongref")
		var line struct {
			Correct bool `json:"correct"`
			Failed  int  `json:"failed"`
		}
		if err := json.Unmarshal([]byte(last), &line); err != nil {
			t.Fatalf("%s: last line %q: %v", w.name, last, err)
		}
		if code == 0 || line.Correct || line.Failed == 0 {
			t.Errorf("%s: wrong reference went unnoticed: exit %d, correct %v, failed %d", w.name, code, line.Correct, line.Failed)
		}
	}
}

// TestParseAnalyze: self times are non-negative and add up to the root's
// inclusive time; lines that are not operators are ignored.
func TestParseAnalyze(t *testing.T) {
	nodes := parseAnalyze([]string{
		"Plan (nodes=6 inlined=1 specialized=0)",
		"CTE r [0] recursive",
		"Project [#0]  (actual rows=1 batches=1 time=20ms)",
		"  Agg [count(#6)]  (actual rows=1 batches=1 time=19ms)",
		"    HashJoin (left, keys [#1] = [#1])  (actual rows=20000 batches=79 build=25 time=15.5ms)",
		"      SeqScan probes  (actual rows=20000 batches=79 time=96µs)",
		"      Project [#1, #0]  (actual rows=25 batches=1 time=4µs)",
		"        SeqScan policy  (actual rows=25 batches=1 time=0s)",
		"some line a later version might add",
		"Execution: rows=1 time=20.1ms",
	})
	if len(nodes) != 6 {
		t.Fatalf("parsed %d operator lines, want 6", len(nodes))
	}
	var sum float64
	for _, n := range nodes {
		if n.selfMs < 0 {
			t.Errorf("%s: negative self time %v", n.kind, n.selfMs)
		}
		sum += n.selfMs
	}
	if math.Abs(sum-nodes[0].inclMs) > 1e-9 {
		t.Errorf("self times sum to %v ms, root inclusive time is %v ms", sum, nodes[0].inclMs)
	}
	if nodes[2].kind != "HashJoin" || nodes[2].rows != 20000 || nodes[2].batches != 79 {
		t.Errorf("HashJoin line parsed as %+v", nodes[2])
	}
}

// TestExactCountersRepeat: the same seed gives the same exact counts, and
// the two independent measurements of emitted SQL size agree.
func TestExactCountersRepeat(t *testing.T) {
	exact := []string{"cfg.blocks", "ssa.instrs", "anf.funs", "sqlgen.sql_bytes", "plinterp.ctx_switches", "storage.tuples_written"}
	single := "udf_compiled,udf_interp,inline_scan" // one session each, so counts cannot race
	_, a, _ := quickRun(t, "-trace", "1", "-workload", single)
	_, b, _ := quickRun(t, "-trace", "1", "-workload", single)
	if len(a.Workloads) != 3 || len(b.Workloads) != 3 {
		t.Fatalf("%d and %d workloads in the documents", len(a.Workloads), len(b.Workloads))
	}
	for i := range a.Workloads {
		for _, name := range exact {
			va, vb := a.Workloads[i].Metrics[name].Value, b.Workloads[i].Metrics[name].Value
			if va != vb {
				t.Errorf("%s %s: %v then %v", a.Workloads[i].Name, name, va, vb)
			}
		}
	}
	_, u, _ := quickRun(t, "-workload", "udf_compiled")
	if got, want := u.Workloads[0].Metrics["sql_bytes"].Value, a.Workloads[0].Metrics["sqlgen.sql_bytes"].Value; got != want || got == 0 {
		t.Errorf("sql_bytes = %v from plsqlaway.Compile, %v from the staged pipeline", got, want)
	}
}

// TestCompareVerdicts: a document compared with itself is all "same";
// one with a slower median is "worse" and exits non-zero; -quick
// documents are refused.
func TestCompareVerdicts(t *testing.T) {
	mk := func(ops float64, quick bool) string {
		doc := document{GOMAXPROCS: 2, Seed: 42, Seconds: 10, Quick: quick, Workloads: []workloadResult{{
			Name: "udf_compiled", OpsPerRound: 400, Correct: true, Attempted: 400, Metrics: map[string]metricValue{}}}}
		for _, d := range endToEnd {
			doc.Workloads[0].Metrics[d.name] = metricValue{Value: 100, Unit: d.unit}
		}
		doc.Workloads[0].Metrics["ops_per_s"] = metricValue{Value: ops, Unit: "1/s", Rounds: []float64{ops, ops, ops}}
		path := filepath.Join(t.TempDir(), "doc.json")
		if err := writeJSON(path, &doc); err != nil {
			t.Fatal(err)
		}
		return path
	}
	var stdout, stderr bytes.Buffer
	if code := compareFiles(mk(100, false), mk(100, false), &stdout, &stderr); code != 0 || strings.Contains(stdout.String(), "worse") {
		t.Errorf("identical documents: exit %d\n%s", code, stdout.String())
	}
	stdout.Reset()
	if code := compareFiles(mk(100, false), mk(50, false), &stdout, &stderr); code == 0 || !strings.Contains(stdout.String(), "worse") {
		t.Errorf("half the ops/s: exit %d\n%s", code, stdout.String())
	}
	if code := compareFiles(mk(100, true), mk(100, false), &stdout, &stderr); code != 2 {
		t.Errorf("-quick document: exit %d, want refusal", code)
	}
}
