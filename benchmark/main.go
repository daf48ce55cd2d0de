// Command benchmark is the one benchmark for the whole stack: six named
// workloads, end-to-end metrics taken untraced, and per-layer metrics
// taken in a separate traced run. See README.md for what each workload
// and metric is for, and BENCHMARK.json for the contract it is run under.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"time"

	"plsqlaway"
	"plsqlaway/internal/obs"
	"plsqlaway/internal/storage"
)

const (
	defaultSeed    = 42
	defaultSeconds = 10
	setupReps      = 5 // setup_s is the median of this many full set-ups
	outDir         = "out"
)

var workloads = []*workloadDef{&udfCompiled, &udfInterp, &inlineScan, &remotePoint, &remoteStream, &writeDurable}

// metricValue is one reported metric. Rounds lists the per-round (or
// per-repetition) values Value is the median of. A timing's Value is at
// the reference machine speed (calibrate.go); Raw is the same median as
// the clock read it.
type metricValue struct {
	Value   float64   `json:"value"`
	Unit    string    `json:"unit"`
	Raw     float64   `json:"raw,omitempty"`
	Samples int       `json:"samples,omitempty"`
	Rounds  []float64 `json:"rounds,omitempty"`
}

type workloadResult struct {
	Name           string                 `json:"name"`
	Clients        int                    `json:"clients"`
	Loop           string                 `json:"loop"`
	OpsPerRound    int                    `json:"ops_per_round"`
	TailPercentile float64                `json:"tail_percentile"`
	Rounds         int                    `json:"rounds"`
	QuietRounds    int                    `json:"quiet_rounds"`  // the rounds the medians are taken over
	MachineSpeed   float64                `json:"machine_speed"` // median over those rounds; 1 is the reference (calibrate.go)
	Correct        bool                   `json:"correct"`
	Attempted      int                    `json:"attempted"`
	Failed         int                    `json:"failed"`
	Error          string                 `json:"error,omitempty"`
	Metrics        map[string]metricValue `json:"metrics"`
}

// document is one whole run: what -out writes and -compare reads.
type document struct {
	Commit     string           `json:"commit"`
	GoVersion  string           `json:"go_version"`
	Cores      int              `json:"cores"`
	GOMAXPROCS int              `json:"gomaxprocs"`
	Degraded   bool             `json:"degraded"` // fewer than 2 cores: not comparable
	Quick      bool             `json:"quick"`    // smoke-test sizes: not comparable
	Traced     bool             `json:"traced"`
	Seed       uint64           `json:"seed"`
	Seconds    float64          `json:"seconds"`
	SyncMode   string           `json:"write_durable_sync_mode"`
	Workloads  []workloadResult `json:"workloads"`
}

func main() { os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr)) }

func realMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		names    = fs.String("workload", "all", "comma-separated workload names, or all")
		seed     = fs.Uint64("seed", defaultSeed, "seed the op schedules and data are generated from")
		seconds  = fs.Float64("seconds", defaultSeconds, "timed seconds per workload")
		trace    = fs.Int("trace", 0, "0: end-to-end metrics, untraced; 1: per-layer metrics from a traced run")
		quick    = fs.Bool("quick", false, "smoke-test sizes; results are not comparable")
		out      = fs.String("out", "", "also write the whole document to this file")
		repeat   = fs.Int("repeat", 0, "run the set N times, one process per run, and print each metric's spread")
		compare  = fs.Bool("compare", false, "compare two documents: -compare BASE.json NEW.json")
		wrongRef = fs.Bool("wrongref", false, "corrupt one reference per workload (checker self-test)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "usage: -compare BASE.json NEW.json")
			return 2
		}
		return compareFiles(fs.Arg(0), fs.Arg(1), stdout, stderr)
	}
	var selected []*workloadDef
	for _, n := range strings.Split(*names, ",") {
		found := false
		for _, w := range workloads {
			if n == "all" || n == w.name {
				selected = append(selected, w)
				found = true
			}
		}
		if !found {
			fmt.Fprintf(stderr, "unknown workload %q\n", n)
			return 2
		}
	}
	if *repeat > 0 {
		return repeatRuns(*repeat, args, stdout, stderr)
	}

	// Everything the run writes stays under ./out, temp files included
	// (tuplestore spills, data directories).
	tmp, err := filepath.Abs(filepath.Join(outDir, "tmp"))
	if err == nil {
		err = os.MkdirAll(tmp, 0o755)
	}
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	defer os.Setenv("TMPDIR", os.Getenv("TMPDIR"))
	os.Setenv("TMPDIR", tmp)
	defer os.RemoveAll(tmp)

	doc := document{Commit: commit(), GoVersion: runtime.Version(), Cores: runtime.NumCPU(), GOMAXPROCS: 2,
		Quick: *quick, Traced: *trace != 0, Seed: *seed, Seconds: *seconds, SyncMode: "batched"}
	if doc.Cores < 2 {
		doc.GOMAXPROCS, doc.Degraded = 1, true
	}
	runtime.GOMAXPROCS(doc.GOMAXPROCS)
	cfg := &config{seed: *seed, seconds: *seconds, quick: *quick, wrongRef: *wrongRef}
	for _, w := range selected {
		var res workloadResult
		if doc.Traced {
			res = runTraced(w, cfg)
		} else {
			res = runUntraced(w, cfg)
		}
		if res.Error != "" {
			fmt.Fprintf(stderr, "%s: %s\n", w.name, res.Error)
		}
		doc.Workloads = append(doc.Workloads, res)
	}
	printTable(stdout, &doc)
	if *out != "" {
		if err := writeJSON(*out, &doc); err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
	}
	return printContractLine(stdout, &doc)
}

// commit reads the revision the binary was built from, when the build
// happened inside a git checkout.
func commit() string {
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// newResult fills the fields that describe the workload itself.
func newResult(w *workloadDef, ops int) workloadResult {
	return workloadResult{Name: w.name, Clients: w.clients, Loop: "closed", OpsPerRound: ops,
		TailPercentile: w.tailPct, Metrics: map[string]metricValue{}}
}

func (w *workloadDef) ops(c *config) int { return c.scale(w.opsPerRound, w.quickOps) }

// fail marks the run as incorrect for a reason that is not a failed op
// (set-up, reference or final check) and returns the result as it stands.
func (res *workloadResult) fail(err error) workloadResult {
	res.Error = err.Error()
	res.Attempted, res.Failed = max(res.Attempted, 1), max(res.Failed, 1)
	return *res
}

// put stores a metric under its declared unit.
func (res *workloadResult) put(name string, mv metricValue) {
	mv.Unit = unitOf[name]
	res.Metrics[name] = mv
}

// tally folds the timed rounds' op counts and first failure into res.
func (res *workloadResult) tally(rounds []roundStats) {
	res.Rounds = len(rounds)
	res.MachineSpeed = perRound(rounds, func(r *roundStats) float64 { return r.speed }).Value
	keep := quiet(rounds)
	for i, r := range rounds {
		if keep[i] {
			res.QuietRounds++
		}
		res.Attempted += r.attempted
		res.Failed += r.failed
		if res.Error == "" && r.firstErr != nil {
			res.Error = r.firstErr.Error()
		}
	}
}

// perRound maps each timed round to one number and reports the median
// over the run's quiet rounds.
func perRound(rounds []roundStats, f func(r *roundStats) float64) metricValue {
	var mv metricValue
	var kept []float64
	keep := quiet(rounds)
	for i := range rounds {
		v := f(&rounds[i])
		mv.Rounds = append(mv.Rounds, v)
		if keep[i] {
			kept = append(kept, v)
			mv.Samples += len(rounds[i].latMs)
		}
	}
	mv.Value = median(kept)
	return mv
}

// timing is perRound for a duration f reads off the clock: every round's
// value is scaled to the reference machine speed by that round's own
// calibration samples.
func timing(rounds []roundStats, f func(r *roundStats) float64) metricValue {
	mv := perRound(rounds, func(r *roundStats) float64 { return f(r) * r.speed })
	mv.Raw = perRound(rounds, f).Value
	return mv
}

// opsPerSecond is a round's throughput at the reference machine speed.
func opsPerSecond(r *roundStats) float64 { return r.opsPerS / r.speed }

func throughput(rounds []roundStats) metricValue {
	mv := perRound(rounds, opsPerSecond)
	mv.Raw = perRound(rounds, func(r *roundStats) float64 { return r.opsPerS }).Value
	return mv
}

// runUntraced takes the end-to-end metrics: no registry, no spans.
func runUntraced(w *workloadDef, c *config) workloadResult {
	ops := w.ops(c)
	res := newResult(w, ops)
	compile := compileProbe{reps: c.scale(compileBatch, 5)}
	var err error
	var inst instance
	var setups metricValue
	var rawSetups []float64
	reps := c.scale(setupReps, 1)
	for i := 0; i < reps; i++ {
		if inst != nil {
			inst.close()
		}
		runtime.GC()
		cal := []time.Duration{calibrate(), calibrate()}
		t0 := time.Now()
		if inst, err = w.setup(c, ops, nil); err != nil {
			return res.fail(fmt.Errorf("setup: %w", err))
		}
		d := time.Since(t0).Seconds()
		cal = append(cal, calibrate(), calibrate())
		rawSetups = append(rawSetups, d)
		setups.Rounds = append(setups.Rounds, d*machineSpeed(cal))
	}
	defer inst.close()
	setups.Value, setups.Raw, setups.Samples = median(setups.Rounds), median(rawSetups), reps
	if err := inst.prepare(); err != nil {
		return res.fail(fmt.Errorf("prepare: %w", err))
	}
	timedRound(inst, w.clients, nil)        // warm-up: plan cache, heap row cache
	if err := compile.batch(); err != nil { // warm-up for the compiler too
		return res.fail(err)
	}
	compile.ms, compile.rawMs = nil, nil
	rounds := runRounds(inst, w.clients, c.seconds, nil, func() {
		if cerr := compile.batch(); cerr != nil && err == nil {
			err = cerr
		}
	})
	if err != nil {
		return res.fail(err)
	}
	res.tally(rounds)
	if err := inst.finish(); err != nil {
		return res.fail(fmt.Errorf("final check: %w", err))
	}
	res.Correct = res.Failed == 0
	res.put("setup_s", setups)
	res.put("ops_per_s", throughput(rounds))
	res.put("op_p50_ms", timing(rounds, func(r *roundStats) float64 { return percentile(r.latMs, 50) }))
	res.put("op_tail_ms", timing(rounds, func(r *roundStats) float64 { return percentile(r.latMs, w.tailPct) }))
	res.put("alloc_kb_per_op", perRound(rounds, func(r *roundStats) float64 {
		return float64(r.allocBytes) / 1024 / float64(r.attempted)
	}))
	res.put("peak_heap_mb", perRound(rounds, func(r *roundStats) float64 { return float64(r.peakHeap) / (1 << 20) }))
	res.put("compile_ms", metricValue{Value: median(compile.ms), Raw: median(compile.rawMs), Samples: len(compile.ms)})
	res.put("sql_bytes", metricValue{Value: float64(compile.sqlBytes), Samples: 1})
	return res
}

// runTraced takes the per-layer metrics. Half the time goes to untraced
// rounds on a plain engine, half to rounds with the metrics registry
// attached and a span around every call into a layer; the difference in
// throughput is trace.overhead_pct.
func runTraced(w *workloadDef, c *config) workloadResult {
	ops := w.ops(c)
	res := newResult(w, ops)
	start := func(reg *obs.Registry) (instance, error) {
		inst, err := w.setup(c, ops, reg)
		if err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		if err := inst.prepare(); err != nil {
			inst.close()
			return nil, fmt.Errorf("prepare: %w", err)
		}
		timedRound(inst, w.clients, nil)
		return inst, nil
	}
	plain, err := start(nil)
	if err != nil {
		return res.fail(err)
	}
	base := perRound(runRounds(plain, w.clients, c.seconds/2, nil, nil), opsPerSecond).Value
	plain.close()

	reg := obs.NewRegistry()
	tr := newTracer(w.name)
	inst, err := start(reg)
	if err != nil {
		return res.fail(err)
	}
	defer inst.close()
	sess := inst.engine().NewSession()
	before := readCounters(inst, sess, reg)
	rounds := runRounds(inst, w.clients, c.seconds/2, tr, nil)
	after := readCounters(inst, sess, reg)
	res.tally(rounds)
	if err := inst.finish(); err != nil {
		return res.fail(fmt.Errorf("final check: %w", err))
	}
	res.Correct = res.Failed == 0

	m := map[string]float64{}
	traced := perRound(rounds, opsPerSecond).Value
	m["trace.overhead_pct"] = 100 * (base - traced) / base
	after.deltas(&before, float64(res.Attempted), m)
	_, _, fsyncP50 := regHistogram(reg, "plsql_wal_fsync_seconds")
	m["wal.fsync_p50_ms"] = 1e3 * fsyncP50
	for _, probe := range []func() error{
		func() error { return probePipeline(tr, m) },
		func() error { return probeStatements(tr, sess, inst.statements(), m) },
		func() error { return probeExec(tr, sess, inst.statements(), m) },
		func() error { probeStorage(tr, m); return nil },
		func() error { return probeWAL(tr, m) },
		func() error { return probeWire(tr, m) },
	} {
		if err := probe(); err != nil {
			return res.fail(err)
		}
	}
	inst.layer(m, traced)
	for _, d := range perLayer {
		res.put(d.name, metricValue{Value: m[d.name]})
	}
	if err := writeTrace(tr); err != nil {
		return res.fail(err)
	}
	return res
}

// counters is every cumulative count the traced run takes deltas of.
type counters struct {
	storage                         storage.StatsSnapshot
	hits, misses                    int64
	inlined, specialized, evictions int64
	reg                             map[string]float64
	mem                             runtime.MemStats
}

// registryCounters maps per-layer metric names to the registry series
// (family, label) they are deltas of, per op.
var registryCounters = map[string][2]string{
	"engine.phase_parse_ns":  {"plsql_engine_phase_ns_total", "parse"},
	"engine.phase_plan_ns":   {"plsql_engine_phase_ns_total", "plan"},
	"engine.phase_exec_ns":   {"plsql_engine_phase_ns_total", "exec"},
	"engine.phase_commit_ns": {"plsql_engine_phase_ns_total", "commit"},
	"server.frames_in":       {"plsql_server_frames_in_total", ""},
	"server.frames_out":      {"plsql_server_frames_out_total", ""},
	"server.bytes_out":       {"plsql_server_bytes_out_total", ""},
}

func readCounters(inst instance, sess *plsqlaway.Session, reg *obs.Registry) counters {
	c := counters{storage: inst.engine().StorageStats().Snapshot(), reg: map[string]float64{}}
	c.hits, c.misses = sess.PlanCacheStats()
	c.inlined, c.specialized, c.evictions = sess.PlanStats()
	for name, series := range registryCounters {
		c.reg[name] = regSum(reg, series[0], series[1])
	}
	c.reg["engine.conflicts"] = regSum(reg, "plsql_engine_serialization_conflicts_total", "")
	c.reg["stmt_count"], c.reg["stmt_seconds"], _ = regHistogram(reg, "plsql_engine_statement_seconds")
	runtime.ReadMemStats(&c.mem)
	return c
}

// deltas writes what changed between two readings: storage, WAL, phase
// and server counts per op; plan-cache and GC figures for the window.
func (c *counters) deltas(b *counters, ops float64, m map[string]float64) {
	perOp := func(name string, after, before int64) { m[name] = float64(after-before) / ops }
	perOp("storage.tuples_written", c.storage.TuplesWritten, b.storage.TuplesWritten)
	perOp("storage.page_writes", c.storage.PageWrites, b.storage.PageWrites)
	perOp("storage.bytes_written", c.storage.BytesWritten, b.storage.BytesWritten)
	perOp("storage.commits", c.storage.Commits, b.storage.Commits)
	perOp("storage.vacuums", c.storage.Vacuums, b.storage.Vacuums)
	perOp("storage.versions_reclaimed", c.storage.VersionsReclaimed, b.storage.VersionsReclaimed)
	perOp("wal.records", c.storage.WALRecords, b.storage.WALRecords)
	perOp("wal.bytes", c.storage.WALBytes, b.storage.WALBytes)
	perOp("wal.fsyncs", c.storage.WALFsyncs, b.storage.WALFsyncs)
	if f := c.storage.WALFsyncs - b.storage.WALFsyncs; f > 0 {
		m["wal.records_per_fsync"] = float64(c.storage.WALRecords-b.storage.WALRecords) / float64(f)
	}
	m["wal.checkpoints"] = float64(c.storage.Checkpoints - b.storage.Checkpoints)
	for name := range registryCounters {
		m[name] = (c.reg[name] - b.reg[name]) / ops
	}
	m["engine.conflicts"] = c.reg["engine.conflicts"] - b.reg["engine.conflicts"]
	if n := c.reg["stmt_count"] - b.reg["stmt_count"]; n > 0 {
		m["engine.stmt_us"] = 1e6 * (c.reg["stmt_seconds"] - b.reg["stmt_seconds"]) / n
	}
	if lookups := c.hits - b.hits + c.misses - b.misses; lookups > 0 {
		m["plan.cache_hit_ratio"] = float64(c.hits-b.hits) / float64(lookups)
	}
	// Plans are built once, before the timed window, so these three are
	// totals for the engine's life, not deltas.
	m["plan.inlined"], m["plan.specialized"], m["plan.evictions"] = float64(c.inlined), float64(c.specialized), float64(c.evictions)
	m["go.num_gc"] = float64(c.mem.NumGC - b.mem.NumGC)
	m["go.gc_pause_ms"] = float64(c.mem.PauseTotalNs-b.mem.PauseTotalNs) / 1e6
}

// writeTrace writes the run's spans, with self time per span name.
func writeTrace(tr *tracer) error {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	return writeJSON(filepath.Join(outDir, "trace."+tr.workload+".json"), struct {
		Workload string                   `json:"workload"`
		SelfNS   map[string]time.Duration `json:"self_ns_by_name"`
		Spans    []span                   `json:"spans"`
	}{tr.workload, selfTimes(tr.spans), tr.spans})
}

// printTable prints every metric by name with its unit and sample count.
func printTable(w io.Writer, doc *document) {
	fmt.Fprintf(w, "commit %s  %s  cores %d  GOMAXPROCS %d  seed %d  seconds %g  quick %v  degraded %v  traced %v\n",
		doc.Commit, doc.GoVersion, doc.Cores, doc.GOMAXPROCS, doc.Seed, doc.Seconds, doc.Quick, doc.Degraded, doc.Traced)
	defs := endToEnd
	if doc.Traced {
		defs = perLayer
	}
	p50 := map[string]float64{}
	for _, r := range doc.Workloads {
		fmt.Fprintf(w, "\n%s  clients %d  %s loop  %d ops/round  %d rounds (%d quiet)  machine speed %.3f  attempted %d  failed %d  correct %v\n",
			r.Name, r.Clients, r.Loop, r.OpsPerRound, r.Rounds, r.QuietRounds, r.MachineSpeed, r.Attempted, r.Failed, r.Correct)
		for _, d := range defs {
			mv, ok := r.Metrics[d.name]
			switch {
			case !ok:
			case mv.Samples > 0:
				fmt.Fprintf(w, "  %-30s %16.4f %-6s samples %d\n", d.name, mv.Value, mv.Unit, mv.Samples)
			default:
				fmt.Fprintf(w, "  %-30s %16.4f %s\n", d.name, mv.Value, mv.Unit)
			}
		}
		p50[r.Name] = r.Metrics["op_p50_ms"].Value
	}
	if c, i := p50["udf_compiled"], p50["udf_interp"]; c > 0 && i > 0 {
		fmt.Fprintf(w, "\nudf_interp.op_p50_ms / udf_compiled.op_p50_ms = %.2f (the paper's headline ratio; printed, not gated)\n", i/c)
	}
}

// printContractLine prints the run's last line: one JSON object with
// correct, attempted, failed and metrics. With one workload the metrics
// carry their declared names; with several, <workload>.<metric>.
func printContractLine(w io.Writer, doc *document) int {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{Correct: true, Metrics: map[string]value{}}
	for _, r := range doc.Workloads {
		line.Correct = line.Correct && r.Correct
		line.Attempted += r.Attempted
		line.Failed += r.Failed
		for name, mv := range r.Metrics {
			if len(doc.Workloads) > 1 {
				name = r.Name + "." + name
			}
			line.Metrics[name] = value{mv.Value, mv.Unit}
		}
	}
	b, _ := json.Marshal(line)
	fmt.Fprintf(w, "%s\n", b)
	if !line.Correct {
		return 1
	}
	return 0
}
