package main

import (
	"fmt"
	"os"
	"regexp"
	"runtime"
	"strconv"
	"strings"
	"time"

	"plsqlaway"
	"plsqlaway/internal/anf"
	"plsqlaway/internal/cfg"
	"plsqlaway/internal/obs"
	"plsqlaway/internal/plan"
	"plsqlaway/internal/plast"
	"plsqlaway/internal/plparser"
	"plsqlaway/internal/sqlast"
	"plsqlaway/internal/sqlgen"
	"plsqlaway/internal/sqlparser"
	"plsqlaway/internal/ssa"
	"plsqlaway/internal/storage"
	"plsqlaway/internal/udf"
	"plsqlaway/internal/wal"
	"plsqlaway/internal/wire"
	"plsqlaway/internal/workload"
)

// Per-layer measurement from outside: each probe times calls into one
// layer's public functions. Spans inside the program are a later issue.

func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }
func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// compileBatch is how many compilations run before each round; compile_ms
// is the median over all of a run's batches. Spreading the samples over
// the run keeps one noisy second on a shared machine from deciding it.
const compileBatch = 40

// compileProbe measures what every workload's set-up depends on, the
// compiler: wall time of plsqlaway.Compile over the four corpus
// functions and the exact size of the SQL it emits.
type compileProbe struct {
	reps      int       // compilations per batch
	ms, rawMs []float64 // per compilation: at the reference machine speed, and as the clock read it
	sqlBytes  int
}

func (p *compileProbe) batch() error {
	// Start from a collected heap, so whether a GC cycle runs beside the
	// batch depends on the batch, not on what the last round left behind.
	runtime.GC()
	cal := []time.Duration{calibrate()}
	first := len(p.rawMs)
	for rep := 0; rep < p.reps; rep++ {
		p.sqlBytes = 0
		t0 := time.Now()
		for _, name := range quartet {
			res, err := plsqlaway.Compile(workload.Corpus[name], plsqlaway.Options{})
			if err != nil {
				return fmt.Errorf("compile %s: %w", name, err)
			}
			p.sqlBytes += len(res.SQL)
		}
		p.rawMs = append(p.rawMs, ms(time.Since(t0)))
		if rep%5 == 4 {
			cal = append(cal, calibrate())
		}
	}
	speed := machineSpeed(cal)
	for _, raw := range p.rawMs[first:] {
		p.ms = append(p.ms, raw*speed)
	}
	return nil
}

// pipelineStages names the compiler's stages in pipeline order.
var pipelineStages = []string{"sqlparser.fn_parse", "plparser.parse", "cfg.build", "ssa.build",
	"ssa.optimize", "anf.build", "udf.build", "sqlgen.emit"}

// probePipeline runs the stages one by one on each corpus function.
// Times are medians per stage, sizes the IR after each pass; both are
// summed over the four functions.
func probePipeline(tr *tracer, m map[string]float64) error {
	const reps = 30
	for _, name := range quartet {
		src := workload.Corpus[name]
		times := make([][]time.Duration, len(pipelineStages))
		var (
			st  sqlast.Statement
			fn  *plast.Function
			g   *cfg.Graph
			s   *ssa.Func
			a   *anf.Program
			d   *udf.Definition
			q   *sqlast.Query
			err error
		)
		stages := []func(){
			func() { st, err = sqlparser.ParseStatement(src) },
			func() {
				if cf, ok := st.(*sqlast.CreateFunction); ok {
					fn, err = plparser.ParseFunction(cf)
				} else {
					err = fmt.Errorf("not a CREATE FUNCTION")
				}
			},
			func() { g, err = cfg.Build(fn) },
			func() { s, err = ssa.Build(g) },
			func() { err = ssa.Optimize(s) },
			func() { a, err = anf.Build(s) },
			func() { d, err = udf.Build(a, udf.DialectPostgres) },
			func() { q, err = sqlgen.Emit(d, sqlgen.Options{}) },
		}
		for rep := 0; rep < reps; rep++ {
			for i, stage := range stages {
				times[i] = append(times[i], tr.timed(pipelineStages[i], stage))
				if err != nil {
					return fmt.Errorf("%s on %s: %w", pipelineStages[i], name, err)
				}
			}
		}
		for i, stage := range pipelineStages {
			m[stage+"_us"] += us(medianDur(times[i]))
		}
		m["cfg.blocks"] += float64(len(g.Blocks))
		for _, b := range s.Blocks {
			if b != nil {
				m["ssa.instrs"] += float64(len(b.Phis) + len(b.Instrs))
			}
		}
		m["anf.funs"] += float64(len(a.Funs))
		m["sqlgen.sql_bytes"] += float64(len(sqlast.DeparseQuery(q)))
	}
	return nil
}

// probeStatements parses and plans each of the workload's statement
// texts: the work a plan-cache hit saves.
func probeStatements(tr *tracer, sess *plsqlaway.Session, stmts []stmt, m map[string]float64) error {
	const reps = 30
	var parse, build []time.Duration
	for _, st := range stmts {
		var parsed sqlast.Statement
		var err error
		var ps, bs []time.Duration
		for rep := 0; rep < reps; rep++ {
			ps = append(ps, tr.timed("sqlparser.parse", func() { parsed, err = sqlparser.ParseStatement(st.sql) }))
			if err != nil {
				return fmt.Errorf("parse %q: %w", st.sql, err)
			}
			sel, ok := parsed.(*sqlast.SelectStatement)
			if !ok {
				continue // DML has no plan.Build entry point
			}
			bs = append(bs, tr.timed("plan.build", func() { _, err = plan.Build(sess.Catalog(), sel.Query, plan.Options{}) }))
			if err != nil {
				return fmt.Errorf("plan %q: %w", st.sql, err)
			}
		}
		parse = append(parse, medianDur(ps))
		if len(bs) > 0 {
			build = append(build, medianDur(bs))
		}
	}
	m["sqlparser.stmt_parse_us"] = us(medianDur(parse))
	m["plan.build_us"] = us(medianDur(build))
	return nil
}

// probeStorage times a standalone heap: committing a fixed batch, and
// the first chunked scan of a heap nobody has read yet, which is the scan
// that decodes pages (later scans of an unchanged heap reuse its rows).
func probeStorage(tr *tracer, m map[string]float64) {
	const (
		batch    = 100
		commits  = 200
		scanReps = 10
	)
	row := func(i int) storage.Tuple {
		return storage.Tuple{plsqlaway.Int(int64(i)), plsqlaway.Float(float64(i) / 2), plsqlaway.Text(fmt.Sprintf("row-%08d", i))}
	}
	var commitTimes, scans []time.Duration
	rows := 0
	for rep := 0; rep < scanReps; rep++ {
		h := storage.NewHeap(&storage.Stats{})
		for c := 0; c < commits; c++ {
			added := make([]storage.Tuple, batch)
			for i := range added {
				added[i] = row(c*batch + i)
			}
			d := tr.timed("storage.heap_commit", func() { h.Commit(nil, added, int64(c+1)) })
			if rep == 0 {
				commitTimes = append(commitTimes, d)
			}
		}
		scans = append(scans, tr.timed("storage.scan", func() {
			sc, err := h.ScannerAt(storage.AllVisible)
			if err != nil {
				return
			}
			rows = 0
			for chunk := sc.NextChunk(1024); chunk != nil; chunk = sc.NextChunk(1024) {
				rows += len(chunk)
			}
		}))
	}
	m["storage.heap_commit_us"] = us(medianDur(commitTimes))
	if d := medianDur(scans); d > 0 {
		m["storage.scan_rows_per_s"] = float64(rows) / d.Seconds()
	}
}

// probeWAL appends commit records to a log of its own and waits for each
// to be durable, under the same sync mode as write_durable.
func probeWAL(tr *tracer, m map[string]float64) error {
	const records = 200
	dir, err := os.MkdirTemp("", "walprobe-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	w, err := wal.Open(dir, 1, wal.Config{Mode: wal.SyncBatched})
	if err != nil {
		return err
	}
	defer w.Close()
	enc := storage.EncodeTuple(storage.Tuple{plsqlaway.Int(1), plsqlaway.Int(1), plsqlaway.Text(strings.Repeat("x", durablePad))})
	var appends, waits []time.Duration
	for i := 0; i < records; i++ {
		rec := &wal.Record{Kind: wal.RecordCommit, TS: int64(i + 1),
			Heaps: []wal.HeapChange{{Table: "acct", Dead: []int{i}, Added: [][]byte{enc}}}}
		var lsn int64
		appends = append(appends, tr.timed("wal.append", func() { lsn, err = w.Append(rec) }))
		if err != nil {
			return err
		}
		waits = append(waits, tr.timed("wal.wait_durable", func() { err = w.WaitDurable(lsn) }))
		if err != nil {
			return err
		}
	}
	m["wal.append_us"] = us(medianDur(appends))
	m["wal.wait_durable_us"] = us(medianDur(waits))
	return nil
}

// probeWire encodes and decodes the two frame shapes the remote
// workloads are made of: a Query frame and a 1024-row, 3-column ColBatch.
func probeWire(tr *tracer, m map[string]float64) error {
	const reps = 200
	const rows = 1024
	batch := &wire.ColBatch{NumRows: rows, Cols: []wire.ColData{
		{Tag: wire.ColTagInt, Ints: make([]int64, rows)},
		{Tag: wire.ColTagFloat, Floats: make([]float64, rows)},
		{Tag: wire.ColTagText, Texts: make([]string, rows)},
	}}
	for i := 0; i < rows; i++ {
		batch.Cols[0].Ints[i] = int64(i)
		batch.Cols[1].Floats[i] = float64(i) / 2
		batch.Cols[2].Texts[i] = fmt.Sprintf("row-%06d-%012d", i, i)
	}
	for _, f := range []struct {
		name string
		msg  wire.Message
	}{{"query", &wire.Query{SQL: qKVRead}}, {"colbatch", batch}} {
		var enc, dec []time.Duration
		var typ byte
		var payload []byte
		var err error
		for rep := 0; rep < reps; rep++ {
			enc = append(enc, tr.timed("wire.encode", func() { typ, payload, err = wire.EncodeMessage(f.msg) }))
			if err != nil {
				return err
			}
			dec = append(dec, tr.timed("wire.decode", func() { _, err = wire.Decode(typ, payload) }))
			if err != nil {
				return err
			}
		}
		m["wire.encode_us."+f.name] = us(medianDur(enc))
		m["wire.decode_us."+f.name] = us(medianDur(dec))
		if f.name == "colbatch" {
			m["wire.bytes_per_row"] = float64(len(payload)) / rows
		}
	}
	return nil
}

// ---------------------------------------------------------------------------
// registry
// ---------------------------------------------------------------------------

// regSum reads a counter family from the registry, summed over its
// labels, or one label's value when label is not empty.
func regSum(reg *obs.Registry, name, label string) float64 {
	var sum float64
	for _, f := range reg.Gather() {
		if f.Name != name {
			continue
		}
		for _, s := range f.Samples {
			if s.Value != nil && (label == "" || s.Label == label) {
				sum += *s.Value
			}
		}
	}
	return sum
}

// regHistogram reads a histogram's count, sum and median; zeros when it
// has no observations.
func regHistogram(reg *obs.Registry, name string) (count, sum, p50 float64) {
	for _, f := range reg.Gather() {
		if f.Name != name || len(f.Samples) == 0 {
			continue
		}
		if s := f.Samples[0]; s.Count != nil && s.Sum != nil {
			count, sum = float64(*s.Count), *s.Sum
			if s.P50 != nil {
				p50 = *s.P50
			}
		}
	}
	return count, sum, p50
}

// ---------------------------------------------------------------------------
// EXPLAIN ANALYZE
// ---------------------------------------------------------------------------

// planNode is one operator line of EXPLAIN ANALYZE output.
type planNode struct {
	indent  int
	kind    string
	rows    int64
	batches int64
	inclMs  float64
	selfMs  float64
}

var analyzeLine = regexp.MustCompile(`^( *)([A-Za-z]+).*\(actual rows=(\d+) batches=(\d+).* time=([^ )]+)\)$`)

// parseAnalyze reads operator lines tolerantly: indentation gives the
// parent, self time is inclusive time minus the direct children's, and
// anything that is not an operator line with actuals is ignored. Self
// time is floored at zero because the engine rounds each node's
// inclusive time separately and some operators work outside NextBatch.
func parseAnalyze(lines []string) []planNode {
	var nodes []planNode
	for _, line := range lines {
		g := analyzeLine.FindStringSubmatch(line)
		if g == nil {
			continue
		}
		d, err := time.ParseDuration(g[5])
		if err != nil {
			continue
		}
		rows, _ := strconv.ParseInt(g[3], 10, 64)
		batches, _ := strconv.ParseInt(g[4], 10, 64)
		nodes = append(nodes, planNode{indent: len(g[1]), kind: g[2], rows: rows, batches: batches, inclMs: ms(d), selfMs: ms(d)})
	}
	for i := range nodes {
		// The parent is the nearest earlier line indented less.
		for p := i - 1; p >= 0; p-- {
			if nodes[p].indent < nodes[i].indent {
				nodes[p].selfMs -= nodes[i].inclMs
				break
			}
		}
	}
	for i := range nodes {
		if nodes[i].selfMs < 0 {
			nodes[i].selfMs = 0
		}
	}
	return nodes
}

// execKinds are the plan-node kinds with a metric of their own; any
// other kind lands in exec.self_ms.other.
var execKinds = []string{"SeqScan", "IndexScan", "Filter", "Project", "HashJoin", "NestLoop", "Apply",
	"Agg", "Sort", "RecursiveUnion", "WorkingScan", "CTEScan", "With", "Result"}

// probeExec runs EXPLAIN ANALYZE on each of the workload's queries once
// and sums self time per node kind, rows out and batches over all nodes.
func probeExec(tr *tracer, sess *plsqlaway.Session, stmts []stmt, m map[string]float64) error {
	known := map[string]bool{}
	for _, k := range execKinds {
		known[k] = true
	}
	for _, st := range stmts {
		if !strings.HasPrefix(st.sql, "SELECT") && !strings.HasPrefix(st.sql, "WITH") {
			continue // EXPLAIN ANALYZE of DML would write
		}
		var lines []string
		var err error
		tr.timed("exec.explain_analyze", func() {
			res, qerr := sess.Query("EXPLAIN ANALYZE "+st.sql, st.params...)
			if err = qerr; err != nil {
				return
			}
			for _, row := range res.Rows {
				lines = append(lines, row[0].Text())
			}
		})
		if err != nil {
			return fmt.Errorf("explain analyze %q: %w", st.sql, err)
		}
		for _, n := range parseAnalyze(lines) {
			kind := n.kind
			if !known[kind] {
				kind = "other"
			}
			m["exec.self_ms."+kind] += n.selfMs
			m["exec.rows_out"] += float64(n.rows)
			m["exec.batches"] += float64(n.batches)
		}
	}
	return nil
}
