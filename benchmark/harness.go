package main

import (
	"fmt"
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"time"

	"plsqlaway"
	"plsqlaway/internal/engine"
	"plsqlaway/internal/obs"
)

// config is one run's settings. Sizes are constants in each workload's
// file; quick divides them (smoke test only, never comparable).
type config struct {
	seed     uint64
	seconds  float64
	quick    bool
	wrongRef bool // test hook: corrupt one reference so the checker must fire
}

// scale shrinks a full-size constant for -quick runs.
func (c *config) scale(full, quick int) int {
	if c.quick {
		return quick
	}
	return full
}

// engineOpts returns the options every workload's engine gets: the seed
// and, in the traced run only, the metrics registry.
func (c *config) engineOpts(reg *obs.Registry) []plsqlaway.EngineOption {
	opts := []plsqlaway.EngineOption{plsqlaway.WithSeed(c.seed)}
	if reg != nil {
		opts = append(opts, engine.WithMetricsRegistry(reg))
	}
	return opts
}

// stmt is one statement text the workload issues, with representative
// parameters, for the parse / plan / EXPLAIN ANALYZE probes.
type stmt struct {
	sql    string
	params []plsqlaway.Value
}

// workloadDef is one named traffic shape. setup builds a fresh system and
// is what setup_s times; everything the checker needs (references, warm
// caches) happens in the instance's prepare, untimed.
type workloadDef struct {
	name        string
	clients     int
	tailPct     float64 // percentile reported as op_tail_ms
	opsPerRound int
	quickOps    int
	why         string
	setup       func(c *config, ops int, reg *obs.Registry) (instance, error)
}

type instance interface {
	// prepare computes the references from a path independent of the one
	// under test and checks pinned answers for the default seed.
	prepare() error
	// round executes the fixed op schedule once, closed loop.
	round(r *round)
	// finish verifies the state the rounds left behind.
	finish() error
	// engine is the system under test, for counters and probe sessions.
	engine() *plsqlaway.Engine
	// statements lists the distinct statement texts of the schedule.
	statements() []stmt
	// layer adds the workload's own per-layer values after a traced run.
	layer(m map[string]float64, opsPerS float64)
	close()
}

// round collects what one pass over the schedule observed. Each client
// goroutine owns one clientRec, so recording takes no lock.
type round struct {
	tr      *tracer
	clients []*clientRec
}

type clientRec struct {
	tr        *tracer
	latMs     []float64     // correct ops only
	busy      time.Duration // sum of op durations: the client's time in the loop, calibration excluded
	attempted int
	failed    int
	firstErr  error
	// Client 0 times the calibration kernel between its ops (calibrate.go).
	calibrates bool
	lastCal    time.Time
	cal        []time.Duration
}

func newRound(clients int, tr *tracer) *round {
	r := &round{tr: tr}
	for i := 0; i < clients; i++ {
		r.clients = append(r.clients, &clientRec{tr: tr, calibrates: i == 0})
	}
	return r
}

func (c *clientRec) sampleMachine() {
	c.cal = append(c.cal, calibrate())
	c.lastCal = time.Now()
}

// op times one operation: fn returns nil when every answer matched its
// reference. A failed op counts in failed and in no latency sample.
func (c *clientRec) op(index int, fn func(span int) error) time.Duration {
	id := c.tr.begin(0, "op", index)
	t0 := time.Now()
	err := fn(id)
	d := time.Since(t0)
	c.tr.end(id)
	c.attempted++
	c.busy += d
	if c.calibrates && time.Since(c.lastCal) >= calEvery {
		c.sampleMachine()
	}
	if err != nil {
		c.failed++
		if c.firstErr == nil {
			c.firstErr = fmt.Errorf("op %d: %w", index, err)
		}
		return d
	}
	c.latMs = append(c.latMs, float64(d.Nanoseconds())/1e6)
	return d
}

// call wraps one call into a layer in a child span of the op. A nil
// receiver (reference passes, outside any round) just calls fn.
func (c *clientRec) call(parent int, name string, index int, fn func() error) error {
	if c == nil {
		return fn()
	}
	id := c.tr.begin(parent, name, index)
	err := fn()
	c.tr.end(id)
	return err
}

// roundStats is one timed round reduced to numbers.
type roundStats struct {
	wallS      float64 // calibration included: what the run's time budget counts
	opsPerS    float64 // as the clock read it
	speed      float64 // the machine's, relative to the reference (calibrate.go)
	attempted  int
	failed     int
	latMs      []float64
	allocBytes uint64
	peakHeap   uint64
	firstErr   error
}

// stats reduces the round. Throughput is the sum of the clients' own
// rates, correct ops over time spent in ops: in a closed loop with no
// think time that is ops over wall time, without the calibration pauses.
func (r *round) stats() roundStats {
	var s roundStats
	for _, c := range r.clients {
		s.attempted += c.attempted
		s.failed += c.failed
		s.latMs = append(s.latMs, c.latMs...)
		if c.busy > 0 {
			s.opsPerS += float64(c.attempted-c.failed) / c.busy.Seconds()
		}
		if s.firstErr == nil {
			s.firstErr = c.firstErr
		}
	}
	s.speed = machineSpeed(r.clients[0].cal)
	sort.Float64s(s.latMs)
	return s
}

// Runtime readings come from runtime/metrics, which (unlike
// runtime.ReadMemStats) does not stop the world, so the heap sampler
// cannot itself put stalls into the latencies it runs beside.
const (
	mAllocBytes  = "/gc/heap/allocs:bytes"
	mHeapObjects = "/memory/classes/heap/objects:bytes"
	mHeapUnused  = "/memory/classes/heap/unused:bytes"
)

func readRuntime(names ...string) []uint64 {
	s := make([]metrics.Sample, len(names))
	for i, n := range names {
		s[i].Name = n
	}
	metrics.Read(s)
	out := make([]uint64, len(names))
	for i := range s {
		if s[i].Value.Kind() == metrics.KindUint64 {
			out[i] = s[i].Value.Uint64()
		}
	}
	return out
}

// ballast is a pointer-free block the process holds and never touches, so
// that the collector paces itself as it would beside a database that holds
// data. The corpus tables leave a live heap of 5-10 MiB, which at the 0.7 to
// 1.7 GB/s the udf workloads allocate means hundreds of GC cycles a second:
// measured on the quiet box, 128 more live MiB raise udf_interp from 125 to
// 205 ops/s and udf_compiled from 300 to 425, and when the host is busy
// every one of those cycles' cross-core wake-ups stalls, so the two ran up
// to three times slower while the calibration kernel ran 1.3 times slower.
// Allocation volume stays visible, exactly, in alloc_kb_per_op.
var ballast = make([]byte, 128<<20)

// heapInUse is MemStats.HeapInuse by its runtime/metrics definition, less
// the ballast.
func heapInUse() uint64 {
	v := readRuntime(mHeapObjects, mHeapUnused)
	return v[0] + v[1] - uint64(len(ballast))
}

// sampleHeap polls heap-in-use every 10 ms (measured on the 2-core box, a
// 1 ms ticker cost 7% of udf_compiled's throughput; 10 ms costs nothing
// measurable) until the returned function is called, which waits for the
// sampler to exit and returns the 90th percentile of the samples. The
// single highest sample is an extreme value: it depends on whether some
// GC cycle ran late, and moved between 10 and 39 MiB from one round of
// udf_interp to the next, while the 90th percentile stayed within 1 MiB.
func sampleHeap() (stop func() uint64) {
	quit := make(chan struct{})
	done := make(chan uint64)
	go func() {
		samples := []float64{float64(heapInUse())}
		t := time.NewTicker(10 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-t.C:
				samples = append(samples, float64(heapInUse()))
			case <-quit:
				sort.Float64s(samples)
				done <- uint64(percentile(samples, 90))
				return
			}
		}
	}()
	return func() uint64 {
		close(quit)
		return <-done
	}
}

// timedRound runs one round under the allocation and heap meters.
func timedRound(inst instance, clients int, tr *tracer) roundStats {
	runtime.GC()
	r := newRound(clients, tr)
	alloc0 := readRuntime(mAllocBytes)[0]
	stop := sampleHeap()
	t0 := time.Now()
	r.clients[0].sampleMachine()
	inst.round(r)
	r.clients[0].sampleMachine()
	wall := time.Since(t0)
	peak := stop()
	s := r.stats()
	s.wallS = wall.Seconds()
	s.allocBytes = readRuntime(mAllocBytes)[0] - alloc0 - uint64(len(r.clients[0].cal))*calAllocBytes
	s.peakHeap = peak
	return s
}

// minRounds is the fewest timed rounds a run reports a median over.
const minRounds = 3

// runRounds repeats the schedule until seconds of timed work have
// passed, calling between (if any) before each. The schedule is fixed,
// so per-op counts repeat exactly however many rounds fit.
func runRounds(inst instance, clients int, seconds float64, tr *tracer, between func()) []roundStats {
	var out []roundStats
	var spent float64
	for len(out) < minRounds || spent < seconds {
		if between != nil {
			between()
		}
		s := timedRound(inst, clients, tr)
		spent += s.wallS
		out = append(out, s)
	}
	return out
}

// ---------------------------------------------------------------------------
// order statistics
// ---------------------------------------------------------------------------

// percentile reads the p-th percentile (0..100) from sorted values by the
// nearest-rank rule; 0 for an empty sample.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(p / 100 * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	return sorted[rank-1]
}

func median(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

func medianDur(ds []time.Duration) time.Duration {
	vs := make([]float64, len(ds))
	for i, d := range ds {
		vs[i] = float64(d)
	}
	return time.Duration(median(vs))
}

// ---------------------------------------------------------------------------
// spans
// ---------------------------------------------------------------------------

// span is one timed call into a layer. Spans of one op share Op and hang
// under that op's span through Parent (0 = no parent).
type span struct {
	ID       int    `json:"id"`
	Parent   int    `json:"parent"`
	Name     string `json:"name"`
	Workload string `json:"workload"`
	Op       int    `json:"op"`
	StartNS  int64  `json:"start_ns"`
	EndNS    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, which is how the untraced run pays nothing for it.
type tracer struct {
	workload string
	t0       time.Time
	mu       sync.Mutex
	spans    []span
}

func newTracer(workload string) *tracer { return &tracer{workload: workload, t0: time.Now()} }

func (t *tracer) begin(parent int, name string, op int) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Workload: t.workload, Op: op, StartNS: now})
	return id
}

func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans[id-1].EndNS = now
	t.mu.Unlock()
}

// timed records fn as a root span and returns how long it took.
func (t *tracer) timed(name string, fn func()) time.Duration {
	id := t.begin(0, name, -1)
	t0 := time.Now()
	fn()
	d := time.Since(t0)
	t.end(id)
	return d
}

// selfTimes sums, per span name, each span's duration minus the part its
// direct children cover.
func selfTimes(spans []span) map[string]time.Duration {
	child := make(map[int]int64)
	for _, s := range spans {
		if s.Parent != 0 {
			child[s.Parent] += s.EndNS - s.StartNS
		}
	}
	self := make(map[string]time.Duration)
	for _, s := range spans {
		self[s.Name] += time.Duration(s.EndNS - s.StartNS - child[s.ID])
	}
	return self
}
