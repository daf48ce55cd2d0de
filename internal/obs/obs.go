// Package obs is the engine's metrics substrate: a dependency-free,
// lock-light registry of counters, gauges, and fixed-bucket histograms
// that renders in the Prometheus text exposition format.
//
// Design constraints, in order:
//
//   - the hot path pays atomics only. A metric handle (*Counter, *Gauge,
//     *Histogram) is grabbed once at wiring time; Inc/Add/Observe are
//     lock-free atomic operations, so publishing from the commit path or
//     a per-frame server loop costs nanoseconds;
//   - registration is idempotent ("upsert"): asking for an existing name
//     returns the existing metric, so several engines may share one
//     registry (the benchmark harness does) and the series accumulate.
//     Func-backed metrics instead replace their callback — last engine
//     wins, which is what a sequential benchmark wants;
//   - rendering is deterministic: families sort by name, labeled children
//     by label value, so golden tests and scrape diffs are stable.
//
// The package imports only the standard library and sits at the bottom of
// the repo's import graph — storage, wal, plan, exec, engine, and server
// all publish into it without cycles.
package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing int64.
type Counter struct{ v atomic.Int64 }

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n (negative deltas are a caller bug; they render as-is).
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Value reads the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is a settable int64 (active sessions, queue depths).
type Gauge struct{ v atomic.Int64 }

// Set stores n.
func (g *Gauge) Set(n int64) { g.v.Store(n) }

// Add moves the gauge by delta (use negative deltas on release paths).
func (g *Gauge) Add(delta int64) { g.v.Add(delta) }

// Value reads the gauge.
func (g *Gauge) Value() int64 { return g.v.Load() }

// Histogram is a fixed-bucket distribution: cumulative-on-render bucket
// counts, a float64 sum, and a total count, all maintained with atomics.
// Observe scans the (small, fixed) upper-bound list — no allocation, no
// locks.
type Histogram struct {
	bounds []float64      // ascending upper bounds; +Inf is implicit
	counts []atomic.Int64 // len(bounds)+1, per-bucket (non-cumulative)
	sum    atomic.Uint64  // float64 bits, CAS-accumulated
	count  atomic.Int64
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sum.Load()
		if h.sum.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			return
		}
	}
}

// ObserveDuration records d in seconds (the Prometheus base unit).
func (h *Histogram) ObserveDuration(d time.Duration) { h.Observe(d.Seconds()) }

// Count reports how many observations the histogram has absorbed.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum reports the sum of all observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sum.Load()) }

// Quantile estimates the q-quantile (0 < q < 1) from the bucket counts,
// linearly interpolating inside the bucket the rank lands in — the same
// estimate Prometheus's histogram_quantile computes server-side. The
// overflow (+Inf) bucket clamps to the largest finite bound, and an
// empty histogram reports NaN. The estimate is only as fine as the
// bucket grid; use it for operator-facing summaries, not assertions.
func (h *Histogram) Quantile(q float64) float64 {
	total := h.count.Load()
	if total == 0 {
		return math.NaN()
	}
	rank := q * float64(total)
	cum := int64(0)
	for i, bound := range h.bounds {
		n := h.counts[i].Load()
		if float64(cum)+float64(n) >= rank {
			lo := 0.0
			if i > 0 {
				lo = h.bounds[i-1]
			}
			if n == 0 {
				return bound
			}
			return lo + (bound-lo)*(rank-float64(cum))/float64(n)
		}
		cum += n
	}
	if len(h.bounds) == 0 {
		return math.NaN()
	}
	return h.bounds[len(h.bounds)-1]
}

// DurationBuckets are the latency bounds (seconds) every latency
// histogram in the engine uses: 5µs .. 10s, roughly ×2.5 per step —
// wide enough to hold both a plan-cache hit and a cold WAL fsync.
var DurationBuckets = []float64{
	0.000005, 0.00001, 0.000025, 0.00005, 0.0001, 0.00025, 0.0005,
	0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 10,
}

// CountBuckets suit small cardinalities (group-commit batch sizes,
// rows per batch): 1 .. 4096, ×2 per step.
var CountBuckets = []float64{1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 4096}

// metricKind tags a family for TYPE lines and snapshots.
type metricKind int

const (
	kindCounter metricKind = iota
	kindGauge
	kindHistogram
)

func (k metricKind) String() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindGauge:
		return "gauge"
	default:
		return "histogram"
	}
}

// family is one registered metric name: either a single unlabeled child
// or a set of children keyed by one label's values.
type family struct {
	name  string
	help  string
	kind  metricKind
	label string // "" = unlabeled

	mu       sync.Mutex
	children map[string]*child // label value → child ("" for unlabeled)
	bounds   []float64         // histogram families only
}

// child is one concrete series: exactly one of the handles is non-nil.
// fn-backed series are read at render time (cheap snapshots over state
// that already maintains its own atomics — storage stats, cache sizes).
type child struct {
	counter *Counter
	gauge   *Gauge
	hist    *Histogram
	fn      func() int64
}

func (c *child) value() int64 {
	switch {
	case c.fn != nil:
		return c.fn()
	case c.counter != nil:
		return c.counter.Value()
	case c.gauge != nil:
		return c.gauge.Value()
	}
	return 0
}

// Registry holds metric families. The zero value is not usable; call
// NewRegistry. Registration takes a mutex (wiring time only); the
// returned handles are lock-free.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// lookup returns (creating if needed) the family for name, enforcing
// kind/label agreement. Registration conflicts panic: they are wiring
// bugs, never data-dependent.
func (r *Registry) lookup(name, help string, kind metricKind, label string, bounds []float64) *family {
	r.mu.Lock()
	defer r.mu.Unlock()
	if f, ok := r.families[name]; ok {
		if f.kind != kind || f.label != label {
			panic(fmt.Sprintf("obs: metric %q re-registered as %s/label=%q (was %s/label=%q)",
				name, kind, label, f.kind, f.label))
		}
		return f
	}
	f := &family{name: name, help: help, kind: kind, label: label,
		children: make(map[string]*child), bounds: bounds}
	r.families[name] = f
	return f
}

// ensure returns the child for label value lv, creating it with mk.
func (f *family) ensure(lv string, mk func() *child) *child {
	f.mu.Lock()
	defer f.mu.Unlock()
	if c, ok := f.children[lv]; ok {
		return c
	}
	c := mk()
	f.children[lv] = c
	return c
}

// Counter registers (or fetches) an unlabeled counter.
func (r *Registry) Counter(name, help string) *Counter {
	f := r.lookup(name, help, kindCounter, "", nil)
	c := f.ensure("", func() *child { return &child{counter: &Counter{}} })
	return c.counter
}

// Gauge registers (or fetches) an unlabeled gauge.
func (r *Registry) Gauge(name, help string) *Gauge {
	f := r.lookup(name, help, kindGauge, "", nil)
	c := f.ensure("", func() *child { return &child{gauge: &Gauge{}} })
	return c.gauge
}

// Histogram registers (or fetches) an unlabeled histogram with the given
// ascending upper bounds (+Inf implied).
func (r *Registry) Histogram(name, help string, bounds []float64) *Histogram {
	f := r.lookup(name, help, kindHistogram, "", bounds)
	c := f.ensure("", func() *child {
		return &child{hist: &Histogram{bounds: f.bounds, counts: make([]atomic.Int64, len(f.bounds)+1)}}
	})
	return c.hist
}

// CounterFunc registers a counter whose value is read from fn at render
// time — the bridge for subsystems that already keep their own atomic
// counters (storage.Stats, the plan cache). Re-registration replaces fn.
func (r *Registry) CounterFunc(name, help string, fn func() int64) {
	f := r.lookup(name, help, kindCounter, "", nil)
	f.mu.Lock()
	f.children[""] = &child{fn: fn}
	f.mu.Unlock()
}

// GaugeFunc registers a render-time gauge. Re-registration replaces fn.
func (r *Registry) GaugeFunc(name, help string, fn func() int64) {
	f := r.lookup(name, help, kindGauge, "", nil)
	f.mu.Lock()
	f.children[""] = &child{fn: fn}
	f.mu.Unlock()
}

// CounterVec registers a counter family keyed by one label. Grab child
// handles with With at wiring time; With takes the family mutex.
type CounterVec struct{ f *family }

// CounterVec registers (or fetches) a labeled counter family.
func (r *Registry) CounterVec(name, help, label string) *CounterVec {
	return &CounterVec{f: r.lookup(name, help, kindCounter, label, nil)}
}

// With returns the counter for one label value, creating it on first use.
func (v *CounterVec) With(value string) *Counter {
	c := v.f.ensure(value, func() *child { return &child{counter: &Counter{}} })
	return c.counter
}

// ---------------------------------------------------------------------------
// rendering
// ---------------------------------------------------------------------------

// WriteText renders every family in the Prometheus text exposition
// format (version 0.0.4): HELP/TYPE headers, samples sorted by family
// name then label value, histograms as cumulative _bucket/_sum/_count.
func (r *Registry) WriteText(w io.Writer) error {
	var b strings.Builder
	for _, f := range r.sortedFamilies() {
		fmt.Fprintf(&b, "# HELP %s %s\n", f.name, escapeHelp(f.help))
		fmt.Fprintf(&b, "# TYPE %s %s\n", f.name, f.kind)
		for _, lv := range f.sortedValues() {
			f.mu.Lock()
			c := f.children[lv]
			f.mu.Unlock()
			if c.hist != nil {
				writeHistogram(&b, f, lv, c.hist)
				continue
			}
			fmt.Fprintf(&b, "%s%s %s\n", f.name, labelSuffix(f.label, lv), formatFloat(float64(c.value())))
		}
	}
	_, err := io.WriteString(w, b.String())
	return err
}

func writeHistogram(b *strings.Builder, f *family, lv string, h *Histogram) {
	cum := int64(0)
	for i, bound := range h.bounds {
		cum += h.counts[i].Load()
		fmt.Fprintf(b, "%s_bucket%s %d\n", f.name, bucketSuffix(f.label, lv, formatFloat(bound)), cum)
	}
	cum += h.counts[len(h.bounds)].Load()
	fmt.Fprintf(b, "%s_bucket%s %d\n", f.name, bucketSuffix(f.label, lv, "+Inf"), cum)
	fmt.Fprintf(b, "%s_sum%s %s\n", f.name, labelSuffix(f.label, lv), formatFloat(h.Sum()))
	fmt.Fprintf(b, "%s_count%s %d\n", f.name, labelSuffix(f.label, lv), h.Count())
}

func labelSuffix(label, value string) string {
	if label == "" {
		return ""
	}
	return "{" + label + "=" + strconv.Quote(value) + "}"
}

func bucketSuffix(label, value, le string) string {
	if label == "" {
		return `{le="` + le + `"}`
	}
	return "{" + label + "=" + strconv.Quote(value) + `,le="` + le + `"}`
}

func escapeHelp(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

func (r *Registry) sortedFamilies() []*family {
	r.mu.Lock()
	fams := make([]*family, 0, len(r.families))
	for _, f := range r.families {
		fams = append(fams, f)
	}
	r.mu.Unlock()
	sort.Slice(fams, func(i, j int) bool { return fams[i].name < fams[j].name })
	return fams
}

func (f *family) sortedValues() []string {
	f.mu.Lock()
	vals := make([]string, 0, len(f.children))
	for lv := range f.children {
		vals = append(vals, lv)
	}
	f.mu.Unlock()
	sort.Strings(vals)
	return vals
}

// ---------------------------------------------------------------------------
// structured snapshots (/metrics.json)
// ---------------------------------------------------------------------------

// Bucket is one histogram bucket in a snapshot (cumulative count).
type Bucket struct {
	LE    float64 `json:"le"` // +Inf encodes as math.Inf(1) → JSON omits; see Snapshot
	Count int64   `json:"count"`
}

// Sample is one concrete series in a snapshot.
type Sample struct {
	Label   string   `json:"label,omitempty"`
	Value   *float64 `json:"value,omitempty"` // counters and gauges
	Count   *int64   `json:"count,omitempty"` // histograms
	Sum     *float64 `json:"sum,omitempty"`
	P50     *float64 `json:"p50,omitempty"` // interpolated quantiles (see Histogram.Quantile)
	P95     *float64 `json:"p95,omitempty"`
	P99     *float64 `json:"p99,omitempty"`
	Buckets []Bucket `json:"buckets,omitempty"` // finite bounds only; Count is the +Inf total
}

// Metric is one family in a snapshot.
type Metric struct {
	Name    string   `json:"name"`
	Type    string   `json:"type"`
	Label   string   `json:"label,omitempty"`
	Samples []Sample `json:"samples"`
}

// Gather snapshots every family into a JSON-encodable form, sorted like
// WriteText. /metrics.json serves it, and the benchmark's traced run
// reads its per-layer metrics from it.
func (r *Registry) Gather() []Metric {
	var out []Metric
	for _, f := range r.sortedFamilies() {
		m := Metric{Name: f.name, Type: f.kind.String(), Label: f.label}
		for _, lv := range f.sortedValues() {
			f.mu.Lock()
			c := f.children[lv]
			f.mu.Unlock()
			s := Sample{Label: lv}
			if c.hist != nil {
				cum := int64(0)
				for i, bound := range c.hist.bounds {
					cum += c.hist.counts[i].Load()
					s.Buckets = append(s.Buckets, Bucket{LE: bound, Count: cum})
				}
				n, sum := c.hist.Count(), c.hist.Sum()
				s.Count, s.Sum = &n, &sum
				// NaN (empty or bucketless histogram) is not JSON-encodable;
				// leave the quantile fields off instead.
				if p50 := c.hist.Quantile(0.50); !math.IsNaN(p50) {
					p95, p99 := c.hist.Quantile(0.95), c.hist.Quantile(0.99)
					s.P50, s.P95, s.P99 = &p50, &p95, &p99
				}
			} else {
				v := float64(c.value())
				s.Value = &v
			}
			m.Samples = append(m.Samples, s)
		}
		out = append(out, m)
	}
	return out
}
