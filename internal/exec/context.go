// Package exec instantiates plans into runtime state and evaluates them —
// PostgreSQL's executor, in miniature. The Plan→Executor split matters for
// the reproduction: Instantiate is the ExecutorStart work PostgreSQL pays
// for every evaluation of a PL/pgSQL embedded query. Here a session's Pool
// pays it once per plan — later evaluations rebind a kept tree and Open
// it — so what the interpreter still pays per embedded query is the
// f→Qi switch itself: the plan-cache lookup, binding, Open and Close, and
// the pull of its rows. The compiled WITH RECURSIVE form runs all of its
// queries inside one tree and only rescans them.
package exec

import (
	"fmt"
	"math"

	"plsqlaway/internal/catalog"
	"plsqlaway/internal/plan"
	"plsqlaway/internal/sqltypes"
	"plsqlaway/internal/storage"
)

// Rand is the engine's deterministic random source (xorshift64*), shared by
// interpreted and compiled evaluation so differential tests see identical
// robot strays.
type Rand struct{ state uint64 }

// NewRand creates a generator; seed 0 is mapped to a fixed constant.
func NewRand(seed uint64) *Rand {
	r := &Rand{}
	r.Seed(seed)
	return r
}

// Seed resets the generator state.
func (r *Rand) Seed(seed uint64) {
	if seed == 0 {
		seed = 0x9E3779B97F4A7C15
	}
	r.state = seed
}

// Next returns the next raw 64-bit value.
func (r *Rand) Next() uint64 {
	x := r.state
	x ^= x >> 12
	x ^= x << 25
	x ^= x >> 27
	r.state = x
	return x * 0x2545F4914F6CDD1D
}

// Float64 returns a uniform value in [0, 1).
func (r *Rand) Float64() float64 {
	return float64(r.Next()>>11) / float64(1<<53)
}

// Intn returns a uniform value in [0, n).
func (r *Rand) Intn(n int) int {
	if n <= 0 {
		return 0
	}
	return int(r.Next() % uint64(n))
}

// CallFunc dispatches a catalog function invocation. The engine installs an
// implementation that routes PL/pgSQL functions through the interpreter
// (counting a Q→f context switch) and compiled functions through their
// inlined query.
type CallFunc func(f *catalog.Function, args []sqltypes.Value) (sqltypes.Value, error)

// Ctx is the per-execution runtime context.
type Ctx struct {
	Params []sqltypes.Value
	// Outer is the stack of enclosing rows: subplan evaluations and
	// nest-loop lateral iterations push here. OuterRef{Depth: d} reads
	// Outer[len(Outer)-1-d].
	Outer []storage.Tuple

	Rand         *Rand
	StorageStats *storage.Stats
	WorkMem      int
	MaxRecursion int
	CallFn       CallFunc

	// TS is the storage snapshot timestamp this execution reads at: heap
	// scans and index probes see exactly the row versions committed at or
	// before it. The engine pins it per statement; the default AllVisible
	// (every committed version) serves direct executor users — tests,
	// tools — that bypass the engine's commit protocol.
	TS int64

	// TxnOverlay, when set, maps a heap to the enclosing transaction's
	// buffered uncommitted writes so scans read the transaction's own
	// inserts/updates/deletes on top of the pinned snapshot (nil result =
	// no buffered writes for that heap). Nil outside explicit
	// transactions.
	TxnOverlay func(h *storage.Heap) *storage.HeapOverlay

	// BatchSize is the number of tuples moved per NextBatch call. 1 makes
	// the batch pipeline degenerate to tuple-at-a-time Volcano iteration
	// (the baseline of the BenchmarkBatchSize sweep).
	BatchSize int

	// Columnar enables the unboxed column-vector fast paths (EvalCol
	// kernels, columnar filter/join/recursion/aggregation). Off, every
	// operator runs the boxed row-major paths — the differential suites
	// compare the two end-to-end.
	Columnar bool

	// Depth guards runaway UDF recursion (PL/pgSQL calling itself).
	CallDepth    int
	MaxCallDepth int

	// Stats, when set, accumulates memo and executor-tree counts across
	// executions.
	Stats *Stats

	cteStores  []*storage.TupleStore
	cteWorking []*rowSet
	cteDefs    []Node
	held       []holder // nodes holding data for this run (see hold)
}

// A holder is a node that keeps data for the rest of its run once opened —
// a scanner over a snapshot, a hash table, buffered rows — or state it
// carries from one Open to the next (a static hash-join build, a
// materialized input, a memo table). It registers with its context at the
// first Open of a run, so a tree reset for another run (Executor.reset)
// reaches it wherever it sits, in expression subplans too, without a walk.
type holder interface {
	// release drops the run's data and the state carried across Opens, so
	// the node's next Open starts as a freshly built node would.
	release()
}

// hold registers h with the run on its first Open; *held records that,
// and h's release clears it.
func (c *Ctx) hold(h holder, held *bool) {
	if !*held {
		*held = true
		c.held = append(c.held, h)
	}
}

// rebind points a pooled tree's context at a new run: every setting comes
// from src — parameters, snapshot, transaction overlay, random source,
// hooks, limits — with an empty outer-row stack, while the tree keeps what
// is its own: the batch size it was built for (a volatile plan's clamp to
// 1 included) and its CTE and run state.
func (c *Ctx) rebind(src *Ctx) {
	tree := *c
	*c = *src
	c.BatchSize = tree.BatchSize
	c.Outer = tree.Outer[:0]
	c.CallDepth = 0
	c.cteStores, c.cteWorking, c.cteDefs, c.held = tree.cteStores, tree.cteWorking, tree.cteDefs, tree.held
}

// NewCtx builds a context with engine defaults.
func NewCtx() *Ctx {
	return &Ctx{
		Rand:         NewRand(42),
		StorageStats: &storage.Stats{},
		WorkMem:      storage.DefaultWorkMem,
		MaxRecursion: 20_000_000,
		MaxCallDepth: 256,
		BatchSize:    DefaultBatchSize,
		Columnar:     true,
		TS:           storage.AllVisible,
	}
}

// overlayFor returns the enclosing transaction's buffered writes for h,
// or nil when reads should go straight to the heap snapshot.
func (c *Ctx) overlayFor(h *storage.Heap) *storage.HeapOverlay {
	if c.TxnOverlay == nil {
		return nil
	}
	return c.TxnOverlay(h)
}

func (c *Ctx) pushOuter(t storage.Tuple) { c.Outer = append(c.Outer, t) }
func (c *Ctx) popOuter()                 { c.Outer = c.Outer[:len(c.Outer)-1] }

func (c *Ctx) outerAt(depth int) (storage.Tuple, error) {
	i := len(c.Outer) - 1 - depth
	if i < 0 {
		return nil, fmt.Errorf("exec: outer reference depth %d exceeds stack size %d", depth, len(c.Outer))
	}
	return c.Outer[i], nil
}

// releaseStores closes all CTE stores (spill files) of this execution.
func (c *Ctx) releaseStores() {
	for i, s := range c.cteStores {
		if s != nil {
			s.Close()
			c.cteStores[i] = nil
		}
	}
}

// concatTuples concatenates join sides.
func concatTuples(a, b storage.Tuple) storage.Tuple {
	out := make(storage.Tuple, 0, len(a)+len(b))
	out = append(out, a...)
	return append(out, b...)
}

// nullTuple returns a tuple of n NULLs.
func nullTuple(n int) storage.Tuple {
	t := make(storage.Tuple, n)
	for i := range t {
		t[i] = sqltypes.Null
	}
	return t
}

// tupleKey builds a hash-map key consistent with sqltypes.Identical for a
// subset of columns (nil cols = all).
func tupleKey(t storage.Tuple) string {
	return string(storage.EncodeTuple(normalizeForKey(t)))
}

// normalizeForKey maps numerically equal ints/floats (and -0.0/0.0) to one
// representation so grouping agrees with Identical.
func normalizeForKey(t storage.Tuple) storage.Tuple {
	out := make(storage.Tuple, len(t))
	for i, v := range t {
		out[i] = normalizeValueForKey(v)
	}
	return out
}

func normalizeValueForKey(v sqltypes.Value) sqltypes.Value {
	switch v.Kind() {
	case sqltypes.KindFloat:
		f := v.Float()
		if f == math.Trunc(f) && !math.IsInf(f, 0) && math.Abs(f) < 1e15 {
			return sqltypes.NewInt(int64(f))
		}
		return v
	case sqltypes.KindCoord:
		x, y := v.Coord()
		return sqltypes.NewRow([]sqltypes.Value{sqltypes.NewInt(x), sqltypes.NewInt(y)})
	case sqltypes.KindRow:
		fields := v.Row()
		norm := make([]sqltypes.Value, len(fields))
		for i, f := range fields {
			norm[i] = normalizeValueForKey(f)
		}
		return sqltypes.NewRow(norm)
	default:
		return v
	}
}

// ensure plan import is used even if future refactors drop direct uses.
var _ plan.Expr = (*plan.Const)(nil)
