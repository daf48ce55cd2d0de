package exec

import (
	"fmt"

	"plsqlaway/internal/sqltypes"
	"plsqlaway/internal/storage"
)

// DefaultBatchSize is the number of tuples a pipeline moves per NextBatch
// call. Swept over a WITH RECURSIVE graph-frontier query on the row-major
// executor, it was a flat ≈1.5× plateau from 64 to 1024 rows over
// tuple-at-a-time iteration (BENCH_HISTORY.md): by 64 rows the per-call
// virtual dispatch and expression-tree walks have amortized away, and
// beyond ~1024 the working batches plus their scratch columns outgrow
// cache. 256 sits mid-plateau.
const DefaultBatchSize = 256

// Batch is a reusable container of tuples flowing between executor nodes.
// Its limit — distinct from the backing slice's capacity — is how consumers
// bound a producer: LIMIT sets it to the rows it still needs, subplan
// evaluation sets it to 1 or 2 so lazy semantics (EXISTS, IN, scalar
// cardinality checks) pull no more rows than the tuple-at-a-time executor
// did.
// A batch carries rows in one of two layouts: row-major ([]storage.Tuple,
// the layout of heap scans and every pre-columnar operator) or columnar
// (typed Column vectors set via SetCols — the layout of the hot kernels).
// Either side converts lazily: Rows() materializes a columnar batch into
// fresh row backing (so retained headers stay valid, per the contract
// below), and Col(i) transposes one column of a row-major batch into a
// cached typed lane.
type Batch struct {
	rows  []storage.Tuple
	limit int

	// columnar layout: cols are producer-owned views, valid until the
	// producer's next refill — exactly the lifetime of row-major rows.
	cols  []*Column
	colN  int
	colar bool

	// tcols/tdone cache per-column transposes of a row-major batch.
	tcols []Column
	tdone []bool

	// mrows caches the row materialization of a columnar batch. The header
	// slice is reused across refills but the value backing is freshly
	// allocated per batch: consumers are allowed to retain row headers.
	mrows []storage.Tuple
	mdone bool
}

// NewBatch creates a batch bounded to limit rows per fill. The row-header
// slice is sized by the first fill — a bulk Append allocates it once at
// the chunk's length, row-at-a-time Adds grow it — and begin keeps that
// capacity across refills, so a one-row plan (most of what a PL/pgSQL
// function instantiates) never pays limit × header bytes per operator.
func NewBatch(limit int) *Batch {
	if limit < 1 {
		limit = 1
	}
	return &Batch{limit: limit}
}

// begin truncates the batch for refilling. Every NextBatch implementation
// calls it on entry, so producers always append into an empty batch.
func (b *Batch) begin() {
	b.rows = b.rows[:0]
	b.colar = false
	b.cols = nil
	b.colN = 0
	b.tdone = b.tdone[:0]
	b.mrows = b.mrows[:0]
	b.mdone = false
}

// Len reports the number of rows currently held.
func (b *Batch) Len() int {
	if b.colar {
		return b.colN
	}
	return len(b.rows)
}

// Cap reports the fill limit.
func (b *Batch) Cap() int { return b.limit }

// Full reports whether the batch reached its fill limit.
func (b *Batch) Full() bool { return b.Len() >= b.limit }

// Add appends one row.
func (b *Batch) Add(t storage.Tuple) { b.rows = append(b.rows, t) }

// Append bulk-appends rows (the caller respects the limit).
func (b *Batch) Append(ts []storage.Tuple) { b.rows = append(b.rows, ts...) }

// Row returns row i.
func (b *Batch) Row(i int) storage.Tuple {
	if b.colar {
		return b.Rows()[i]
	}
	return b.rows[i]
}

// Rows exposes the held rows. The slice is invalidated by the next refill;
// consumers that retain rows must copy the headers out first (the headers
// stay valid: columnar batches materialize into fresh backing per batch).
func (b *Batch) Rows() []storage.Tuple {
	if !b.colar {
		return b.rows
	}
	if !b.mdone {
		w := len(b.cols)
		backing := make([]sqltypes.Value, b.colN*w)
		for r := 0; r < b.colN; r++ {
			t := backing[r*w : (r+1)*w : (r+1)*w]
			for c, col := range b.cols {
				t[c] = col.Value(r)
			}
			b.mrows = append(b.mrows, storage.Tuple(t))
		}
		b.mdone = true
	}
	return b.mrows
}

// SetCols switches the batch to columnar layout: n rows across cols. The
// columns are producer-owned views valid until the producer's next refill.
// Callers must have called begin() (directly or via a NextBatch entry)
// since the last fill.
func (b *Batch) SetCols(cols []*Column, n int) {
	b.colar = true
	b.cols = cols
	b.colN = n
}

// HasCols reports whether the batch currently holds columnar data.
func (b *Batch) HasCols() bool { return b.colar }

// NumCols reports the column count of a columnar batch.
func (b *Batch) NumCols() int { return len(b.cols) }

// Width reports the row width: column count when columnar, first-row width
// otherwise (0 for an empty batch).
func (b *Batch) Width() int {
	if b.colar {
		return len(b.cols)
	}
	if len(b.rows) > 0 {
		return len(b.rows[0])
	}
	return 0
}

// Col returns column i as a typed vector: a zero-copy view for columnar
// batches, a cached transpose for row-major ones. The error matches
// EvalBatch's out-of-range input error so the two paths diagnose broken
// plans identically.
func (b *Batch) Col(i int) (*Column, error) {
	if b.colar {
		if i >= len(b.cols) {
			return nil, fmt.Errorf("exec: input column %d out of range (row width %d)", i, len(b.cols))
		}
		return b.cols[i], nil
	}
	for len(b.tdone) <= i {
		b.tdone = append(b.tdone, false)
	}
	for len(b.tcols) <= i {
		b.tcols = append(b.tcols, Column{})
	}
	if !b.tdone[i] {
		for _, r := range b.rows {
			if i >= len(r) {
				return nil, fmt.Errorf("exec: input column %d out of range (row width %d)", i, len(r))
			}
		}
		transposeColumn(&b.tcols[i], b.rows, i)
		b.tdone[i] = true
	}
	return &b.tcols[i], nil
}

// truncate keeps only the first n rows (post-compaction; row-major fills
// compact their slice, columnar fills just clip the logical count).
func (b *Batch) truncate(n int) {
	if b.colar {
		b.colN = n
		if b.mdone {
			b.mrows = b.mrows[:n]
		}
		return
	}
	b.rows = b.rows[:n]
}

// SetLimit adjusts the fill limit (clamped to ≥ 1) without reallocating.
func (b *Batch) SetLimit(n int) {
	if n < 1 {
		n = 1
	}
	b.limit = n
}

// growVals returns buf resized to hold n values, reallocating only when it
// must — the scratch-buffer idiom of the vectorized evaluator.
func growVals(buf []sqltypes.Value, n int) []sqltypes.Value {
	if cap(buf) < n {
		return make([]sqltypes.Value, n)
	}
	return buf[:n]
}

// rowIter adapts a batch-producing node back to tuple-at-a-time pulls for
// the consumers whose semantics are inherently lazy (subplan evaluation).
// The batch limit chosen at construction bounds over-read: a limit of 1
// reproduces Volcano iteration exactly.
type rowIter struct {
	node Node
	b    *Batch
	idx  int
	eof  bool
}

func newRowIter(node Node, limit int) *rowIter {
	return &rowIter{node: node, b: NewBatch(limit)}
}

// reset rewinds the iterator for a fresh scan of its node.
func (it *rowIter) reset() {
	it.idx = 0
	it.eof = false
	it.b.begin()
}

// next returns the next row (nil at EOF), refilling from the node as
// needed.
func (it *rowIter) next(ctx *Ctx) (storage.Tuple, error) {
	for {
		if it.idx < it.b.Len() {
			t := it.b.Row(it.idx)
			it.idx++
			return t, nil
		}
		if it.eof {
			return nil, nil
		}
		if err := it.node.NextBatch(ctx, it.b); err != nil {
			return nil, err
		}
		it.idx = 0
		if it.b.Len() == 0 {
			it.eof = true
			return nil, nil
		}
	}
}

// drainNode pulls every remaining row of node through the shuttle batch b,
// handing each to fn — the batch-at-a-time replacement for the old
// `for { t := node.Next() }` drains in blocking operators.
func drainNode(ctx *Ctx, node Node, b *Batch, fn func(storage.Tuple) error) error {
	for {
		if err := node.NextBatch(ctx, b); err != nil {
			return err
		}
		if b.Len() == 0 {
			return nil
		}
		for _, t := range b.Rows() {
			if err := fn(t); err != nil {
				return err
			}
		}
	}
}

// allPure reports whether every expression is free of volatile builtins,
// subplans, and UDF calls.
func allPure(exprs []*ExprState) bool {
	for _, e := range exprs {
		if !e.pure {
			return false
		}
	}
	return true
}

// evalExprColumns evaluates exprs over rows into cols (one column per
// expression, sized here). When every expression is pure, each evaluates
// vectorized over the whole batch. Otherwise evaluation is row-major —
// every expression of row r, in plan order, before any expression of row
// r+1 — so within one operator the volatile draw order (`SELECT random(),
// random() …`) matches the tuple-at-a-time executor; column-major
// evaluation would transpose the random() stream across expressions.
// (Cross-stage draw order is handled by Instantiate, which runs volatile
// plans at batch size 1.)
func evalExprColumns(ctx *Ctx, exprs []*ExprState, rows []storage.Tuple, cols [][]sqltypes.Value) error {
	m := len(rows)
	for i := range exprs {
		cols[i] = growVals(cols[i], m)
	}
	if allPure(exprs) {
		for i, e := range exprs {
			if err := e.EvalBatch(ctx, rows, cols[i]); err != nil {
				return err
			}
		}
		return nil
	}
	for r, row := range rows {
		for i, e := range exprs {
			v, err := e.Eval(ctx, row)
			if err != nil {
				return err
			}
			cols[i][r] = v
		}
	}
	return nil
}

// tupleSet is a NULL-aware set of tuples keyed consistently with tupleKey,
// with an allocation-free fast path for single-column integer tuples — the
// shape of the hot WITH RECURSIVE frontiers, whose per-row dedup otherwise
// pays one key-encoding allocation per tuple.
type tupleSet struct {
	ints map[int64]struct{}
	strs map[string]struct{}
}

func newTupleSet() *tupleSet { return &tupleSet{} }

// add inserts t and reports whether it was absent. The int fast path and
// the encoded path partition consistently: normalizeValueForKey maps every
// value that compares equal to an integer (floats with integral values,
// -0.0) onto the same int64, and everything else onto a distinct encoding.
func (s *tupleSet) add(t storage.Tuple) bool {
	if len(t) == 1 {
		v := normalizeValueForKey(t[0])
		if v.Kind() == sqltypes.KindInt {
			if s.ints == nil {
				s.ints = make(map[int64]struct{})
			}
			k := v.Int()
			if _, dup := s.ints[k]; dup {
				return false
			}
			s.ints[k] = struct{}{}
			return true
		}
	}
	if s.strs == nil {
		s.strs = make(map[string]struct{})
	}
	k := tupleKey(t)
	if _, dup := s.strs[k]; dup {
		return false
	}
	s.strs[k] = struct{}{}
	return true
}

// addInt inserts a single-column integer row given its lane value and
// reports whether it was absent. It partitions identically to add:
// normalizeValueForKey maps every value comparing equal to an integer onto
// that int64, which is exactly the value an int lane carries.
func (s *tupleSet) addInt(v int64) bool {
	if s.ints == nil {
		s.ints = make(map[int64]struct{})
	}
	if _, dup := s.ints[v]; dup {
		return false
	}
	s.ints[v] = struct{}{}
	return true
}
