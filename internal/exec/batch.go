package exec

import (
	"plsqlaway/internal/sqltypes"
	"plsqlaway/internal/storage"
)

// DefaultBatchSize is the number of tuples a pipeline moves per NextBatch
// call. Swept over a WITH RECURSIVE graph-frontier query, it was a flat ≈1.5× plateau from 64 to 1024 rows over
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
type Batch struct {
	rows  []storage.Tuple
	limit int
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
func (b *Batch) begin() { b.rows = b.rows[:0] }

// Len reports the number of rows currently held.
func (b *Batch) Len() int { return len(b.rows) }

// Cap reports the fill limit.
func (b *Batch) Cap() int { return b.limit }

// Full reports whether the batch reached its fill limit.
func (b *Batch) Full() bool { return b.Len() >= b.limit }

// Add appends one row.
func (b *Batch) Add(t storage.Tuple) { b.rows = append(b.rows, t) }

// Append bulk-appends rows (the caller respects the limit).
func (b *Batch) Append(ts []storage.Tuple) { b.rows = append(b.rows, ts...) }

// Row returns row i.
func (b *Batch) Row(i int) storage.Tuple { return b.rows[i] }

// Rows exposes the held rows. The slice is invalidated by the next refill;
// consumers that retain rows must copy the headers out first (the headers
// stay valid).
func (b *Batch) Rows() []storage.Tuple { return b.rows }

// truncate keeps only the first n rows (post-compaction).
func (b *Batch) truncate(n int) { b.rows = b.rows[:n] }

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
// handing each to fn: the drain loop of the blocking operators.
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
