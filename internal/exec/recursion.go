package exec

import (
	"fmt"

	"plsqlaway/internal/storage"
)

// rowSet is one generation of a recursion working table.
type rowSet struct {
	rows []storage.Tuple
}

func (s *rowSet) len() int { return len(s.rows) }

// absorb appends the batch's rows, dedup-filtering through seen when
// non-nil. Row headers are retained as-is (producers materialize fresh
// backing for retainable rows, per the Batch contract).
func (s *rowSet) absorb(b *Batch, seen *tupleSet) {
	if seen == nil {
		s.rows = append(s.rows, b.Rows()...)
		return
	}
	for _, t := range b.Rows() {
		if seen.add(t) {
			s.rows = append(s.rows, t)
		}
	}
}

// emitChunk fills out with up to Cap row headers starting at idx and
// returns the new index.
func (s *rowSet) emitChunk(out *Batch, idx int) int {
	out.begin()
	end := min(idx+out.Cap(), len(s.rows))
	if idx >= end {
		return idx
	}
	out.Append(s.rows[idx:end])
	return end
}

// cteScanNode reads a common table expression. A working scan (the
// self-reference inside a recursive term) streams the current working
// table; plain scans stream the store materialized by withNode through
// the store's chunked iterator.
type cteScanNode struct {
	index   int
	working bool

	// plain mode
	iter *storage.TupleIterator
	buf  []storage.Tuple
	// working mode
	set  *rowSet
	idx  int
	held bool
}

func (n *cteScanNode) release() { n.iter, n.set, n.held = nil, nil, false }

func (n *cteScanNode) Open(ctx *Ctx) error { return n.Rescan(ctx) }

func (n *cteScanNode) Rescan(ctx *Ctx) error {
	ctx.hold(n, &n.held)
	if n.working {
		if n.index >= len(ctx.cteWorking) {
			return fmt.Errorf("exec: working table %d not available", n.index)
		}
		n.set = ctx.cteWorking[n.index]
		n.idx = 0
		return nil
	}
	if n.index >= len(ctx.cteStores) || ctx.cteStores[n.index] == nil {
		return fmt.Errorf("exec: CTE %d not materialized", n.index)
	}
	n.iter = ctx.cteStores[n.index].Iterator()
	return nil
}

func (n *cteScanNode) Close(ctx *Ctx) error { return nil }

func (n *cteScanNode) NextBatch(ctx *Ctx, out *Batch) error {
	if n.working {
		if n.set == nil {
			out.begin()
			return nil
		}
		n.idx = n.set.emitChunk(out, n.idx)
		return nil
	}
	out.begin()
	if n.iter == nil {
		return nil
	}
	if cap(n.buf) < out.Cap() {
		n.buf = make([]storage.Tuple, out.Cap())
	}
	got, err := n.iter.NextChunk(n.buf[:out.Cap()])
	if err != nil {
		return err
	}
	out.Append(n.buf[:got])
	return nil
}

// recursiveUnionNode implements WITH RECURSIVE (and the paper's WITH
// ITERATE). It streams rows so the enclosing withNode can account every
// accumulated row through a spilling TupleStore:
//
//	working ← nonRecursive term            (rows are emitted)
//	while working not empty:
//	    cteWorking[idx] ← working
//	    working ← recursive term           (rows are emitted — vanilla mode)
//
// The working tables advance a batch at a time: each step drains the
// recursive term through the batch pipeline (the working-table scan hands
// the current generation out in chunks, the hash-join probe and projection
// evaluate vectorized over those chunks), which is exactly the quadratic-
// trace hot loop of the paper's Table 2 experiment. UNION dedup runs
// through a tupleSet with an int fast path for single-column frontiers.
//
// Iterate mode emits nothing until the iteration converges, then emits only
// the final non-empty working table: tail recursion needs no trace, so no
// buffer pages are ever written (Table 2).
type recursiveUnionNode struct {
	nonRec, rec Node
	cteIndex    int
	iterate     bool
	dedup       bool

	phase      int // 0 = emitting current batch, 1 = done
	batch      *rowSet
	batchIdx   int
	working    *rowSet
	seen       *tupleSet
	shuttle    *Batch
	iterations int
	opened     bool
	held       bool
}

func (n *recursiveUnionNode) release() {
	n.batch, n.working, n.seen, n.held = nil, nil, nil, false
}

func (n *recursiveUnionNode) Open(ctx *Ctx) error {
	if n.shuttle == nil {
		n.shuttle = NewBatch(ctx.BatchSize)
	}
	if err := n.nonRec.Open(ctx); err != nil {
		return err
	}
	if err := n.rec.Open(ctx); err != nil {
		return err
	}
	n.opened = true
	return n.reseed(ctx)
}

// reseed restarts the recursion from the non-recursive term, which the
// caller has just opened or rescanned.
func (n *recursiveUnionNode) reseed(ctx *Ctx) error {
	ctx.hold(n, &n.held)
	n.phase = 0
	n.batchIdx = 0
	n.iterations = 0
	n.seen = nil
	if n.dedup {
		n.seen = newTupleSet()
	}
	var err error
	n.working, err = n.drain(ctx, n.nonRec)
	if err != nil {
		return err
	}
	if n.iterate {
		if err := n.runToConvergence(ctx); err != nil {
			return err
		}
	}
	n.batch = n.working
	return nil
}

// drain pulls all rows from a term batch-at-a-time into a fresh rowSet,
// applying UNION dedup if requested.
func (n *recursiveUnionNode) drain(ctx *Ctx, node Node) (*rowSet, error) {
	out := &rowSet{}
	for {
		if err := node.NextBatch(ctx, n.shuttle); err != nil {
			return nil, err
		}
		if n.shuttle.Len() == 0 {
			return out, nil
		}
		out.absorb(n.shuttle, n.seen)
	}
}

// step runs one round of the recursive term against the current working
// table.
func (n *recursiveUnionNode) step(ctx *Ctx) (*rowSet, error) {
	n.iterations++
	if n.iterations > ctx.MaxRecursion {
		return nil, fmt.Errorf("exec: recursion limit of %d iterations exceeded (runaway WITH RECURSIVE?)", ctx.MaxRecursion)
	}
	for len(ctx.cteWorking) <= n.cteIndex {
		ctx.cteWorking = append(ctx.cteWorking, nil)
	}
	ctx.cteWorking[n.cteIndex] = n.working
	if err := n.rec.Rescan(ctx); err != nil {
		return nil, err
	}
	return n.drain(ctx, n.rec)
}

// runToConvergence (Iterate mode) loops until the recursive term yields no
// rows, keeping only the latest working table.
func (n *recursiveUnionNode) runToConvergence(ctx *Ctx) error {
	for n.working.len() > 0 {
		next, err := n.step(ctx)
		if err != nil {
			return err
		}
		if next.len() == 0 {
			return nil // working holds the final non-empty table
		}
		n.working = next
	}
	return nil
}

func (n *recursiveUnionNode) Rescan(ctx *Ctx) error {
	if err := n.nonRec.Rescan(ctx); err != nil {
		return err
	}
	return n.reseed(ctx)
}

func (n *recursiveUnionNode) Close(ctx *Ctx) error {
	if !n.opened {
		return nil
	}
	err1 := n.nonRec.Close(ctx)
	err2 := n.rec.Close(ctx)
	if err1 != nil {
		return err1
	}
	return err2
}

func (n *recursiveUnionNode) NextBatch(ctx *Ctx, out *Batch) error {
	out.begin()
	for {
		if n.batch != nil && n.batchIdx < n.batch.len() {
			n.batchIdx = n.batch.emitChunk(out, n.batchIdx)
			return nil
		}
		if n.phase == 1 || n.iterate {
			return nil
		}
		if n.working.len() == 0 {
			n.phase = 1
			return nil
		}
		next, err := n.step(ctx)
		if err != nil {
			return err
		}
		n.working = next
		n.batch = next
		n.batchIdx = 0
		if next.len() == 0 {
			n.phase = 1
			return nil
		}
	}
}

// withNode owns the CTEs of one query level. Opening (or rescanning)
// re-materializes them — correlated CTE bodies (the inlined compiled
// queries) see the current outer bindings.
type withNode struct {
	indices []int
	child   Node
}

func (n *withNode) Open(ctx *Ctx) error {
	if err := n.materialize(ctx); err != nil {
		return err
	}
	return n.child.Open(ctx)
}

func (n *withNode) Rescan(ctx *Ctx) error {
	if err := n.materialize(ctx); err != nil {
		return err
	}
	return n.child.Rescan(ctx)
}

func (n *withNode) materialize(ctx *Ctx) error {
	b := NewBatch(ctx.BatchSize)
	for _, idx := range n.indices {
		for len(ctx.cteStores) <= idx {
			ctx.cteStores = append(ctx.cteStores, nil)
		}
		if ctx.cteStores[idx] != nil {
			ctx.cteStores[idx].Close()
			ctx.cteStores[idx] = nil
		}
		def := ctx.cteDefs[idx]
		if def == nil {
			return fmt.Errorf("exec: CTE %d has no instantiated definition", idx)
		}
		store := storage.NewTupleStore(ctx.StorageStats, ctx.WorkMem)
		if err := def.Open(ctx); err != nil {
			return err
		}
		for {
			if err := def.NextBatch(ctx, b); err != nil {
				def.Close(ctx)
				return err
			}
			if b.Len() == 0 {
				break
			}
			store.AppendBatch(b.Rows())
		}
		if err := def.Close(ctx); err != nil {
			return err
		}
		store.Finish()
		ctx.cteStores[idx] = store
	}
	return nil
}

func (n *withNode) Close(ctx *Ctx) error {
	for _, idx := range n.indices {
		if idx < len(ctx.cteStores) && ctx.cteStores[idx] != nil {
			ctx.cteStores[idx].Close()
			ctx.cteStores[idx] = nil
		}
	}
	return n.child.Close(ctx)
}

func (n *withNode) NextBatch(ctx *Ctx, out *Batch) error { return n.child.NextBatch(ctx, out) }
