package exec

import (
	"fmt"

	"plsqlaway/internal/sqltypes"
	"plsqlaway/internal/storage"
)

// rowSet is one generation of a recursion working table. The hot frontier
// shape — all-integer rows with no NULLs, the paper's graph-traversal
// closure — stays columnar in unboxed int64 lanes: nothing for the GC to
// scan, one machine word per row per column, and the lanes are handed back
// to the working-table scan as zero-copy column views. Any other shape
// falls back to boxed rows. A set picks its layout on first absorb and
// demotes to rows if a later batch disagrees; each generation is a fresh
// set, so the layouts may differ across iterations. UNION dedup keeps the
// lane layout only for single-column frontiers (tupleSet's int fast path);
// wider deduped frontiers need boxed keys anyway, so they stay rows.
type rowSet struct {
	colar bool
	w     int
	lanes [][]int64
	rows  []storage.Tuple
}

func (s *rowSet) len() int {
	if s.colar {
		return len(s.lanes[0])
	}
	return len(s.rows)
}

// allIntLanes reports whether every column of the batch is a NULL-free int
// lane — the only shape the lane layout holds losslessly. Row-major batches
// answer through the Batch's cached transpose, so a seed generation
// produced by a row-major term (DISTINCT, VALUES) still lands in lanes and
// keeps every later generation columnar.
func allIntLanes(b *Batch, w int) bool {
	for c := 0; c < w; c++ {
		col, err := b.Col(c)
		if err != nil || col.Kind != ColInt {
			return false
		}
		for _, isNull := range col.Nulls {
			if isNull {
				return false
			}
		}
	}
	return true
}

// absorb appends the batch's rows, dedup-filtering through seen when
// non-nil. Row headers from row-major batches are retained as-is (producers
// materialize fresh backing for retainable rows, per the Batch contract).
func (s *rowSet) absorb(b *Batch, seen *tupleSet) {
	m := b.Len()
	if m == 0 {
		return
	}
	w := b.Width()
	if w > 0 && (seen == nil || w == 1) &&
		((s.colar && s.w == w) || s.len() == 0) && allIntLanes(b, w) {
		if !s.colar {
			s.colar = true
			s.w = w
			if cap(s.lanes) < w {
				s.lanes = make([][]int64, w)
			}
			s.lanes = s.lanes[:w]
		}
		if seen == nil {
			for c := 0; c < w; c++ {
				col, _ := b.Col(c)
				s.lanes[c] = append(s.lanes[c], col.Ints[:m]...)
			}
			return
		}
		col, _ := b.Col(0)
		for _, v := range col.Ints[:m] {
			if seen.addInt(v) {
				s.lanes[0] = append(s.lanes[0], v)
			}
		}
		return
	}
	if s.colar {
		s.demote()
	}
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

// demote boxes the int lanes into rows (mixed-shape generations).
func (s *rowSet) demote() {
	n := s.len()
	rows := make([]storage.Tuple, 0, n)
	backing := make([]sqltypes.Value, n*s.w)
	for i := 0; i < n; i++ {
		t := backing[i*s.w : (i+1)*s.w : (i+1)*s.w]
		for c := 0; c < s.w; c++ {
			t[c] = sqltypes.NewInt(s.lanes[c][i])
		}
		rows = append(rows, storage.Tuple(t))
	}
	s.rows = rows
	s.lanes = nil
	s.colar = false
	s.w = 0
}

// emitChunk fills out with up to Cap rows starting at idx and returns the
// new index. Lane sets emit zero-copy column views through the caller's
// scratch (valid until the caller's next emit — the producer-owned-view
// lifetime); row sets emit row headers.
func (s *rowSet) emitChunk(out *Batch, idx int, views *[]Column, ptrs *[]*Column) int {
	out.begin()
	n := s.len()
	if idx >= n {
		return idx
	}
	end := idx + out.Cap()
	if end > n {
		end = n
	}
	if s.colar {
		if cap(*views) < s.w {
			*views = make([]Column, s.w)
			*ptrs = make([]*Column, s.w)
		}
		vs := (*views)[:s.w]
		ps := (*ptrs)[:s.w]
		for c := 0; c < s.w; c++ {
			vs[c] = Column{Kind: ColInt, Ints: s.lanes[c][idx:end]}
			ps[c] = &vs[c]
		}
		out.SetCols(ps, end-idx)
	} else {
		out.Append(s.rows[idx:end])
	}
	return end
}

// cteScanNode reads a common table expression. A working scan (the
// self-reference inside a recursive term) streams the current working
// table — columnar when the generation is lane-shaped; plain scans stream
// the store materialized by withNode through the store's chunked iterator.
type cteScanNode struct {
	index   int
	working bool

	// plain mode
	iter *storage.TupleIterator
	buf  []storage.Tuple
	// working mode
	set   *rowSet
	idx   int
	views []Column
	ptrs  []*Column
	held  bool
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
		n.idx = n.set.emitChunk(out, n.idx, &n.views, &n.ptrs)
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
// trace hot loop of the paper's Table 2 experiment. Single-column integer
// generations live in rowSet int lanes end to end — scan emission, join
// probe, projection, dedup (tupleSet's int fast path), and the next
// generation's accumulation never box a value. UNION dedup runs through a
// tupleSet with an int fast path for single-column frontiers.
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
	views      []Column
	ptrs       []*Column
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
			n.batchIdx = n.batch.emitChunk(out, n.batchIdx, &n.views, &n.ptrs)
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
