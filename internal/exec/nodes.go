package exec

import (
	"fmt"
	"sort"

	"plsqlaway/internal/catalog"
	"plsqlaway/internal/plan"
	"plsqlaway/internal/sqltypes"
	"plsqlaway/internal/storage"
)

// Node is an instantiated plan operator in the vectorized executor. Open
// prepares scanning from the start (re-callable), NextBatch truncates out
// and appends up to out.Cap() rows — an empty batch after NextBatch means
// end of stream, so implementations loop internally rather than returning
// empty batches mid-stream. Rescan resets cheaply for lateral re-execution,
// Close releases per-open resources.
type Node interface {
	Open(ctx *Ctx) error
	NextBatch(ctx *Ctx, out *Batch) error
	Rescan(ctx *Ctx) error
	Close(ctx *Ctx) error
}

// instantiateNodeRaw builds the runtime node for one plan operator. The
// allocations this performs are the ExecutorStart cost the paper's Table 1
// profiles, paid here once per tree a session's Pool keeps.
func instantiateNodeRaw(p plan.Node, ana *Analyzer) (Node, error) {
	switch x := p.(type) {
	case *plan.Result:
		exprs, err := instantiateAll(x.Exprs...)
		if err != nil {
			return nil, err
		}
		return &resultNode{exprs: exprs}, nil
	case *plan.SeqScan:
		return &seqScanNode{table: x.Table}, nil
	case *plan.IndexScan:
		key, err := instantiateExpr(x.Key)
		if err != nil {
			return nil, err
		}
		return &indexScanNode{table: x.Table, col: x.Col, key: key}, nil
	case *plan.CTEScan:
		return &cteScanNode{index: x.Index, working: x.Working}, nil
	case *plan.Filter:
		child, err := instantiateNode(x.Child, ana)
		if err != nil {
			return nil, err
		}
		pred, err := instantiateExpr(x.Pred)
		if err != nil {
			return nil, err
		}
		return &filterNode{child: child, pred: pred}, nil
	case *plan.Project:
		if hj, ok := x.Child.(*plan.HashJoin); ok && ana == nil {
			// Fuse the projection into the join: combined rows stay
			// pipeline-internal and recycle one arena. ANALYZE skips the
			// fusion — it's a pure optimization, and keeping the node tree
			// 1:1 with the plan tree lets every rendered line carry its own
			// actuals.
			return instantiateHashJoinProject(x, hj)
		}
		child, err := instantiateNode(x.Child, ana)
		if err != nil {
			return nil, err
		}
		exprs, err := instantiateAll(x.Exprs...)
		if err != nil {
			return nil, err
		}
		return &projectNode{child: child, exprs: exprs}, nil
	case *plan.NestLoop:
		l, err := instantiateNode(x.Left, ana)
		if err != nil {
			return nil, err
		}
		r, err := instantiateNode(x.Right, ana)
		if err != nil {
			return nil, err
		}
		n := &nestLoopNode{left: l, right: r, kind: x.Kind, rightWidth: x.Right.Width()}
		if x.On != nil {
			n.on, err = instantiateExpr(x.On)
			if err != nil {
				return nil, err
			}
		}
		return n, nil
	case *plan.HashJoin:
		return instantiateHashJoin(x, ana)
	case *plan.Apply:
		child, err := instantiateNode(x.Child, ana)
		if err != nil {
			return nil, err
		}
		sub, err := instantiateNode(x.Sub, ana)
		if err != nil {
			return nil, err
		}
		return &applyNode{child: child, sub: sub}, nil
	case *plan.Materialize:
		child, err := instantiateNode(x.Child, ana)
		if err != nil {
			return nil, err
		}
		return &materializeNode{child: child}, nil
	case *plan.Agg:
		return instantiateAgg(x, ana)
	case *plan.Window:
		return instantiateWindow(x, ana)
	case *plan.Sort:
		child, err := instantiateNode(x.Child, ana)
		if err != nil {
			return nil, err
		}
		keys, err := instantiateSortKeys(x.Keys)
		if err != nil {
			return nil, err
		}
		return &sortNode{child: child, keys: keys}, nil
	case *plan.Limit:
		child, err := instantiateNode(x.Child, ana)
		if err != nil {
			return nil, err
		}
		n := &limitNode{child: child}
		if x.Limit != nil {
			n.limit, err = instantiateExpr(x.Limit)
			if err != nil {
				return nil, err
			}
		}
		if x.Offset != nil {
			n.offset, err = instantiateExpr(x.Offset)
			if err != nil {
				return nil, err
			}
		}
		return n, nil
	case *plan.Distinct:
		child, err := instantiateNode(x.Child, ana)
		if err != nil {
			return nil, err
		}
		return &distinctNode{child: child}, nil
	case *plan.Append:
		n := &appendNode{}
		for _, c := range x.Children {
			cn, err := instantiateNode(c, ana)
			if err != nil {
				return nil, err
			}
			n.children = append(n.children, cn)
		}
		return n, nil
	case *plan.SetOp:
		l, err := instantiateNode(x.L, ana)
		if err != nil {
			return nil, err
		}
		r, err := instantiateNode(x.R, ana)
		if err != nil {
			return nil, err
		}
		return &setOpNode{op: x.Op, all: x.All, left: l, right: r}, nil
	case *plan.ValuesNode:
		n := &valuesNode{}
		for _, row := range x.Rows {
			es, err := instantiateAll(row...)
			if err != nil {
				return nil, err
			}
			n.rows = append(n.rows, es)
		}
		return n, nil
	case *plan.RecursiveUnion:
		nonRec, err := instantiateNode(x.NonRec, ana)
		if err != nil {
			return nil, err
		}
		rec, err := instantiateNode(x.Rec, ana)
		if err != nil {
			return nil, err
		}
		return &recursiveUnionNode{nonRec: nonRec, rec: rec, cteIndex: x.CTEIndex, iterate: x.Iterate, dedup: x.Dedup}, nil
	case *plan.WithNode:
		child, err := instantiateNode(x.Child, ana)
		if err != nil {
			return nil, err
		}
		return &withNode{indices: x.Indices, child: child}, nil
	case *plan.Loop:
		return instantiateLoop(x)
	case *plan.Memo:
		return instantiateMemo(x, ana)
	default:
		return nil, fmt.Errorf("exec: cannot instantiate plan node %T", p)
	}
}

func instantiateSortKeys(keys []plan.SortKey) ([]sortKeyState, error) {
	out := make([]sortKeyState, len(keys))
	for i, k := range keys {
		es, err := instantiateExpr(k.Expr)
		if err != nil {
			return nil, err
		}
		out[i] = sortKeyState{expr: es, desc: k.Desc}
	}
	return out, nil
}

type sortKeyState struct {
	expr *ExprState
	desc bool
}

// compareKeyValues orders values with NULLS LAST ascending (PostgreSQL
// default) and NULLS FIRST descending.
func compareKeyValues(a, b sqltypes.Value, desc bool) int {
	an, bn := a.IsNull(), b.IsNull()
	if an || bn {
		switch {
		case an && bn:
			return 0
		case an:
			if desc {
				return -1
			}
			return 1
		default:
			if desc {
				return 1
			}
			return -1
		}
	}
	c, err := sqltypes.Compare(a, b)
	if err != nil {
		return 0
	}
	if desc {
		return -c
	}
	return c
}

// ---------------------------------------------------------------------------
// result / scans / filter / project
// ---------------------------------------------------------------------------

type resultNode struct {
	exprs []*ExprState
	done  bool
}

func (n *resultNode) Open(ctx *Ctx) error   { n.done = false; return nil }
func (n *resultNode) Rescan(ctx *Ctx) error { n.done = false; return nil }
func (n *resultNode) Close(ctx *Ctx) error  { return nil }
func (n *resultNode) NextBatch(ctx *Ctx, out *Batch) error {
	out.begin()
	if n.done {
		return nil
	}
	n.done = true
	row := make(storage.Tuple, len(n.exprs))
	for i, e := range n.exprs {
		v, err := e.Eval(ctx, nil)
		if err != nil {
			return err
		}
		row[i] = v
	}
	out.Add(row)
	return nil
}

// seqScanNode reads a base table through the heap's chunked snapshot
// scanner: each NextBatch is one bulk header copy rather than one virtual
// call per row.
type seqScanNode struct {
	table *catalog.Table
	scan  *storage.HeapScanner
	held  bool
}

func (n *seqScanNode) release() { n.scan, n.held = nil, false }

func (n *seqScanNode) Open(ctx *Ctx) error {
	ctx.hold(n, &n.held)
	if ov := ctx.overlayFor(n.table.Heap); !ov.Empty() {
		// Inside a transaction that wrote this heap: merge the pinned
		// snapshot with the buffered writes so the scan reads its own
		// uncommitted rows.
		rows, err := n.table.Heap.RowsAtOverlay(ctx.TS, ov)
		if err != nil {
			return err
		}
		n.scan = storage.NewScanner(rows)
		return nil
	}
	scan, err := n.table.Heap.ScannerAt(ctx.TS)
	if err != nil {
		return err
	}
	n.scan = scan
	return nil
}

func (n *seqScanNode) Rescan(ctx *Ctx) error {
	if n.scan == nil {
		return n.Open(ctx)
	}
	n.scan.Reset()
	return nil
}

func (n *seqScanNode) Close(ctx *Ctx) error { return nil }
func (n *seqScanNode) NextBatch(ctx *Ctx, out *Batch) error {
	out.begin()
	if n.scan == nil {
		return nil
	}
	out.Append(n.scan.NextChunk(out.Cap()))
	return nil
}

// indexScanNode probes a declared hash index: the key expression is
// evaluated once per (re)scan against the current outer bindings.
type indexScanNode struct {
	table *catalog.Table
	col   int
	key   *ExprState
	rows  []storage.Tuple
	hits  []int
	idx   int
	held  bool
}

func (n *indexScanNode) release() { n.rows, n.hits, n.held = nil, nil, false }

func (n *indexScanNode) Open(ctx *Ctx) error { return n.Rescan(ctx) }

func (n *indexScanNode) Rescan(ctx *Ctx) error {
	ctx.hold(n, &n.held)
	n.idx = 0
	k, err := n.key.Eval(ctx, nil)
	if err != nil {
		return err
	}
	if ov := ctx.overlayFor(n.table.Heap); !ov.Empty() {
		// The hash index is built over committed snapshots only; inside a
		// transaction that wrote this heap, fall back to a linear filter
		// over the merged rows so probes see the buffered writes.
		rows, err := n.table.Heap.RowsAtOverlay(ctx.TS, ov)
		if err != nil {
			return err
		}
		n.rows = rows
		n.hits = n.hits[:0]
		if !k.IsNull() {
			for i, r := range rows {
				if sqltypes.Identical(r[n.col], k) {
					n.hits = append(n.hits, i)
				}
			}
		}
		return nil
	}
	index, ok := n.table.IndexOn(n.col)
	if !ok {
		return fmt.Errorf("exec: no index on %s column %d", n.table.Name, n.col)
	}
	n.hits, n.rows, err = index.Probe(n.table, k, ctx.TS)
	return err
}

func (n *indexScanNode) Close(ctx *Ctx) error { return nil }
func (n *indexScanNode) NextBatch(ctx *Ctx, out *Batch) error {
	out.begin()
	for !out.Full() && n.idx < len(n.hits) {
		out.Add(n.rows[n.hits[n.idx]])
		n.idx++
	}
	return nil
}

type filterNode struct {
	child Node
	pred  *ExprState
	in    *Batch
	sel   []sqltypes.Value
}

func (n *filterNode) Open(ctx *Ctx) error {
	if n.in == nil {
		n.in = NewBatch(ctx.BatchSize)
	}
	return n.child.Open(ctx)
}
func (n *filterNode) Rescan(ctx *Ctx) error { return n.child.Rescan(ctx) }
func (n *filterNode) Close(ctx *Ctx) error  { return n.child.Close(ctx) }

// NextBatch pulls input batches sized to the consumer's limit (so bounded
// consumers like LIMIT or subplan pulls never over-read) and evaluates the
// predicate over each whole batch before compacting survivors into out as
// zero-copy row headers.
func (n *filterNode) NextBatch(ctx *Ctx, out *Batch) error {
	out.begin()
	for {
		n.in.SetLimit(out.Cap())
		if err := n.child.NextBatch(ctx, n.in); err != nil {
			return err
		}
		if n.in.Len() == 0 {
			return nil
		}
		rows := n.in.Rows()
		n.sel = growVals(n.sel, len(rows))
		if err := n.pred.EvalBatch(ctx, rows, n.sel); err != nil {
			return err
		}
		for i, v := range n.sel[:len(rows)] {
			if v.IsTrue() {
				out.Add(rows[i])
			}
		}
		if out.Len() > 0 {
			return nil
		}
	}
}

type projectNode struct {
	child Node
	exprs []*ExprState
	in    *Batch
	cols  [][]sqltypes.Value
}

func (n *projectNode) Open(ctx *Ctx) error {
	if n.in == nil {
		n.in = NewBatch(ctx.BatchSize)
		n.cols = make([][]sqltypes.Value, len(n.exprs))
	}
	return n.child.Open(ctx)
}
func (n *projectNode) Rescan(ctx *Ctx) error { return n.child.Rescan(ctx) }
func (n *projectNode) Close(ctx *Ctx) error  { return n.child.Close(ctx) }

// NextBatch evaluates every projection expression over the whole input
// batch (one tree walk per expression per batch instead of per row), then
// assembles the output rows from the resulting columns. One backing array
// serves all rows of a batch, so the per-row cost is one slice header.
func (n *projectNode) NextBatch(ctx *Ctx, out *Batch) error {
	out.begin()
	n.in.SetLimit(out.Cap())
	if err := n.child.NextBatch(ctx, n.in); err != nil {
		return err
	}
	if n.in.Len() == 0 {
		return nil
	}
	return projectColumns(ctx, n.exprs, n.in.Rows(), n.cols, out)
}

// projectColumns evaluates a projection over one input batch
// (row-major when any expression is impure — see evalExprColumns) and
// emits the assembled rows into out, slicing them off one backing array
// per batch. Shared by projectNode and the fused hashJoinProjectNode.
func projectColumns(ctx *Ctx, exprs []*ExprState, rows []storage.Tuple, cols [][]sqltypes.Value, out *Batch) error {
	if err := evalExprColumns(ctx, exprs, rows, cols); err != nil {
		return err
	}
	m, w := len(rows), len(exprs)
	backing := make([]sqltypes.Value, m*w)
	for r := 0; r < m; r++ {
		t := backing[r*w : (r+1)*w : (r+1)*w]
		for c := 0; c < w; c++ {
			t[c] = cols[c][r]
		}
		out.Add(storage.Tuple(t))
	}
	return nil
}

// ---------------------------------------------------------------------------
// joins
// ---------------------------------------------------------------------------

type nestLoopNode struct {
	left, right Node
	kind        plan.JoinKind
	on          *ExprState
	rightWidth  int

	in          *Batch // left rows
	inIdx       int
	leftEOF     bool
	rin         *Batch // right rows for the current left row
	rinIdx      int
	rightEOF    bool
	curLeft     storage.Tuple
	haveCur     bool
	matched     bool
	pushed      bool
	rightOpened bool
}

func (n *nestLoopNode) Open(ctx *Ctx) error {
	if n.in == nil {
		n.in = NewBatch(ctx.BatchSize)
		n.rin = NewBatch(ctx.BatchSize)
	}
	if err := n.left.Open(ctx); err != nil {
		return err
	}
	// The right side may be correlated (LATERAL): its Open must only run
	// once a left row is on the outer stack, so it is deferred to NextBatch.
	n.rightOpened = false
	n.reset()
	return nil
}

func (n *nestLoopNode) reset() {
	n.in.begin()
	n.inIdx = 0
	n.leftEOF = false
	n.haveCur = false
}

func (n *nestLoopNode) Rescan(ctx *Ctx) error {
	if n.pushed {
		ctx.popOuter()
		n.pushed = false
	}
	if err := n.left.Rescan(ctx); err != nil {
		return err
	}
	n.reset()
	return nil
}

func (n *nestLoopNode) Close(ctx *Ctx) error {
	if n.pushed {
		ctx.popOuter()
		n.pushed = false
	}
	err1 := n.left.Close(ctx)
	err2 := n.right.Close(ctx)
	if err1 != nil {
		return err1
	}
	return err2
}

// NextBatch maintains the invariant that the left row is on the outer stack
// exactly while the right subtree (and the ON predicate) runs — it is
// popped before a batch is handed upward, so expressions evaluated by
// parent nodes see the stack depth the binder assumed.
func (n *nestLoopNode) NextBatch(ctx *Ctx, out *Batch) error {
	out.begin()
	for {
		if !n.haveCur {
			if n.inIdx >= n.in.Len() {
				if n.leftEOF {
					return nil
				}
				// Bound the pull by the consumer's cap so a LIMIT above
				// never makes the left pipeline compute past the cut; a
				// consumer bounded below the configured batch size (LIMIT,
				// subplan pulls) degrades to one left row at a time, since
				// one left row's fan-out alone may satisfy the cut.
				lim := out.Cap()
				if lim > 1 && lim < ctx.BatchSize {
					lim = 1
				}
				n.in.SetLimit(lim)
				if err := n.left.NextBatch(ctx, n.in); err != nil {
					return err
				}
				n.inIdx = 0
				if n.in.Len() == 0 {
					n.leftEOF = true
					return nil
				}
			}
			n.curLeft = n.in.Row(n.inIdx)
			n.inIdx++
			n.haveCur = true
			n.matched = false
			ctx.pushOuter(n.curLeft)
			n.pushed = true
			if !n.rightOpened {
				if err := n.right.Open(ctx); err != nil {
					return err
				}
				n.rightOpened = true
			} else if err := n.right.Rescan(ctx); err != nil {
				return err
			}
			n.rightEOF = false
			n.rin.begin()
			n.rinIdx = 0
		}
		if !n.pushed { // resuming after having handed a full batch upward
			ctx.pushOuter(n.curLeft)
			n.pushed = true
		}
		if n.rinIdx >= n.rin.Len() {
			if !n.rightEOF {
				n.rin.SetLimit(out.Cap())
				if err := n.right.NextBatch(ctx, n.rin); err != nil {
					return err
				}
				n.rinIdx = 0
				if n.rin.Len() == 0 {
					n.rightEOF = true
				}
			}
			if n.rightEOF {
				ctx.popOuter()
				n.pushed = false
				emitNull := n.kind == plan.JoinLeft && !n.matched
				n.haveCur = false
				if emitNull {
					out.Add(concatTuples(n.curLeft, nullTuple(n.rightWidth)))
					if out.Full() {
						return nil
					}
				}
				continue
			}
		}
		rt := n.rin.Row(n.rinIdx)
		n.rinIdx++
		combined := concatTuples(n.curLeft, rt)
		if n.on != nil {
			ok, err := n.on.Eval(ctx, combined)
			if err != nil {
				return err
			}
			if !ok.IsTrue() {
				continue
			}
		}
		n.matched = true
		out.Add(combined)
		if out.Full() {
			ctx.popOuter()
			n.pushed = false
			return nil
		}
	}
}

type materializeNode struct {
	child Node
	rows  []storage.Tuple
	idx   int
	built bool // kept across Opens within a run
	held  bool
}

func (n *materializeNode) release() { n.rows, n.built, n.held = nil, false, false }

func (n *materializeNode) Open(ctx *Ctx) error {
	ctx.hold(n, &n.held)
	n.idx = 0
	if n.built {
		return nil
	}
	if err := n.child.Open(ctx); err != nil {
		return err
	}
	b := NewBatch(ctx.BatchSize)
	err := drainNode(ctx, n.child, b, func(t storage.Tuple) error {
		n.rows = append(n.rows, t)
		return nil
	})
	if err != nil {
		return err
	}
	n.built = true
	return n.child.Close(ctx)
}

func (n *materializeNode) Rescan(ctx *Ctx) error { n.idx = 0; return nil }
func (n *materializeNode) Close(ctx *Ctx) error  { return nil }
func (n *materializeNode) NextBatch(ctx *Ctx, out *Batch) error {
	n.idx += copyChunk(out, n.rows, n.idx)
	return nil
}

// copyChunk fills out with the next chunk of rows starting at idx and
// returns how many were copied — the shared emit loop of every
// materializing operator.
func copyChunk(out *Batch, rows []storage.Tuple, idx int) int {
	out.begin()
	if idx >= len(rows) {
		return 0
	}
	end := idx + out.Cap()
	if end > len(rows) {
		end = len(rows)
	}
	out.Append(rows[idx:end])
	return end - idx
}

// ---------------------------------------------------------------------------
// sort / limit / distinct / append / set ops / values
// ---------------------------------------------------------------------------

type sortNode struct {
	child Node
	keys  []sortKeyState
	rows  []storage.Tuple
	idx   int
	kexp  []*ExprState
	kcols [][]sqltypes.Value
	held  bool
}

func (n *sortNode) release() { n.rows, n.held = nil, false }

func (n *sortNode) Open(ctx *Ctx) error {
	ctx.hold(n, &n.held)
	n.rows = n.rows[:0]
	n.idx = 0
	if n.kexp == nil {
		n.kexp = make([]*ExprState, len(n.keys))
		for k := range n.keys {
			n.kexp[k] = n.keys[k].expr
		}
		n.kcols = make([][]sqltypes.Value, len(n.keys))
	}
	if err := n.child.Open(ctx); err != nil {
		return err
	}
	type keyed struct {
		row  storage.Tuple
		keys []sqltypes.Value
	}
	var rows []keyed
	b := NewBatch(ctx.BatchSize)
	for {
		if err := n.child.NextBatch(ctx, b); err != nil {
			return err
		}
		m := b.Len()
		if m == 0 {
			break
		}
		// Evaluate the sort keys over the whole batch (row-major when any
		// key is volatile), then slice the per-row key vectors out of one
		// backing array.
		if err := evalExprColumns(ctx, n.kexp, b.Rows(), n.kcols); err != nil {
			return err
		}
		backing := make([]sqltypes.Value, m*len(n.keys))
		for k := range n.keys {
			for i := 0; i < m; i++ {
				backing[i*len(n.keys)+k] = n.kcols[k][i]
			}
		}
		for i, t := range b.Rows() {
			rows = append(rows, keyed{row: t, keys: backing[i*len(n.keys) : (i+1)*len(n.keys)]})
		}
	}
	sort.SliceStable(rows, func(i, j int) bool {
		for k := range n.keys {
			c := compareKeyValues(rows[i].keys[k], rows[j].keys[k], n.keys[k].desc)
			if c != 0 {
				return c < 0
			}
		}
		return false
	})
	for _, r := range rows {
		n.rows = append(n.rows, r.row)
	}
	return n.child.Close(ctx)
}

func (n *sortNode) Rescan(ctx *Ctx) error { return n.Open(ctx) }
func (n *sortNode) Close(ctx *Ctx) error  { return nil }
func (n *sortNode) NextBatch(ctx *Ctx, out *Batch) error {
	n.idx += copyChunk(out, n.rows, n.idx)
	return nil
}

type limitNode struct {
	child         Node
	limit, offset *ExprState
	remaining     int64
	toSkip        int64
	unlimited     bool
	in            *Batch
}

func (n *limitNode) Open(ctx *Ctx) error {
	if n.in == nil {
		n.in = NewBatch(ctx.BatchSize)
	}
	if err := n.child.Open(ctx); err != nil {
		return err
	}
	return n.reset(ctx)
}

func (n *limitNode) reset(ctx *Ctx) error {
	n.unlimited = true
	n.remaining = 0
	n.toSkip = 0
	if n.limit != nil {
		v, err := n.limit.Eval(ctx, nil)
		if err != nil {
			return err
		}
		if !v.IsNull() {
			iv, err := sqltypes.Cast(v, sqltypes.TypeInt)
			if err != nil {
				return err
			}
			n.unlimited = false
			n.remaining = iv.Int()
		}
	}
	if n.offset != nil {
		v, err := n.offset.Eval(ctx, nil)
		if err != nil {
			return err
		}
		if !v.IsNull() {
			iv, err := sqltypes.Cast(v, sqltypes.TypeInt)
			if err != nil {
				return err
			}
			n.toSkip = iv.Int()
		}
	}
	return nil
}

func (n *limitNode) Rescan(ctx *Ctx) error {
	if err := n.child.Rescan(ctx); err != nil {
		return err
	}
	return n.reset(ctx)
}

func (n *limitNode) Close(ctx *Ctx) error { return n.child.Close(ctx) }

// NextBatch bounds every child pull by the rows it still needs — skip
// counts while discarding the OFFSET prefix, then the LIMIT remainder — so
// the pipeline below never computes past the cut regardless of batch size.
func (n *limitNode) NextBatch(ctx *Ctx, out *Batch) error {
	out.begin()
	for n.toSkip > 0 {
		k := out.Cap()
		if int64(k) > n.toSkip {
			k = int(n.toSkip)
		}
		n.in.SetLimit(k)
		if err := n.child.NextBatch(ctx, n.in); err != nil {
			return err
		}
		if n.in.Len() == 0 {
			return nil
		}
		n.toSkip -= int64(n.in.Len())
	}
	k := out.Cap()
	if !n.unlimited {
		if n.remaining <= 0 {
			return nil
		}
		if int64(k) > n.remaining {
			k = int(n.remaining)
		}
	}
	n.in.SetLimit(k)
	if err := n.child.NextBatch(ctx, n.in); err != nil {
		return err
	}
	if !n.unlimited {
		n.remaining -= int64(n.in.Len())
	}
	out.Append(n.in.Rows())
	return nil
}

type distinctNode struct {
	child Node
	seen  *tupleSet
	in    *Batch
	held  bool
}

func (n *distinctNode) release() { n.seen, n.held = nil, false }

func (n *distinctNode) Open(ctx *Ctx) error {
	ctx.hold(n, &n.held)
	n.seen = newTupleSet()
	if n.in == nil {
		n.in = NewBatch(ctx.BatchSize)
	}
	return n.child.Open(ctx)
}

func (n *distinctNode) Rescan(ctx *Ctx) error {
	n.seen = newTupleSet()
	return n.child.Rescan(ctx)
}

func (n *distinctNode) Close(ctx *Ctx) error { return n.child.Close(ctx) }

func (n *distinctNode) NextBatch(ctx *Ctx, out *Batch) error {
	out.begin()
	for {
		n.in.SetLimit(out.Cap())
		if err := n.child.NextBatch(ctx, n.in); err != nil {
			return err
		}
		if n.in.Len() == 0 {
			return nil
		}
		for _, t := range n.in.Rows() {
			if n.seen.add(t) {
				out.Add(t)
			}
		}
		if out.Len() > 0 {
			return nil
		}
	}
}

type appendNode struct {
	children []Node
	cur      int
}

func (n *appendNode) Open(ctx *Ctx) error {
	n.cur = 0
	for _, c := range n.children {
		if err := c.Open(ctx); err != nil {
			return err
		}
	}
	return nil
}

func (n *appendNode) Rescan(ctx *Ctx) error {
	n.cur = 0
	for _, c := range n.children {
		if err := c.Rescan(ctx); err != nil {
			return err
		}
	}
	return nil
}

func (n *appendNode) Close(ctx *Ctx) error {
	var first error
	for _, c := range n.children {
		if err := c.Close(ctx); err != nil && first == nil {
			first = err
		}
	}
	return first
}

func (n *appendNode) NextBatch(ctx *Ctx, out *Batch) error {
	out.begin()
	for n.cur < len(n.children) {
		if err := n.children[n.cur].NextBatch(ctx, out); err != nil {
			return err
		}
		if out.Len() > 0 {
			return nil
		}
		n.cur++
	}
	return nil
}

type setOpNode struct {
	op          string
	all         bool
	left, right Node

	out  []storage.Tuple
	idx  int
	held bool
}

func (n *setOpNode) release() { n.out, n.held = nil, false }

func (n *setOpNode) Open(ctx *Ctx) error {
	ctx.hold(n, &n.held)
	if err := n.left.Open(ctx); err != nil {
		return err
	}
	if err := n.right.Open(ctx); err != nil {
		return err
	}
	return n.build(ctx)
}

func (n *setOpNode) build(ctx *Ctx) error {
	n.out = nil
	n.idx = 0
	b := NewBatch(ctx.BatchSize)
	rightCount := map[string]int{}
	err := drainNode(ctx, n.right, b, func(t storage.Tuple) error {
		rightCount[tupleKey(t)]++
		return nil
	})
	if err != nil {
		return err
	}
	emitted := map[string]bool{}
	err = drainNode(ctx, n.left, b, func(t storage.Tuple) error {
		k := tupleKey(t)
		switch n.op {
		case "INTERSECT":
			if rightCount[k] > 0 {
				if n.all {
					rightCount[k]--
					n.out = append(n.out, t)
				} else if !emitted[k] {
					emitted[k] = true
					n.out = append(n.out, t)
				}
			}
		case "EXCEPT":
			if n.all {
				if rightCount[k] > 0 {
					rightCount[k]--
				} else {
					n.out = append(n.out, t)
				}
			} else if rightCount[k] == 0 && !emitted[k] {
				emitted[k] = true
				n.out = append(n.out, t)
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	n.left.Close(ctx)
	n.right.Close(ctx)
	return nil
}

func (n *setOpNode) Rescan(ctx *Ctx) error {
	if err := n.left.Rescan(ctx); err != nil {
		return err
	}
	if err := n.right.Rescan(ctx); err != nil {
		return err
	}
	return n.build(ctx)
}

func (n *setOpNode) Close(ctx *Ctx) error { return nil }

func (n *setOpNode) NextBatch(ctx *Ctx, out *Batch) error {
	n.idx += copyChunk(out, n.out, n.idx)
	return nil
}

type valuesNode struct {
	rows [][]*ExprState
	idx  int
}

func (n *valuesNode) Open(ctx *Ctx) error   { n.idx = 0; return nil }
func (n *valuesNode) Rescan(ctx *Ctx) error { n.idx = 0; return nil }
func (n *valuesNode) Close(ctx *Ctx) error  { return nil }
func (n *valuesNode) NextBatch(ctx *Ctx, out *Batch) error {
	out.begin()
	for !out.Full() && n.idx < len(n.rows) {
		es := n.rows[n.idx]
		n.idx++
		row := make(storage.Tuple, len(es))
		for i, e := range es {
			v, err := e.Eval(ctx, nil)
			if err != nil {
				return err
			}
			row[i] = v
		}
		out.Add(row)
	}
	return nil
}
