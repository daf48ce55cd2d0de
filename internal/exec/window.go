package exec

import (
	"fmt"
	"sort"

	"plsqlaway/internal/plan"
	"plsqlaway/internal/sqltypes"
	"plsqlaway/internal/storage"
)

// windowFnState is one instantiated window computation.
type windowFnState struct {
	fn          string
	arg         *ExprState
	star        bool
	partitionBy []*ExprState
	orderBy     []sortKeyState
	frame       *plan.FrameSpec
	startOff    *ExprState
	endOff      *ExprState
	offset      *ExprState // lag/lead
}

type windowNode struct {
	child Node
	funcs []*windowFnState
	out   []storage.Tuple
	idx   int
	held  bool
}

func (n *windowNode) release() { n.out, n.held = nil, false }

func instantiateWindow(x *plan.Window, ana *Analyzer) (Node, error) {
	child, err := instantiateNode(x.Child, ana)
	if err != nil {
		return nil, err
	}
	n := &windowNode{child: child}
	for i := range x.Funcs {
		wf := &x.Funcs[i]
		st := &windowFnState{fn: wf.Func, star: wf.Star, frame: wf.Frame}
		if wf.Arg != nil {
			st.arg, err = instantiateExpr(wf.Arg)
			if err != nil {
				return nil, err
			}
		}
		for _, p := range wf.PartitionBy {
			es, err := instantiateExpr(p)
			if err != nil {
				return nil, err
			}
			st.partitionBy = append(st.partitionBy, es)
		}
		st.orderBy, err = instantiateSortKeys(wf.OrderBy)
		if err != nil {
			return nil, err
		}
		if wf.Frame != nil {
			if wf.Frame.StartOff != nil {
				st.startOff, err = instantiateExpr(wf.Frame.StartOff)
				if err != nil {
					return nil, err
				}
			}
			if wf.Frame.EndOff != nil {
				st.endOff, err = instantiateExpr(wf.Frame.EndOff)
				if err != nil {
					return nil, err
				}
			}
		}
		if wf.Offset != nil {
			st.offset, err = instantiateExpr(wf.Offset)
			if err != nil {
				return nil, err
			}
		}
		n.funcs = append(n.funcs, st)
	}
	return n, nil
}

func (n *windowNode) Open(ctx *Ctx) error {
	ctx.hold(n, &n.held)
	n.out = nil
	n.idx = 0
	if err := n.child.Open(ctx); err != nil {
		return err
	}
	var rows []storage.Tuple
	b := NewBatch(ctx.BatchSize)
	if err := drainNode(ctx, n.child, b, func(t storage.Tuple) error {
		rows = append(rows, t)
		return nil
	}); err != nil {
		return err
	}
	if err := n.child.Close(ctx); err != nil {
		return err
	}

	// Compute each function's column, indexed by original row position.
	cols := make([][]sqltypes.Value, len(n.funcs))
	for fi, wf := range n.funcs {
		vals, err := wf.compute(ctx, rows)
		if err != nil {
			return err
		}
		cols[fi] = vals
	}
	for ri, r := range rows {
		out := make(storage.Tuple, 0, len(r)+len(n.funcs))
		out = append(out, r...)
		for fi := range n.funcs {
			out = append(out, cols[fi][ri])
		}
		n.out = append(n.out, out)
	}
	return nil
}

func (n *windowNode) Rescan(ctx *Ctx) error { return n.Open(ctx) }
func (n *windowNode) Close(ctx *Ctx) error  { return nil }
func (n *windowNode) NextBatch(ctx *Ctx, out *Batch) error {
	n.idx += copyChunk(out, n.out, n.idx)
	return nil
}

// compute evaluates the window function over all rows, returning one value
// per original row index. Partition and order keys are evaluated vectorized
// over the whole input before the per-partition passes.
func (wf *windowFnState) compute(ctx *Ctx, rows []storage.Tuple) ([]sqltypes.Value, error) {
	out := make([]sqltypes.Value, len(rows))

	// Evaluate partition and order keys as one column set so the impure
	// fallback of evalExprColumns preserves the row-major draw order
	// (partition keys before order keys, per row).
	keyExprs := make([]*ExprState, 0, len(wf.partitionBy)+len(wf.orderBy))
	keyExprs = append(keyExprs, wf.partitionBy...)
	for k := range wf.orderBy {
		keyExprs = append(keyExprs, wf.orderBy[k].expr)
	}
	keyCols := make([][]sqltypes.Value, len(keyExprs))
	if err := evalExprColumns(ctx, keyExprs, rows, keyCols); err != nil {
		return nil, err
	}
	pCols := keyCols[:len(wf.partitionBy)]
	oCols := keyCols[len(wf.partitionBy):]

	// Partition rows (keeping original indices).
	partitions := map[string][]partRow{}
	var order []string
	pkeys := make(storage.Tuple, len(wf.partitionBy))
	for i := range rows {
		for k := range wf.partitionBy {
			pkeys[k] = pCols[k][i]
		}
		key := tupleKey(pkeys)
		if _, ok := partitions[key]; !ok {
			order = append(order, key)
		}
		okeys := make([]sqltypes.Value, len(wf.orderBy))
		for k := range wf.orderBy {
			okeys[k] = oCols[k][i]
		}
		partitions[key] = append(partitions[key], partRow{idx: i, keys: okeys})
	}

	for _, pk := range order {
		part := partitions[pk]
		sort.SliceStable(part, func(a, b int) bool {
			for k := range wf.orderBy {
				c := compareKeyValues(part[a].keys[k], part[b].keys[k], wf.orderBy[k].desc)
				if c != 0 {
					return c < 0
				}
			}
			return false
		})
		if err := wf.computePartition(ctx, rows, part, out); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// partRow pairs a row's original index with its evaluated order keys.
type partRow struct {
	idx  int
	keys []sqltypes.Value
}

func (wf *windowFnState) computePartition(ctx *Ctx, rows []storage.Tuple, part []partRow, out []sqltypes.Value) error {
	peersEqual := func(a, b int) bool {
		for k := range wf.orderBy {
			if compareKeyValues(part[a].keys[k], part[b].keys[k], wf.orderBy[k].desc) != 0 {
				return false
			}
		}
		return true
	}

	switch wf.fn {
	case "row_number":
		for i := range part {
			out[part[i].idx] = sqltypes.NewInt(int64(i + 1))
		}
		return nil
	case "rank":
		rank := 1
		for i := range part {
			if i > 0 && !peersEqual(i, i-1) {
				rank = i + 1
			}
			out[part[i].idx] = sqltypes.NewInt(int64(rank))
		}
		return nil
	case "dense_rank":
		rank := 0
		for i := range part {
			if i == 0 || !peersEqual(i, i-1) {
				rank++
			}
			out[part[i].idx] = sqltypes.NewInt(int64(rank))
		}
		return nil
	case "lag", "lead":
		off := int64(1)
		if wf.offset != nil {
			v, err := wf.offset.Eval(ctx, nil)
			if err != nil {
				return err
			}
			if !v.IsNull() {
				off = v.Int()
			}
		}
		if wf.fn == "lag" {
			off = -off
		}
		for i := range part {
			j := int64(i) + off
			if j < 0 || j >= int64(len(part)) {
				out[part[i].idx] = sqltypes.Null
				continue
			}
			v, err := wf.arg.Eval(ctx, rows[part[j].idx])
			if err != nil {
				return err
			}
			out[part[i].idx] = v
		}
		return nil
	case "first_value", "last_value":
		for i := range part {
			lo, hi, err := wf.frameBounds(ctx, part, i, peersEqual)
			if err != nil {
				return err
			}
			if lo > hi {
				out[part[i].idx] = sqltypes.Null
				continue
			}
			j := lo
			if wf.fn == "last_value" {
				j = hi
			}
			v, err := wf.arg.Eval(ctx, rows[part[j].idx])
			if err != nil {
				return err
			}
			out[part[i].idx] = v
		}
		return nil
	}

	// Frame-based aggregate (sum/count/avg/min/max/bool_and/bool_or).
	for i := range part {
		lo, hi, err := wf.frameBounds(ctx, part, i, peersEqual)
		if err != nil {
			return err
		}
		st := newAggState(&aggSpecState{fn: wf.fn, arg: wf.arg, star: wf.star})
		for j := lo; j <= hi && j < len(part); j++ {
			if j < 0 {
				continue
			}
			if wf.frame != nil && wf.frame.ExcludeCurrent && j == i {
				continue
			}
			if err := st.accumulate(ctx, rows[part[j].idx]); err != nil {
				return err
			}
		}
		v, err := st.result(ctx, rows[part[i].idx])
		if err != nil {
			return err
		}
		out[part[i].idx] = v
	}
	return nil
}

// frameBounds resolves the frame of row i within the sorted partition as an
// inclusive index range.
func (wf *windowFnState) frameBounds(ctx *Ctx, part []partRow, i int, peersEqual func(a, b int) bool) (int, int, error) {
	last := len(part) - 1
	// Default frame: with ORDER BY, RANGE UNBOUNDED PRECEDING..CURRENT ROW
	// (including peers); without, the whole partition.
	if wf.frame == nil {
		if len(wf.orderBy) == 0 {
			return 0, last, nil
		}
		hi := i
		for hi < last && peersEqual(hi+1, i) {
			hi++
		}
		return 0, hi, nil
	}
	fr := wf.frame
	evalOff := func(es *ExprState) (int, error) {
		v, err := es.Eval(ctx, nil)
		if err != nil {
			return 0, err
		}
		iv, err := sqltypes.Cast(v, sqltypes.TypeInt)
		if err != nil {
			return 0, err
		}
		if iv.IsNull() || iv.Int() < 0 {
			return 0, fmt.Errorf("frame offset must be non-negative")
		}
		return int(iv.Int()), nil
	}
	bound := func(kind plan.FrameBoundKind, off *ExprState, isStart bool) (int, error) {
		switch kind {
		case plan.FrameUnboundedPreceding:
			return 0, nil
		case plan.FrameUnboundedFollowing:
			return last, nil
		case plan.FrameCurrentRow:
			if fr.Rows {
				return i, nil
			}
			// RANGE: current row extends over its peer group.
			if isStart {
				lo := i
				for lo > 0 && peersEqual(lo-1, i) {
					lo--
				}
				return lo, nil
			}
			hi := i
			for hi < last && peersEqual(hi+1, i) {
				hi++
			}
			return hi, nil
		case plan.FramePreceding:
			if !fr.Rows {
				return 0, fmt.Errorf("RANGE n PRECEDING is not supported")
			}
			n, err := evalOff(off)
			if err != nil {
				return 0, err
			}
			return i - n, nil
		case plan.FrameFollowing:
			if !fr.Rows {
				return 0, fmt.Errorf("RANGE n FOLLOWING is not supported")
			}
			n, err := evalOff(off)
			if err != nil {
				return 0, err
			}
			return i + n, nil
		}
		return 0, fmt.Errorf("bad frame bound")
	}
	lo, err := bound(fr.Start, wf.startOff, true)
	if err != nil {
		return 0, 0, err
	}
	hi, err := bound(fr.End, wf.endOff, false)
	if err != nil {
		return 0, 0, err
	}
	if lo < 0 {
		lo = 0
	}
	if hi > last {
		hi = last
	}
	return lo, hi, nil
}
