package exec

import (
	"fmt"
	"strings"

	"plsqlaway/internal/plan"
	"plsqlaway/internal/sqltypes"
	"plsqlaway/internal/storage"
)

// aggState accumulates one aggregate over one group.
type aggState struct {
	spec     *aggSpecState
	count    int64
	sum      sqltypes.Value
	extreme  sqltypes.Value
	boolAcc  sqltypes.Value
	strParts []string
	distinct map[string]bool
}

type aggSpecState struct {
	fn       string
	arg      *ExprState
	sep      *ExprState
	star     bool
	distinct bool
}

type aggNode struct {
	child  Node
	groups []*ExprState
	specs  []*aggSpecState
	out    []storage.Tuple
	idx    int

	// Shared column set of evalColumns: grouping keys followed by the
	// non-star aggregate arguments (argPos maps spec index → column, -1 for
	// count(*)).
	evalList []*ExprState
	argPos   []int
	evalCols [][]sqltypes.Value

	held bool
}

func (n *aggNode) release() { n.out, n.held = nil, false }

func instantiateAgg(x *plan.Agg, ana *Analyzer) (Node, error) {
	child, err := instantiateNode(x.Child, ana)
	if err != nil {
		return nil, err
	}
	n := &aggNode{child: child}
	for _, g := range x.GroupBy {
		es, err := instantiateExpr(g)
		if err != nil {
			return nil, err
		}
		n.groups = append(n.groups, es)
	}
	for _, a := range x.Aggs {
		s := &aggSpecState{fn: a.Func, star: a.Star, distinct: a.Distinct}
		if a.Arg != nil {
			s.arg, err = instantiateExpr(a.Arg)
			if err != nil {
				return nil, err
			}
		}
		if a.Sep != nil {
			s.sep, err = instantiateExpr(a.Sep)
			if err != nil {
				return nil, err
			}
		}
		n.specs = append(n.specs, s)
	}
	return n, nil
}

func newAggState(s *aggSpecState) *aggState {
	st := &aggState{spec: s, sum: sqltypes.Null, extreme: sqltypes.Null, boolAcc: sqltypes.Null}
	if s.distinct {
		st.distinct = make(map[string]bool)
	}
	return st
}

func (st *aggState) accumulate(ctx *Ctx, row storage.Tuple) error {
	if st.spec.star {
		st.count++
		return nil
	}
	v, err := st.spec.arg.Eval(ctx, row)
	if err != nil {
		return err
	}
	return st.accumulateValue(v)
}

// accumulateValue folds one already-evaluated argument into the state (the
// batch path evaluates arguments vectorized and feeds them here).
func (st *aggState) accumulateValue(v sqltypes.Value) error {
	var err error
	if v.IsNull() {
		return nil // aggregates ignore NULL inputs
	}
	if st.distinct != nil {
		k := tupleKey(storage.Tuple{v})
		if st.distinct[k] {
			return nil
		}
		st.distinct[k] = true
	}
	st.count++
	switch st.spec.fn {
	case "count":
	case "sum", "avg":
		if st.sum.IsNull() {
			st.sum = v
		} else {
			st.sum, err = sqltypes.Add(st.sum, v)
			if err != nil {
				return err
			}
		}
	case "min":
		if st.extreme.IsNull() {
			st.extreme = v
		} else if c, err := sqltypes.Compare(v, st.extreme); err != nil {
			return err
		} else if c < 0 {
			st.extreme = v
		}
	case "max":
		if st.extreme.IsNull() {
			st.extreme = v
		} else if c, err := sqltypes.Compare(v, st.extreme); err != nil {
			return err
		} else if c > 0 {
			st.extreme = v
		}
	case "bool_and":
		if v.Kind() != sqltypes.KindBool {
			return fmt.Errorf("bool_and expects boolean input, got %s", v.Kind())
		}
		if st.boolAcc.IsNull() {
			st.boolAcc = v
		} else {
			st.boolAcc = sqltypes.NewBool(st.boolAcc.Bool() && v.Bool())
		}
	case "bool_or":
		if v.Kind() != sqltypes.KindBool {
			return fmt.Errorf("bool_or expects boolean input, got %s", v.Kind())
		}
		if st.boolAcc.IsNull() {
			st.boolAcc = v
		} else {
			st.boolAcc = sqltypes.NewBool(st.boolAcc.Bool() || v.Bool())
		}
	case "string_agg":
		st.strParts = append(st.strParts, v.String())
	default:
		return fmt.Errorf("exec: unknown aggregate %s", st.spec.fn)
	}
	return nil
}

func (st *aggState) result(ctx *Ctx, sampleRow storage.Tuple) (sqltypes.Value, error) {
	switch st.spec.fn {
	case "count":
		return sqltypes.NewInt(st.count), nil
	case "sum":
		return st.sum, nil
	case "avg":
		if st.count == 0 || st.sum.IsNull() {
			return sqltypes.Null, nil
		}
		return sqltypes.NewFloat(st.sum.AsFloat() / float64(st.count)), nil
	case "min", "max":
		return st.extreme, nil
	case "bool_and", "bool_or":
		return st.boolAcc, nil
	case "string_agg":
		if st.count == 0 {
			return sqltypes.Null, nil
		}
		sep := ","
		if st.spec.sep != nil {
			sv, err := st.spec.sep.Eval(ctx, sampleRow)
			if err != nil {
				return sqltypes.Null, err
			}
			if !sv.IsNull() {
				sep = sv.String()
			}
		}
		return sqltypes.NewText(strings.Join(st.strParts, sep)), nil
	}
	return sqltypes.Null, fmt.Errorf("exec: unknown aggregate %s", st.spec.fn)
}

// evalColumns evaluates the grouping keys and aggregate arguments over one
// batch as a single expression-column set — keys first, then arguments in
// spec order, which is exactly the per-row order the tuple-at-a-time
// executor evaluated them in, so evalExprColumns' row-major fallback for
// impure expressions preserves the volatile draw order. groupCols and
// argCols come back aliasing the shared column set.
func (n *aggNode) evalColumns(ctx *Ctx, rows []storage.Tuple, groupCols, argCols [][]sqltypes.Value) error {
	if n.evalList == nil {
		n.evalList = append(n.evalList, n.groups...)
		n.argPos = make([]int, len(n.specs))
		for i, s := range n.specs {
			if s.star {
				n.argPos[i] = -1
				continue
			}
			n.argPos[i] = len(n.evalList)
			n.evalList = append(n.evalList, s.arg)
		}
		n.evalCols = make([][]sqltypes.Value, len(n.evalList))
	}
	if err := evalExprColumns(ctx, n.evalList, rows, n.evalCols); err != nil {
		return err
	}
	for i := range n.groups {
		groupCols[i] = n.evalCols[i]
	}
	for i, pos := range n.argPos {
		if pos >= 0 {
			argCols[i] = n.evalCols[pos]
		}
	}
	return nil
}

func (n *aggNode) Open(ctx *Ctx) error {
	ctx.hold(n, &n.held)
	n.out = nil
	n.idx = 0
	if err := n.child.Open(ctx); err != nil {
		return err
	}
	type group struct {
		keys   storage.Tuple
		states []*aggState
		sample storage.Tuple
	}
	var order []string
	groupsByKey := map[string]*group{}
	// Drain the child batch-at-a-time, evaluating the grouping keys and
	// every aggregate argument vectorized over each batch before the
	// per-row fold into the group states. A grand aggregate (no GROUP BY)
	// skips group-key hashing entirely — one state set folds every row.
	b := NewBatch(ctx.BatchSize)
	groupCols := make([][]sqltypes.Value, len(n.groups))
	argCols := make([][]sqltypes.Value, len(n.specs))
	var grand *group
	if len(n.groups) == 0 {
		grand = &group{}
		for _, s := range n.specs {
			grand.states = append(grand.states, newAggState(s))
		}
	}
	for {
		if err := n.child.NextBatch(ctx, b); err != nil {
			return err
		}
		m := b.Len()
		if m == 0 {
			break
		}
		rows := b.Rows()
		if err := n.evalColumns(ctx, rows, groupCols, argCols); err != nil {
			return err
		}
		if grand != nil {
			// Grand aggregate: fold column-major — one pass per aggregate
			// over its evaluated argument column, no per-row group lookup.
			if grand.sample == nil {
				grand.sample = rows[0]
			}
			for i, st := range grand.states {
				if st.spec.star {
					st.count += int64(m)
					continue
				}
				col := argCols[i]
				for r := 0; r < m; r++ {
					if err := st.accumulateValue(col[r]); err != nil {
						return err
					}
				}
			}
			continue
		}
		for r := 0; r < m; r++ {
			t := rows[r]
			keys := make(storage.Tuple, len(n.groups))
			for i := range n.groups {
				keys[i] = groupCols[i][r]
			}
			k := tupleKey(keys)
			grp, ok := groupsByKey[k]
			if !ok {
				grp = &group{keys: keys, sample: t}
				for _, s := range n.specs {
					grp.states = append(grp.states, newAggState(s))
				}
				groupsByKey[k] = grp
				order = append(order, k)
			}
			for i, st := range grp.states {
				if st.spec.star {
					st.count++
					continue
				}
				if err := st.accumulateValue(argCols[i][r]); err != nil {
					return err
				}
			}
		}
	}
	if grand != nil && grand.sample != nil {
		// The grand group joins the emit path below under an empty key.
		groupsByKey[""] = grand
		order = append(order, "")
	}
	if len(order) == 0 && len(n.groups) == 0 {
		// Grand aggregate over empty input: one row of defaults.
		row := make(storage.Tuple, len(n.specs))
		for i, s := range n.specs {
			st := newAggState(s)
			v, err := st.result(ctx, nil)
			if err != nil {
				return err
			}
			row[i] = v
		}
		n.out = append(n.out, row)
	}
	for _, k := range order {
		grp := groupsByKey[k]
		row := make(storage.Tuple, 0, len(n.groups)+len(n.specs))
		row = append(row, grp.keys...)
		for _, st := range grp.states {
			v, err := st.result(ctx, grp.sample)
			if err != nil {
				return err
			}
			row = append(row, v)
		}
		n.out = append(n.out, row)
	}
	return n.child.Close(ctx)
}

// Rescan recomputes with the current outer bindings; Open is re-callable
// per the Node contract.
func (n *aggNode) Rescan(ctx *Ctx) error { return n.Open(ctx) }

func (n *aggNode) Close(ctx *Ctx) error { return nil }

func (n *aggNode) NextBatch(ctx *Ctx, out *Batch) error {
	n.idx += copyChunk(out, n.out, n.idx)
	return nil
}
