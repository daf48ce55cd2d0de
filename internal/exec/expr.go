package exec

import (
	"fmt"

	"plsqlaway/internal/catalog"
	"plsqlaway/internal/plan"
	"plsqlaway/internal/sqltypes"
	"plsqlaway/internal/storage"
)

// exprKind discriminates instantiated expression nodes.
type exprKind uint8

const (
	kConst exprKind = iota
	kInput
	kOuter
	kParam
	kBin
	kUnary
	kIsNull
	kBetween
	kInList
	kCase
	kFunc
	kCast
	kRow
	kField
	kSubplan
	kUDF
	kLet
)

// ExprState is an instantiated expression: the runtime twin of plan.Expr.
// Building this tree is part of ExecutorStart — exactly the per-call
// allocation work the paper's compilation removes from the hot loop.
type ExprState struct {
	kind exprKind

	val     sqltypes.Value // kConst
	idx     int            // kInput, kOuter, kField (positional), kParam (ordinal)
	depth   int            // kOuter
	op      string         // kBin, kUnary, kField (named field)
	bin     binCode        // kBin: precomputed operator dispatch code
	kids    []*ExprState   // operands / args / CASE [operand?, cond1, res1, cond2, res2, …] / kLet slots
	elseK   *ExprState     // kCase else arm, kLet body
	hasOp   bool           // kCase has operand
	negate  bool           // kIsNull, kBetween, kInList, kSubplan
	builtin builtinFn      // kFunc
	name    string         // kFunc (diagnostics)
	typ     sqltypes.Type  // kCast

	sub     Node // kSubplan: instantiated subplan
	subMode plan.SubplanMode
	subCmp  *ExprState // kSubplan IN: left-hand value
	subIter *rowIter   // kSubplan: reused pull adapter over sub

	fn *catalog.Function // kUDF

	// pure marks subtrees free of subplans, UDF calls, and volatile
	// builtins (random, setseed): exactly the expressions EvalBatch may
	// evaluate operator-at-a-time over a whole batch without changing
	// evaluation counts or the deterministic random() stream.
	pure bool

	// bufs are per-operand scratch columns for batch evaluation, reused
	// across calls (an ExprState belongs to one executor instantiation and
	// is never evaluated reentrantly when pure).
	bufs [][]sqltypes.Value
	args []sqltypes.Value // kFunc: per-row argument scratch; kLet: the slot row

	// selRows/selIdx are the selection-vector scratch of vectorized AND/OR:
	// the subset of rows whose right operand must actually be evaluated.
	selRows []storage.Tuple
	selIdx  []int
}

// InstantiateExpr builds the runtime tree for a standalone compiled
// expression (the interpreter's fast path uses it directly).
func InstantiateExpr(e plan.Expr) (*ExprState, error) { return instantiateExpr(e) }

// instantiateExpr builds the runtime tree for e and finalizes its purity
// flag (children are finalized first — construction is bottom-up).
func instantiateExpr(e plan.Expr) (*ExprState, error) {
	es, err := buildExpr(e)
	if err != nil {
		return nil, err
	}
	es.pure = es.computePure()
	return es, nil
}

func (es *ExprState) computePure() bool {
	switch es.kind {
	case kSubplan, kUDF, kLet:
		// (kLet pushes its input row, so it evaluates row by row.)
		return false
	case kFunc:
		if es.name == "random" || es.name == "setseed" {
			return false
		}
	}
	for _, k := range es.kids {
		if !k.pure {
			return false
		}
	}
	if es.elseK != nil && !es.elseK.pure {
		return false
	}
	return true
}

// buildExpr constructs the runtime tree for e.
func buildExpr(e plan.Expr) (*ExprState, error) {
	switch x := e.(type) {
	case *plan.Const:
		return &ExprState{kind: kConst, val: x.Val}, nil
	case *plan.InputRef:
		return &ExprState{kind: kInput, idx: x.Idx}, nil
	case *plan.OuterRef:
		return &ExprState{kind: kOuter, idx: x.Idx, depth: x.Depth}, nil
	case *plan.ParamRef:
		return &ExprState{kind: kParam, idx: x.Ordinal}, nil
	case *plan.BinOp:
		l, err := instantiateExpr(x.L)
		if err != nil {
			return nil, err
		}
		r, err := instantiateExpr(x.R)
		if err != nil {
			return nil, err
		}
		return &ExprState{kind: kBin, op: x.Op, bin: binCodeFor(x.Op), kids: []*ExprState{l, r}}, nil
	case *plan.UnaryOp:
		k, err := instantiateExpr(x.X)
		if err != nil {
			return nil, err
		}
		return &ExprState{kind: kUnary, op: x.Op, kids: []*ExprState{k}}, nil
	case *plan.IsNullExpr:
		k, err := instantiateExpr(x.X)
		if err != nil {
			return nil, err
		}
		return &ExprState{kind: kIsNull, negate: x.Negate, kids: []*ExprState{k}}, nil
	case *plan.BetweenExpr:
		ks, err := instantiateAll(x.X, x.Lo, x.Hi)
		if err != nil {
			return nil, err
		}
		return &ExprState{kind: kBetween, negate: x.Negate, kids: ks}, nil
	case *plan.InListExpr:
		ks, err := instantiateAll(append([]plan.Expr{x.X}, x.List...)...)
		if err != nil {
			return nil, err
		}
		return &ExprState{kind: kInList, negate: x.Negate, kids: ks}, nil
	case *plan.CaseExpr:
		st := &ExprState{kind: kCase}
		if x.Operand != nil {
			op, err := instantiateExpr(x.Operand)
			if err != nil {
				return nil, err
			}
			st.kids = append(st.kids, op)
			st.hasOp = true
		}
		for _, w := range x.Whens {
			c, err := instantiateExpr(w.Cond)
			if err != nil {
				return nil, err
			}
			r, err := instantiateExpr(w.Result)
			if err != nil {
				return nil, err
			}
			st.kids = append(st.kids, c, r)
		}
		if x.Else != nil {
			e, err := instantiateExpr(x.Else)
			if err != nil {
				return nil, err
			}
			st.elseK = e
		}
		return st, nil
	case *plan.FuncExpr:
		ks, err := instantiateAll(x.Args...)
		if err != nil {
			return nil, err
		}
		fn, ok := builtins[x.Name]
		if !ok {
			return nil, fmt.Errorf("exec: builtin %q not implemented", x.Name)
		}
		return &ExprState{kind: kFunc, name: x.Name, builtin: fn, kids: ks}, nil
	case *plan.CastExpr:
		k, err := instantiateExpr(x.X)
		if err != nil {
			return nil, err
		}
		return &ExprState{kind: kCast, typ: x.Type, kids: []*ExprState{k}}, nil
	case *plan.RowCtor:
		ks, err := instantiateAll(x.Fields...)
		if err != nil {
			return nil, err
		}
		return &ExprState{kind: kRow, kids: ks}, nil
	case *plan.FieldSel:
		k, err := instantiateExpr(x.X)
		if err != nil {
			return nil, err
		}
		return &ExprState{kind: kField, idx: x.Index, op: x.Name, kids: []*ExprState{k}}, nil
	case *plan.SubplanExpr:
		sub, err := instantiateNode(x.Plan, nil)
		if err != nil {
			return nil, err
		}
		st := &ExprState{kind: kSubplan, sub: sub, subMode: x.Mode, negate: x.Negate}
		if x.CompareX != nil {
			cmp, err := instantiateExpr(x.CompareX)
			if err != nil {
				return nil, err
			}
			st.subCmp = cmp
		}
		return st, nil
	case *plan.LetExpr:
		ks, err := instantiateAll(x.Slots...)
		if err != nil {
			return nil, err
		}
		body, err := instantiateExpr(x.Body)
		if err != nil {
			return nil, err
		}
		return &ExprState{kind: kLet, kids: ks, elseK: body, args: make([]sqltypes.Value, len(ks))}, nil
	case *plan.UDFCallExpr:
		ks, err := instantiateAll(x.Args...)
		if err != nil {
			return nil, err
		}
		return &ExprState{kind: kUDF, fn: x.Func, kids: ks}, nil
	default:
		return nil, fmt.Errorf("exec: cannot instantiate expression %T", e)
	}
}

func instantiateAll(es ...plan.Expr) ([]*ExprState, error) {
	out := make([]*ExprState, len(es))
	for i, e := range es {
		var err error
		out[i], err = instantiateExpr(e)
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// Eval evaluates the expression for the given input row.
func (es *ExprState) Eval(ctx *Ctx, row storage.Tuple) (sqltypes.Value, error) {
	switch es.kind {
	case kConst:
		return es.val, nil
	case kInput:
		if es.idx >= len(row) {
			return sqltypes.Null, fmt.Errorf("exec: input column %d out of range (row width %d)", es.idx, len(row))
		}
		return row[es.idx], nil
	case kOuter:
		t, err := ctx.outerAt(es.depth)
		if err != nil {
			return sqltypes.Null, err
		}
		if es.idx >= len(t) {
			return sqltypes.Null, fmt.Errorf("exec: outer column %d out of range (row width %d)", es.idx, len(t))
		}
		return t[es.idx], nil
	case kParam:
		if es.idx < 1 || es.idx > len(ctx.Params) {
			return sqltypes.Null, fmt.Errorf("exec: no value for parameter $%d", es.idx)
		}
		return ctx.Params[es.idx-1], nil
	case kBin:
		return es.evalBinary(ctx, row)
	case kUnary:
		x, err := es.kids[0].Eval(ctx, row)
		if err != nil {
			return sqltypes.Null, err
		}
		if es.op == "NOT" {
			return sqltypes.Not(x)
		}
		return sqltypes.Neg(x)
	case kIsNull:
		x, err := es.kids[0].Eval(ctx, row)
		if err != nil {
			return sqltypes.Null, err
		}
		return sqltypes.NewBool(x.IsNull() != es.negate), nil
	case kBetween:
		x, err := es.kids[0].Eval(ctx, row)
		if err != nil {
			return sqltypes.Null, err
		}
		lo, err := es.kids[1].Eval(ctx, row)
		if err != nil {
			return sqltypes.Null, err
		}
		hi, err := es.kids[2].Eval(ctx, row)
		if err != nil {
			return sqltypes.Null, err
		}
		ge, err := sqltypes.CompareOp(">=", x, lo)
		if err != nil {
			return sqltypes.Null, err
		}
		le, err := sqltypes.CompareOp("<=", x, hi)
		if err != nil {
			return sqltypes.Null, err
		}
		res, err := sqltypes.And(ge, le)
		if err != nil || !es.negate {
			return res, err
		}
		return sqltypes.Not(res)
	case kInList:
		return es.evalInList(ctx, row)
	case kCase:
		return es.evalCase(ctx, row)
	case kFunc:
		args := make([]sqltypes.Value, len(es.kids))
		for i, k := range es.kids {
			var err error
			args[i], err = k.Eval(ctx, row)
			if err != nil {
				return sqltypes.Null, err
			}
		}
		v, err := es.builtin(ctx, args)
		if err != nil {
			return sqltypes.Null, fmt.Errorf("%s: %w", es.name, err)
		}
		return v, nil
	case kCast:
		x, err := es.kids[0].Eval(ctx, row)
		if err != nil {
			return sqltypes.Null, err
		}
		return sqltypes.Cast(x, es.typ)
	case kRow:
		fields := make([]sqltypes.Value, len(es.kids))
		for i, k := range es.kids {
			var err error
			fields[i], err = k.Eval(ctx, row)
			if err != nil {
				return sqltypes.Null, err
			}
		}
		return sqltypes.NewRow(fields), nil
	case kField:
		x, err := es.kids[0].Eval(ctx, row)
		if err != nil {
			return sqltypes.Null, err
		}
		return fieldOf(x, es.idx, es.op)
	case kSubplan:
		return es.evalSubplan(ctx, row)
	case kUDF:
		args := make([]sqltypes.Value, len(es.kids))
		for i, k := range es.kids {
			var err error
			args[i], err = k.Eval(ctx, row)
			if err != nil {
				return sqltypes.Null, err
			}
		}
		if ctx.CallFn == nil {
			return sqltypes.Null, fmt.Errorf("exec: no function-call hook installed for %s", es.fn.Name)
		}
		if ctx.CallDepth >= ctx.MaxCallDepth {
			return sqltypes.Null, fmt.Errorf("exec: call stack depth limit (%d) exceeded in %s", ctx.MaxCallDepth, es.fn.Name)
		}
		ctx.CallDepth++
		v, err := ctx.CallFn(es.fn, args)
		ctx.CallDepth--
		return v, err
	case kLet:
		if err := es.bindSlots(ctx, row); err != nil {
			return sqltypes.Null, err
		}
		v, err := es.elseK.Eval(ctx, es.args)
		ctx.popOuter()
		return v, err
	default:
		return sqltypes.Null, fmt.Errorf("exec: bad expression kind %d", es.kind)
	}
}

// noRow is the input row of a FROM-less SELECT: what plan.Result emits.
var noRow = storage.Tuple{}

// bindSlots evaluates a kLet's slots into es.args under the outer-row
// stack of the subplan it replaces (see plan.LetExpr): the input row is
// pushed — and on success stays pushed for the body, the caller pops it —
// and slot j > 0 sees slots 0..j-1 as the lateral join's left row. Each
// slot runs once, in order. A node is never re-entered while it
// evaluates (nested calls instantiate their own trees), so the slot row
// is per-node scratch.
func (es *ExprState) bindSlots(ctx *Ctx, row storage.Tuple) error {
	ctx.pushOuter(row)
	for j, k := range es.kids {
		if j > 0 {
			ctx.pushOuter(es.args[:j])
		}
		v, err := k.Eval(ctx, noRow)
		if j > 0 {
			ctx.popOuter()
		}
		if err != nil {
			ctx.popOuter()
			return err
		}
		es.args[j] = v
	}
	return nil
}

// evalRowInto evaluates a ROW-valued expression and stores the row's
// fields in dst — what `(e).f1 … (e).fN` yields — without boxing the row
// when e is a row constructor reached through CASE arms and lets, the
// shape of a compiled function's step.
func (es *ExprState) evalRowInto(ctx *Ctx, row storage.Tuple, dst []sqltypes.Value) error {
	switch es.kind {
	case kRow:
		if len(es.kids) < len(dst) {
			break // too short: let fieldOf below report it
		}
		// Every operand runs, selected or not, as in a boxed constructor.
		for i, k := range es.kids {
			v, err := k.Eval(ctx, row)
			if err != nil {
				return err
			}
			if i < len(dst) {
				dst[i] = v
			}
		}
		return nil
	case kCase:
		arm, err := es.caseArm(ctx, row)
		if err != nil {
			return err
		}
		if arm != nil {
			return arm.evalRowInto(ctx, row, dst)
		}
		for i := range dst {
			dst[i] = sqltypes.Null
		}
		return nil
	case kLet:
		if err := es.bindSlots(ctx, row); err != nil {
			return err
		}
		err := es.elseK.evalRowInto(ctx, es.args, dst)
		ctx.popOuter()
		return err
	}
	v, err := es.Eval(ctx, row)
	if err != nil {
		return err
	}
	for i := range dst {
		if dst[i], err = fieldOf(v, i, ""); err != nil {
			return err
		}
	}
	return nil
}

func (es *ExprState) evalBinary(ctx *Ctx, row storage.Tuple) (sqltypes.Value, error) {
	// AND/OR could short-circuit; full evaluation keeps SQL's symmetric
	// semantics simple and our workloads cheap. Arithmetic and comparisons
	// evaluate both sides anyway.
	l, err := es.kids[0].Eval(ctx, row)
	if err != nil {
		return sqltypes.Null, err
	}
	// Short-circuit AND/OR on the left operand where three-valued logic
	// allows it (avoids needless subplan evaluation).
	switch es.op {
	case "AND":
		if l.Kind() == sqltypes.KindBool && !l.Bool() {
			return sqltypes.NewBool(false), nil
		}
	case "OR":
		if l.Kind() == sqltypes.KindBool && l.Bool() {
			return sqltypes.NewBool(true), nil
		}
	}
	r, err := es.kids[1].Eval(ctx, row)
	if err != nil {
		return sqltypes.Null, err
	}
	return applyBin(es.bin, es.op, l, r)
}

// binCode is a binary operator's precomputed dispatch code: the per-call
// instantiation resolves the operator string once so the hot loop pays a
// jump table instead of string switches (applyBin used to re-parse the
// operator per row, and CompareOp a second time).
type binCode uint8

const (
	bcCmp binCode = iota // comparisons: =, <>, <, <=, >, >= (sub-coded by cmpLo/cmpHi)
	bcAdd
	bcSub
	bcMul
	bcDiv
	bcMod
	bcConcat
	bcAnd
	bcOr
	bcEq
	bcNe
	bcLt
	bcLe
	bcGt
	bcGe
)

func binCodeFor(op string) binCode {
	switch op {
	case "+":
		return bcAdd
	case "-":
		return bcSub
	case "*":
		return bcMul
	case "/":
		return bcDiv
	case "%":
		return bcMod
	case "||":
		return bcConcat
	case "AND":
		return bcAnd
	case "OR":
		return bcOr
	case "=":
		return bcEq
	case "<>", "!=":
		return bcNe
	case "<":
		return bcLt
	case "<=":
		return bcLe
	case ">":
		return bcGt
	case ">=":
		return bcGe
	}
	return bcCmp
}

// applyBin dispatches one binary operator application (shared by the
// row-at-a-time and batch evaluators). op is only consulted for the
// unknown-operator error path.
func applyBin(code binCode, op string, l, r sqltypes.Value) (sqltypes.Value, error) {
	switch code {
	case bcAdd:
		return sqltypes.Add(l, r)
	case bcSub:
		return sqltypes.Sub(l, r)
	case bcMul:
		return sqltypes.Mul(l, r)
	case bcDiv:
		return sqltypes.Div(l, r)
	case bcMod:
		return sqltypes.Mod(l, r)
	case bcConcat:
		return sqltypes.Concat(l, r)
	case bcAnd:
		return sqltypes.And(l, r)
	case bcOr:
		return sqltypes.Or(l, r)
	}
	if l.IsNull() || r.IsNull() {
		return sqltypes.Null, nil
	}
	c, err := sqltypes.Compare(l, r)
	if err != nil {
		return sqltypes.Null, err
	}
	switch code {
	case bcEq:
		return sqltypes.NewBool(c == 0), nil
	case bcNe:
		return sqltypes.NewBool(c != 0), nil
	case bcLt:
		return sqltypes.NewBool(c < 0), nil
	case bcLe:
		return sqltypes.NewBool(c <= 0), nil
	case bcGt:
		return sqltypes.NewBool(c > 0), nil
	case bcGe:
		return sqltypes.NewBool(c >= 0), nil
	}
	return sqltypes.CompareOp(op, l, r)
}

// evalLogicalBatch vectorizes AND/OR with a selection vector: the left
// operand evaluates over the whole batch, then the right operand evaluates
// only over the rows the row-at-a-time evaluator would have reached —
// exactly the rows evalBinary's short-circuit does not skip. Guard
// patterns (`y <> 0 AND x/y > 2`) therefore keep their protective laziness
// row for row while both operands still evaluate batch-at-a-time.
func (es *ExprState) evalLogicalBatch(ctx *Ctx, rows []storage.Tuple, out []sqltypes.Value) error {
	n := len(rows)
	l := es.buf(0, n)
	if err := es.kids[0].EvalBatch(ctx, rows, l); err != nil {
		return err
	}
	isAnd := es.op == "AND"
	es.selRows = es.selRows[:0]
	es.selIdx = es.selIdx[:0]
	for i := 0; i < n; i++ {
		v := l[i]
		// AND short-circuits on a false left, OR on a true left — the
		// short-circuit result is the left value itself.
		if v.Kind() == sqltypes.KindBool && v.Bool() != isAnd {
			out[i] = v
			continue
		}
		es.selRows = append(es.selRows, rows[i])
		es.selIdx = append(es.selIdx, i)
	}
	if len(es.selRows) == 0 {
		return nil
	}
	r := es.buf(1, len(es.selRows))
	if err := es.kids[1].EvalBatch(ctx, es.selRows, r); err != nil {
		return err
	}
	for j, i := range es.selIdx {
		var v sqltypes.Value
		var err error
		if isAnd {
			v, err = sqltypes.And(l[i], r[j])
		} else {
			v, err = sqltypes.Or(l[i], r[j])
		}
		if err != nil {
			return err
		}
		out[i] = v
	}
	return nil
}

// buf returns the i-th scratch column sized to n values.
func (es *ExprState) buf(i, n int) []sqltypes.Value {
	for len(es.bufs) <= i {
		es.bufs = append(es.bufs, nil)
	}
	es.bufs[i] = growVals(es.bufs[i], n)
	return es.bufs[i]
}

// evalRows is the row-at-a-time fallback of EvalBatch.
func (es *ExprState) evalRows(ctx *Ctx, rows []storage.Tuple, out []sqltypes.Value) error {
	for i, r := range rows {
		v, err := es.Eval(ctx, r)
		if err != nil {
			return err
		}
		out[i] = v
	}
	return nil
}

// EvalBatch evaluates the expression once per row of the batch, writing
// into out (len(out) == len(rows)). Pure expressions evaluate
// operator-at-a-time: the tree dispatch, outer-row lookup, and parameter
// checks hoist out of the per-row loop, leaving only the value operations
// — the interpretation-overhead removal that makes batching pay. Impure or
// lazily evaluated forms (AND/OR short-circuits, CASE arms, IN lists,
// subplans, UDF calls) fall back to row-at-a-time Eval so evaluation
// counts and error behaviour match the tuple-at-a-time executor. (The
// deterministic random() stream is guaranteed one level up: Instantiate
// forces batch size 1 for any plan containing volatile expressions, since
// batching would otherwise interleave draws across pipeline stages
// differently than Volcano iteration.)
func (es *ExprState) EvalBatch(ctx *Ctx, rows []storage.Tuple, out []sqltypes.Value) error {
	if !es.pure {
		return es.evalRows(ctx, rows, out)
	}
	n := len(rows)
	switch es.kind {
	case kConst:
		for i := range out {
			out[i] = es.val
		}
	case kInput:
		for i, r := range rows {
			if es.idx >= len(r) {
				return fmt.Errorf("exec: input column %d out of range (row width %d)", es.idx, len(r))
			}
			out[i] = r[es.idx]
		}
	case kOuter:
		t, err := ctx.outerAt(es.depth)
		if err != nil {
			return err
		}
		if es.idx >= len(t) {
			return fmt.Errorf("exec: outer column %d out of range (row width %d)", es.idx, len(t))
		}
		v := t[es.idx]
		for i := range out {
			out[i] = v
		}
	case kParam:
		if es.idx < 1 || es.idx > len(ctx.Params) {
			return fmt.Errorf("exec: no value for parameter $%d", es.idx)
		}
		v := ctx.Params[es.idx-1]
		for i := range out {
			out[i] = v
		}
	case kBin:
		if es.op == "AND" || es.op == "OR" {
			return es.evalLogicalBatch(ctx, rows, out)
		}
		l, r := es.buf(0, n), es.buf(1, n)
		if err := es.kids[0].EvalBatch(ctx, rows, l); err != nil {
			return err
		}
		if err := es.kids[1].EvalBatch(ctx, rows, r); err != nil {
			return err
		}
		for i := 0; i < n; i++ {
			v, err := applyBin(es.bin, es.op, l[i], r[i])
			if err != nil {
				return err
			}
			out[i] = v
		}
	case kUnary:
		x := es.buf(0, n)
		if err := es.kids[0].EvalBatch(ctx, rows, x); err != nil {
			return err
		}
		neg := es.op != "NOT"
		for i := 0; i < n; i++ {
			var v sqltypes.Value
			var err error
			if neg {
				v, err = sqltypes.Neg(x[i])
			} else {
				v, err = sqltypes.Not(x[i])
			}
			if err != nil {
				return err
			}
			out[i] = v
		}
	case kIsNull:
		x := es.buf(0, n)
		if err := es.kids[0].EvalBatch(ctx, rows, x); err != nil {
			return err
		}
		for i := 0; i < n; i++ {
			out[i] = sqltypes.NewBool(x[i].IsNull() != es.negate)
		}
	case kBetween:
		x, lo, hi := es.buf(0, n), es.buf(1, n), es.buf(2, n)
		if err := es.kids[0].EvalBatch(ctx, rows, x); err != nil {
			return err
		}
		if err := es.kids[1].EvalBatch(ctx, rows, lo); err != nil {
			return err
		}
		if err := es.kids[2].EvalBatch(ctx, rows, hi); err != nil {
			return err
		}
		for i := 0; i < n; i++ {
			ge, err := sqltypes.CompareOp(">=", x[i], lo[i])
			if err != nil {
				return err
			}
			le, err := sqltypes.CompareOp("<=", x[i], hi[i])
			if err != nil {
				return err
			}
			res, err := sqltypes.And(ge, le)
			if err != nil {
				return err
			}
			if es.negate {
				res, err = sqltypes.Not(res)
				if err != nil {
					return err
				}
			}
			out[i] = res
		}
	case kCast:
		x := es.buf(0, n)
		if err := es.kids[0].EvalBatch(ctx, rows, x); err != nil {
			return err
		}
		for i := 0; i < n; i++ {
			v, err := sqltypes.Cast(x[i], es.typ)
			if err != nil {
				return err
			}
			out[i] = v
		}
	case kField:
		x := es.buf(0, n)
		if err := es.kids[0].EvalBatch(ctx, rows, x); err != nil {
			return err
		}
		for i := 0; i < n; i++ {
			v, err := fieldOf(x[i], es.idx, es.op)
			if err != nil {
				return err
			}
			out[i] = v
		}
	case kFunc:
		// Builtins take their arguments eagerly, so batch the operands and
		// assemble per-row argument vectors from the scratch columns.
		for k := range es.kids {
			if err := es.kids[k].EvalBatch(ctx, rows, es.buf(k, n)); err != nil {
				return err
			}
		}
		es.args = growVals(es.args, len(es.kids))
		for i := 0; i < n; i++ {
			for k := range es.kids {
				es.args[k] = es.bufs[k][i]
			}
			v, err := es.builtin(ctx, es.args)
			if err != nil {
				return fmt.Errorf("%s: %w", es.name, err)
			}
			out[i] = v
		}
	case kRow:
		for k := range es.kids {
			if err := es.kids[k].EvalBatch(ctx, rows, es.buf(k, n)); err != nil {
				return err
			}
		}
		for i := 0; i < n; i++ {
			fields := make([]sqltypes.Value, len(es.kids))
			for k := range es.kids {
				fields[k] = es.bufs[k][i]
			}
			out[i] = sqltypes.NewRow(fields)
		}
	default:
		// kCase and kInList evaluate their branches lazily; preserve that
		// row by row. (kSubplan/kUDF are impure and never reach here.)
		return es.evalRows(ctx, rows, out)
	}
	return nil
}

func (es *ExprState) evalInList(ctx *Ctx, row storage.Tuple) (sqltypes.Value, error) {
	x, err := es.kids[0].Eval(ctx, row)
	if err != nil {
		return sqltypes.Null, err
	}
	anyNull := false
	for _, k := range es.kids[1:] {
		v, err := k.Eval(ctx, row)
		if err != nil {
			return sqltypes.Null, err
		}
		eq, null := sqltypes.Equal(x, v)
		if null {
			anyNull = true
			continue
		}
		if eq {
			return sqltypes.NewBool(!es.negate), nil
		}
	}
	if anyNull {
		return sqltypes.Null, nil
	}
	return sqltypes.NewBool(es.negate), nil
}

// caseArm evaluates a CASE's conditions in order and returns the arm it
// selects (nil: no arm matched and there is no ELSE, the value is NULL).
func (es *ExprState) caseArm(ctx *Ctx, row storage.Tuple) (*ExprState, error) {
	arms := es.kids
	var operand sqltypes.Value
	if es.hasOp {
		var err error
		operand, err = arms[0].Eval(ctx, row)
		if err != nil {
			return nil, err
		}
		arms = arms[1:]
	}
	for i := 0; i+1 < len(arms); i += 2 {
		cond, err := arms[i].Eval(ctx, row)
		if err != nil {
			return nil, err
		}
		var hit bool
		if es.hasOp {
			eq, _ := sqltypes.Equal(operand, cond)
			hit = eq
		} else {
			hit = cond.IsTrue()
		}
		if hit {
			return arms[i+1], nil
		}
	}
	return es.elseK, nil
}

func (es *ExprState) evalCase(ctx *Ctx, row storage.Tuple) (sqltypes.Value, error) {
	arm, err := es.caseArm(ctx, row)
	if err != nil || arm == nil {
		return sqltypes.Null, err
	}
	return arm.Eval(ctx, row)
}

func (es *ExprState) evalSubplan(ctx *Ctx, row storage.Tuple) (sqltypes.Value, error) {
	var cmp sqltypes.Value
	if es.subCmp != nil {
		var err error
		cmp, err = es.subCmp.Eval(ctx, row)
		if err != nil {
			return sqltypes.Null, err
		}
	}
	ctx.pushOuter(row)
	defer ctx.popOuter()
	if err := es.sub.Open(ctx); err != nil {
		return sqltypes.Null, err
	}
	defer es.sub.Close(ctx)

	// The pull adapter's batch limit preserves lazy cardinality semantics:
	// scalar subqueries need at most two rows (value + "more than one"
	// check), EXISTS and IN pull one row at a time so a match stops the
	// subplan exactly where the tuple-at-a-time executor did.
	if es.subIter == nil {
		lim := 1
		if es.subMode == plan.SubplanScalar {
			lim = 2
		}
		es.subIter = newRowIter(es.sub, lim)
	}
	it := es.subIter
	it.reset()

	switch es.subMode {
	case plan.SubplanScalar:
		t, err := it.next(ctx)
		if err != nil {
			return sqltypes.Null, err
		}
		if t == nil {
			return sqltypes.Null, nil
		}
		extra, err := it.next(ctx)
		if err != nil {
			return sqltypes.Null, err
		}
		if extra != nil {
			return sqltypes.Null, fmt.Errorf("exec: more than one row returned by a subquery used as an expression")
		}
		return t[0], nil
	case plan.SubplanExists:
		t, err := it.next(ctx)
		if err != nil {
			return sqltypes.Null, err
		}
		return sqltypes.NewBool((t != nil) != es.negate), nil
	case plan.SubplanIn:
		anyNull := false
		for {
			t, err := it.next(ctx)
			if err != nil {
				return sqltypes.Null, err
			}
			if t == nil {
				break
			}
			eq, null := sqltypes.Equal(cmp, t[0])
			if null {
				anyNull = true
				continue
			}
			if eq {
				return sqltypes.NewBool(!es.negate), nil
			}
		}
		if anyNull {
			return sqltypes.Null, nil
		}
		return sqltypes.NewBool(es.negate), nil
	}
	return sqltypes.Null, fmt.Errorf("exec: bad subplan mode %d", es.subMode)
}

func fieldOf(x sqltypes.Value, idx int, name string) (sqltypes.Value, error) {
	if x.IsNull() {
		return sqltypes.Null, nil
	}
	if idx >= 0 {
		if x.NumFields() == 0 {
			return sqltypes.Null, fmt.Errorf("exec: field access on non-row value %s", x.Kind())
		}
		if idx >= x.NumFields() {
			return sqltypes.Null, fmt.Errorf("exec: field f%d out of range for %d-field row", idx+1, x.NumFields())
		}
		return x.Field(idx), nil
	}
	if x.Kind() != sqltypes.KindCoord {
		return sqltypes.Null, fmt.Errorf("exec: named field %q requires a coord value, got %s", name, x.Kind())
	}
	cx, cy := x.Coord()
	if name == "x" {
		return sqltypes.NewInt(cx), nil
	}
	return sqltypes.NewInt(cy), nil
}
