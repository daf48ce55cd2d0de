package plan

import (
	"plsqlaway/internal/sqltypes"
)

// Constant folding — the "specialization" half of call-site inlining:
// literal arguments spliced into an inlined body meet the body's casts and
// comparisons as constants, so `check('alice', $1)` plans into the exact
// tree a hand-written query for 'alice' would get (constant keys feed the
// index-scan pass; constant-false filters vanish). Folding replicates the
// executor's evaluation exactly (same sqltypes operations, same AND/OR
// short-circuits); any subtree whose evaluation errors is left unfolded so
// the error still surfaces at run time, on the same rows.

// foldConstants folds expressions throughout a plan subtree and simplifies
// Filters whose predicates become constant.
func foldConstants(n Node) Node {
	nodeExprs(n, foldExpr)
	descend(n, foldConstants)
	if x, ok := n.(*Filter); ok {
		if c, ok := x.Pred.(*Const); ok {
			if c.Val.Kind() == sqltypes.KindBool && c.Val.Bool() {
				return x.Child
			}
			// Constant false or NULL: no row ever passes. Keep the node if
			// the child draws from the session random stream — eliding it
			// would shift subsequent draws.
			if f := scanNodeFlags(x.Child); !f.hasVolatile && !f.hasUDF {
				return &ValuesNode{Wid: x.Child.Width()}
			}
		}
	}
	return n
}

func constVal(e Expr) (sqltypes.Value, bool) {
	if c, ok := e.(*Const); ok {
		return c.Val, true
	}
	return sqltypes.Null, false
}

// foldExpr folds bottom-up (nested plans are foldConstants' own). Lazy
// positions (CASE arms, IN list tails past the executor's short-circuit)
// still fold internally — folding a pure constant subexpression never
// changes whether it gets evaluated, only when, and error-producing
// subtrees stay unfolded.
func foldExpr(e Expr) Expr { return mapExpr(e, foldNode) }

// foldNode folds one expression node whose operands are already folded.
func foldNode(e Expr) Expr {
	switch x := e.(type) {
	case *BinOp:
		l, lok := constVal(x.L)
		// Left-constant AND/OR short-circuit, exactly as evalBinary.
		if lok {
			switch x.Op {
			case "AND":
				if l.Kind() == sqltypes.KindBool && !l.Bool() {
					return &Const{Val: sqltypes.NewBool(false)}
				}
			case "OR":
				if l.Kind() == sqltypes.KindBool && l.Bool() {
					return &Const{Val: sqltypes.NewBool(true)}
				}
			}
		}
		r, rok := constVal(x.R)
		if lok && rok {
			if v, err := foldBin(x.Op, l, r); err == nil {
				return &Const{Val: v}
			}
		}
	case *UnaryOp:
		if v, ok := constVal(x.X); ok {
			var folded sqltypes.Value
			var err error
			if x.Op == "NOT" {
				folded, err = sqltypes.Not(v)
			} else {
				folded, err = sqltypes.Neg(v)
			}
			if err == nil {
				return &Const{Val: folded}
			}
		}
	case *IsNullExpr:
		if v, ok := constVal(x.X); ok {
			return &Const{Val: sqltypes.NewBool(v.IsNull() != x.Negate)}
		}
	case *BetweenExpr:
		v, vok := constVal(x.X)
		lo, look := constVal(x.Lo)
		hi, hiok := constVal(x.Hi)
		if vok && look && hiok {
			if folded, err := foldBetween(v, lo, hi, x.Negate); err == nil {
				return &Const{Val: folded}
			}
		}
	case *CaseExpr:
		// Searched CASE with a constant-true first arm (a shape inlined
		// dispatcher bodies produce) collapses to that arm.
		if x.Operand == nil {
			for len(x.Whens) > 0 {
				c, ok := constVal(x.Whens[0].Cond)
				if !ok {
					break
				}
				if c.Kind() == sqltypes.KindBool && c.Bool() {
					return x.Whens[0].Result
				}
				// Constant false/NULL arm never fires: drop it.
				x.Whens = x.Whens[1:]
			}
			if len(x.Whens) == 0 {
				if x.Else == nil {
					return &Const{Val: sqltypes.Null}
				}
				return x.Else
			}
		}
	case *CastExpr:
		if v, ok := constVal(x.X); ok {
			if folded, err := sqltypes.Cast(v, x.Type); err == nil {
				return &Const{Val: folded}
			}
		}
	}
	return e
}

// foldBin mirrors exec.applyBin.
func foldBin(op string, l, r sqltypes.Value) (sqltypes.Value, error) {
	switch op {
	case "+":
		return sqltypes.Add(l, r)
	case "-":
		return sqltypes.Sub(l, r)
	case "*":
		return sqltypes.Mul(l, r)
	case "/":
		return sqltypes.Div(l, r)
	case "%":
		return sqltypes.Mod(l, r)
	case "||":
		return sqltypes.Concat(l, r)
	case "AND":
		return sqltypes.And(l, r)
	case "OR":
		return sqltypes.Or(l, r)
	case "=", "<>", "!=", "<", "<=", ">", ">=":
		if l.IsNull() || r.IsNull() {
			return sqltypes.Null, nil
		}
		c, err := sqltypes.Compare(l, r)
		if err != nil {
			return sqltypes.Null, err
		}
		var b bool
		switch op {
		case "=":
			b = c == 0
		case "<>", "!=":
			b = c != 0
		case "<":
			b = c < 0
		case "<=":
			b = c <= 0
		case ">":
			b = c > 0
		case ">=":
			b = c >= 0
		}
		return sqltypes.NewBool(b), nil
	}
	return sqltypes.Null, errNotFoldable
}

func foldBetween(v, lo, hi sqltypes.Value, negate bool) (sqltypes.Value, error) {
	ge, err := sqltypes.CompareOp(">=", v, lo)
	if err != nil {
		return sqltypes.Null, err
	}
	le, err := sqltypes.CompareOp("<=", v, hi)
	if err != nil {
		return sqltypes.Null, err
	}
	res, err := sqltypes.And(ge, le)
	if err != nil || !negate {
		return res, err
	}
	return sqltypes.Not(res)
}

type notFoldableErr struct{}

func (notFoldableErr) Error() string { return "plan: not foldable" }

var errNotFoldable = notFoldableErr{}
