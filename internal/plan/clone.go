package plan

// Clone deep-copies a plan. PostgreSQL's plan cache hands out a *copy* of
// the cached plan tree for every execution (the cached original must stay
// pristine while the executor scribbles on its copy) — that copy is a large
// part of the ExecutorStart cost the paper measures, so the executor clones
// here too before instantiating. Catalog references (tables) are shared,
// not copied, just as PostgreSQL copies plans but not relcache entries.
func (p *Plan) Clone() *Plan {
	c := *p
	c.Root = cloneNode(p.Root)
	c.CTEs = make([]CTEDef, len(p.CTEs))
	for i, def := range p.CTEs {
		c.CTEs[i] = def
		c.CTEs[i].Plan = cloneNode(def.Plan)
		c.CTEs[i].Cols = append([]string(nil), def.Cols...)
	}
	c.Cols = append([]string(nil), p.Cols...)
	return &c
}

func cloneNode(n Node) Node {
	if n == nil {
		return nil
	}
	switch x := n.(type) {
	case *Result:
		return &Result{Exprs: cloneExprs(x.Exprs)}
	case *SeqScan:
		c := *x // table pointer shared
		return &c
	case *IndexScan:
		return &IndexScan{Table: x.Table, Col: x.Col, Key: cloneExpr(x.Key)}
	case *CTEScan:
		c := *x
		return &c
	case *Filter:
		return &Filter{Child: cloneNode(x.Child), Pred: cloneExpr(x.Pred)}
	case *Project:
		return &Project{Child: cloneNode(x.Child), Exprs: cloneExprs(x.Exprs)}
	case *NestLoop:
		return &NestLoop{Left: cloneNode(x.Left), Right: cloneNode(x.Right), Kind: x.Kind, On: cloneExpr(x.On)}
	case *HashJoin:
		return &HashJoin{Left: cloneNode(x.Left), Right: cloneNode(x.Right), Kind: x.Kind,
			LeftKeys: cloneExprs(x.LeftKeys), RightKeys: cloneExprs(x.RightKeys),
			Residual: cloneExpr(x.Residual), ResidualAllKeys: x.ResidualAllKeys, RightStatic: x.RightStatic,
			SingleRow: x.SingleRow}
	case *Apply:
		return &Apply{Child: cloneNode(x.Child), Sub: cloneNode(x.Sub)}
	case *Materialize:
		return &Materialize{Child: cloneNode(x.Child)}
	case *Agg:
		c := &Agg{Child: cloneNode(x.Child), GroupBy: cloneExprs(x.GroupBy)}
		c.Aggs = make([]AggSpec, len(x.Aggs))
		for i, a := range x.Aggs {
			c.Aggs[i] = AggSpec{Func: a.Func, Arg: cloneExpr(a.Arg), Star: a.Star, Distinct: a.Distinct, Sep: cloneExpr(a.Sep)}
		}
		return c
	case *Window:
		c := &Window{Child: cloneNode(x.Child)}
		c.Funcs = make([]WindowFn, len(x.Funcs))
		for i, f := range x.Funcs {
			nf := WindowFn{Func: f.Func, Arg: cloneExpr(f.Arg), Star: f.Star,
				PartitionBy: cloneExprs(f.PartitionBy), OrderBy: cloneSortKeys(f.OrderBy),
				Offset: cloneExpr(f.Offset)}
			if f.Frame != nil {
				fr := *f.Frame
				fr.StartOff = cloneExpr(f.Frame.StartOff)
				fr.EndOff = cloneExpr(f.Frame.EndOff)
				nf.Frame = &fr
			}
			c.Funcs[i] = nf
		}
		return c
	case *Sort:
		return &Sort{Child: cloneNode(x.Child), Keys: cloneSortKeys(x.Keys)}
	case *Limit:
		return &Limit{Child: cloneNode(x.Child), Limit: cloneExpr(x.Limit), Offset: cloneExpr(x.Offset)}
	case *Distinct:
		return &Distinct{Child: cloneNode(x.Child)}
	case *Append:
		c := &Append{Children: make([]Node, len(x.Children))}
		for i, ch := range x.Children {
			c.Children[i] = cloneNode(ch)
		}
		return c
	case *SetOp:
		return &SetOp{Op: x.Op, All: x.All, L: cloneNode(x.L), R: cloneNode(x.R)}
	case *ValuesNode:
		c := &ValuesNode{Wid: x.Wid, Rows: make([][]Expr, len(x.Rows))}
		for i, r := range x.Rows {
			c.Rows[i] = cloneExprs(r)
		}
		return c
	case *RecursiveUnion:
		return &RecursiveUnion{NonRec: cloneNode(x.NonRec), Rec: cloneNode(x.Rec),
			CTEIndex: x.CTEIndex, Iterate: x.Iterate, Dedup: x.Dedup, NotLowered: x.NotLowered}
	case *Loop:
		return &Loop{Seed: cloneExprs(x.Seed), Step: cloneExpr(x.Step), Cont: x.Cont, Out: cloneExprs(x.Out)}
	case *WithNode:
		return &WithNode{Indices: append([]int(nil), x.Indices...), Child: cloneNode(x.Child)}
	default:
		return n
	}
}

func cloneSortKeys(ks []SortKey) []SortKey {
	if ks == nil {
		return nil
	}
	out := make([]SortKey, len(ks))
	for i, k := range ks {
		out[i] = SortKey{Expr: cloneExpr(k.Expr), Desc: k.Desc}
	}
	return out
}

func cloneExprs(es []Expr) []Expr {
	if es == nil {
		return nil
	}
	out := make([]Expr, len(es))
	for i, e := range es {
		out[i] = cloneExpr(e)
	}
	return out
}

func cloneExpr(e Expr) Expr {
	if e == nil {
		return nil
	}
	switch x := e.(type) {
	case *Const:
		c := *x
		return &c
	case *InputRef:
		c := *x
		return &c
	case *OuterRef:
		c := *x
		return &c
	case *ParamRef:
		c := *x
		return &c
	case *BinOp:
		return &BinOp{Op: x.Op, L: cloneExpr(x.L), R: cloneExpr(x.R)}
	case *UnaryOp:
		return &UnaryOp{Op: x.Op, X: cloneExpr(x.X)}
	case *IsNullExpr:
		return &IsNullExpr{X: cloneExpr(x.X), Negate: x.Negate}
	case *BetweenExpr:
		return &BetweenExpr{X: cloneExpr(x.X), Lo: cloneExpr(x.Lo), Hi: cloneExpr(x.Hi), Negate: x.Negate}
	case *InListExpr:
		return &InListExpr{X: cloneExpr(x.X), List: cloneExprs(x.List), Negate: x.Negate}
	case *CaseExpr:
		c := &CaseExpr{Operand: cloneExpr(x.Operand), Else: cloneExpr(x.Else)}
		c.Whens = make([]CaseWhen, len(x.Whens))
		for i, w := range x.Whens {
			c.Whens[i] = CaseWhen{Cond: cloneExpr(w.Cond), Result: cloneExpr(w.Result)}
		}
		return c
	case *FuncExpr:
		return &FuncExpr{Name: x.Name, Args: cloneExprs(x.Args)}
	case *CastExpr:
		return &CastExpr{X: cloneExpr(x.X), Type: x.Type}
	case *RowCtor:
		return &RowCtor{Fields: cloneExprs(x.Fields)}
	case *FieldSel:
		c := *x
		c.X = cloneExpr(x.X)
		return &c
	case *SubplanExpr:
		return &SubplanExpr{Mode: x.Mode, Plan: cloneNode(x.Plan), CompareX: cloneExpr(x.CompareX), Negate: x.Negate, FromInline: x.FromInline}
	case *LetExpr:
		return &LetExpr{Slots: cloneExprs(x.Slots), Body: cloneExpr(x.Body)}
	case *UDFCallExpr:
		return &UDFCallExpr{Func: x.Func, Args: cloneExprs(x.Args)} // catalog fn shared
	default:
		return e
	}
}
