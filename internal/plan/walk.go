package plan

// Generic traversal primitives. Each visits exactly one level — an
// operator's children, an operator's own expressions, an expression's
// operands — and stores back what the callback returns when it differs,
// so a pass is the composition it needs and no more. A callback that
// returns its argument makes the walk read-only: nothing is written, which
// is what lets HasVolatile run over a cached plan that other sessions are
// reading. mapExpr and mapPlan are the compositions used more than once.

// nodeChildren applies f to each child operator of n in place.
func nodeChildren(n Node, f func(Node) Node) {
	set := func(c *Node) {
		if r := f(*c); r != *c {
			*c = r
		}
	}
	switch x := n.(type) {
	case *Filter:
		set(&x.Child)
	case *Project:
		set(&x.Child)
	case *NestLoop:
		set(&x.Left)
		set(&x.Right)
	case *HashJoin:
		set(&x.Left)
		set(&x.Right)
	case *Apply:
		set(&x.Child)
		set(&x.Sub)
	case *Materialize:
		set(&x.Child)
	case *Agg:
		set(&x.Child)
	case *Window:
		set(&x.Child)
	case *Sort:
		set(&x.Child)
	case *Limit:
		set(&x.Child)
	case *Distinct:
		set(&x.Child)
	case *Append:
		for i := range x.Children {
			set(&x.Children[i])
		}
	case *SetOp:
		set(&x.L)
		set(&x.R)
	case *RecursiveUnion:
		set(&x.NonRec)
		set(&x.Rec)
	case *WithNode:
		set(&x.Child)
	case *Memo:
		set(&x.Child)
	}
}

// nodeExprs applies f to each expression operator n itself evaluates, in
// place. Absent optional expressions (nil) are skipped.
func nodeExprs(n Node, f func(Expr) Expr) {
	one := func(e *Expr) {
		if *e == nil {
			return
		}
		if r := f(*e); r != *e {
			*e = r
		}
	}
	list := func(es []Expr) {
		for i := range es {
			one(&es[i])
		}
	}
	switch x := n.(type) {
	case *Result:
		list(x.Exprs)
	case *IndexScan:
		one(&x.Key)
	case *Filter:
		one(&x.Pred)
	case *Project:
		list(x.Exprs)
	case *NestLoop:
		one(&x.On)
	case *HashJoin:
		list(x.LeftKeys)
		list(x.RightKeys)
		one(&x.Residual)
	case *Agg:
		list(x.GroupBy)
		for i := range x.Aggs {
			one(&x.Aggs[i].Arg)
			one(&x.Aggs[i].Sep)
		}
	case *Window:
		for i := range x.Funcs {
			w := &x.Funcs[i]
			one(&w.Arg)
			one(&w.Offset)
			list(w.PartitionBy)
			for j := range w.OrderBy {
				one(&w.OrderBy[j].Expr)
			}
			if w.Frame != nil {
				one(&w.Frame.StartOff)
				one(&w.Frame.EndOff)
			}
		}
	case *Sort:
		for i := range x.Keys {
			one(&x.Keys[i].Expr)
		}
	case *Limit:
		one(&x.Limit)
		one(&x.Offset)
	case *ValuesNode:
		for _, row := range x.Rows {
			list(row)
		}
	case *Loop:
		list(x.Seed)
		one(&x.Step)
		list(x.Out)
	}
}

// exprChildren applies f to each direct operand of e in place (nil
// operands are skipped). A SubplanExpr's nested plan is an operator tree,
// not an operand: callers that care reach it through the node they get.
func exprChildren(e Expr, f func(Expr) Expr) {
	one := func(c *Expr) {
		if *c == nil {
			return
		}
		if r := f(*c); r != *c {
			*c = r
		}
	}
	list := func(es []Expr) {
		for i := range es {
			one(&es[i])
		}
	}
	switch x := e.(type) {
	case *BinOp:
		one(&x.L)
		one(&x.R)
	case *UnaryOp:
		one(&x.X)
	case *IsNullExpr:
		one(&x.X)
	case *BetweenExpr:
		one(&x.X)
		one(&x.Lo)
		one(&x.Hi)
	case *InListExpr:
		one(&x.X)
		list(x.List)
	case *CaseExpr:
		one(&x.Operand)
		for i := range x.Whens {
			one(&x.Whens[i].Cond)
			one(&x.Whens[i].Result)
		}
		one(&x.Else)
	case *FuncExpr:
		list(x.Args)
	case *CastExpr:
		one(&x.X)
	case *RowCtor:
		list(x.Fields)
	case *FieldSel:
		one(&x.X)
	case *SubplanExpr:
		one(&x.CompareX)
	case *LetExpr:
		list(x.Slots)
		one(&x.Body)
	case *UDFCallExpr:
		list(x.Args)
	}
}

// mapExpr rewrites e bottom-up: operands first, then f on the node.
func mapExpr(e Expr, f func(Expr) Expr) Expr {
	switch e.(type) {
	case nil:
		return nil
	case *Const, *InputRef, *OuterRef, *ParamRef:
		return f(e) // leaves: most of a bulk VALUES list
	}
	exprChildren(e, func(c Expr) Expr { return mapExpr(c, f) })
	return f(e)
}

// mapSubplans applies pass to every plan nested in e — how the per-node
// rewrite passes reach subqueries that live in expression position.
func mapSubplans(e Expr, pass func(Node) Node) Expr {
	return mapExpr(e, func(x Expr) Expr {
		if sp, ok := x.(*SubplanExpr); ok {
			sp.Plan = pass(sp.Plan)
		}
		return x
	})
}

// mapPlan rewrites a whole operator tree bottom-up, plans nested in
// expressions included: fe sees every expression after its operands, fn
// every operator after its children and expressions.
func mapPlan(n Node, fn func(Node) Node, fe func(Expr) Expr) Node {
	if n == nil {
		return nil
	}
	nodeChildren(n, func(c Node) Node { return mapPlan(c, fn, fe) })
	nodeExprs(n, func(e Expr) Expr {
		return mapExpr(e, func(x Expr) Expr {
			if sp, ok := x.(*SubplanExpr); ok {
				sp.Plan = mapPlan(sp.Plan, fn, fe)
			}
			return fe(x)
		})
	})
	return fn(n)
}

// cloneExpr deep-copies an expression for the passes that rewrite a copy
// in place (join-key rebasing in hashjoin.go and apply.go): each node and
// operand list is copied, then exprChildren swaps in copies of the
// operands. A nested subplan's operator tree is shared, not copied — no
// caller rewrites inside one.
func cloneExpr(e Expr) Expr {
	var c Expr
	switch x := e.(type) {
	case nil:
		return nil
	case *Const:
		v := *x
		return &v
	case *InputRef:
		v := *x
		return &v
	case *OuterRef:
		v := *x
		return &v
	case *ParamRef:
		v := *x
		return &v
	case *BinOp:
		v := *x
		c = &v
	case *UnaryOp:
		v := *x
		c = &v
	case *IsNullExpr:
		v := *x
		c = &v
	case *BetweenExpr:
		v := *x
		c = &v
	case *InListExpr:
		v := *x
		v.List = append([]Expr(nil), x.List...)
		c = &v
	case *CaseExpr:
		v := *x
		v.Whens = append([]CaseWhen(nil), x.Whens...)
		c = &v
	case *FuncExpr:
		v := *x
		v.Args = append([]Expr(nil), x.Args...)
		c = &v
	case *CastExpr:
		v := *x
		c = &v
	case *RowCtor:
		v := *x
		v.Fields = append([]Expr(nil), x.Fields...)
		c = &v
	case *FieldSel:
		v := *x
		c = &v
	case *SubplanExpr:
		v := *x
		c = &v
	case *LetExpr:
		v := *x
		v.Slots = append([]Expr(nil), x.Slots...)
		c = &v
	case *UDFCallExpr:
		v := *x
		v.Args = append([]Expr(nil), x.Args...)
		c = &v
	default:
		return e
	}
	exprChildren(c, cloneExpr)
	return c
}
