package plan

// This file lowers inlined UDF bodies from expression position into the
// operator tree. hoistInlineApplies finds FromInline scalar subplans in
// unconditionally-evaluated positions of Project/Filter/Agg expressions
// and replaces each with an extra input column computed by an Apply node
// below the operator; decorrelateApply then turns an Apply whose
// correlation is an equi-key filter into a single-row left hash join —
// the paper's end state, where the function body is optimized *with* the
// calling query instead of being re-evaluated per row.
//
// Only eager positions hoist: CASE arms, AND/OR right operands, and IN
// list tails are conditionally evaluated, and hoisting would force
// evaluation (and its errors — division by zero inside a body arm the
// query guards with CASE) on rows the row-at-a-time engine skips.
// Subplans left in place still evaluate correctly via evalSubplan.

// hoistInlineApplies rewrites the tree bottom-up.
func hoistInlineApplies(n Node) Node {
	switch x := n.(type) {
	case *Filter:
		x.Child = hoistInlineApplies(x.Child)
		lw := x.Child.Width()
		var subs []*SubplanExpr
		var keep, lifted []Expr
		for _, c := range splitConjuncts(x.Pred) {
			before := len(subs)
			c = collectInlineSubs(c, lw, &subs)
			if len(subs) > before {
				lifted = append(lifted, mapSubplans(c, hoistInlineApplies))
			} else {
				keep = append(keep, mapSubplans(c, hoistInlineApplies))
			}
		}
		if len(subs) == 0 {
			return x
		}
		// Conjuncts without inlined calls stay below the applies, so the
		// body only runs for rows that survive them.
		child := x.Child
		if len(keep) > 0 {
			child = &Filter{Child: child, Pred: andAll(keep)}
		}
		child = chainApplies(child, subs)
		inner := &Filter{Child: child, Pred: andAll(lifted)}
		return stripTo(inner, lw)
	case *Project:
		x.Child = hoistInlineApplies(x.Child)
		lw := x.Child.Width()
		var subs []*SubplanExpr
		for i := range x.Exprs {
			x.Exprs[i] = mapSubplans(collectInlineSubs(x.Exprs[i], lw, &subs), hoistInlineApplies)
		}
		x.Child = chainApplies(x.Child, subs)
		return x
	case *Agg:
		x.Child = hoistInlineApplies(x.Child)
		lw := x.Child.Width()
		var subs []*SubplanExpr
		for i := range x.GroupBy {
			x.GroupBy[i] = mapSubplans(collectInlineSubs(x.GroupBy[i], lw, &subs), hoistInlineApplies)
		}
		for i := range x.Aggs {
			if x.Aggs[i].Arg != nil {
				x.Aggs[i].Arg = mapSubplans(collectInlineSubs(x.Aggs[i].Arg, lw, &subs), hoistInlineApplies)
			}
			x.Aggs[i].Sep = mapSubplans(x.Aggs[i].Sep, hoistInlineApplies)
		}
		x.Child = chainApplies(x.Child, subs)
		return x
	case *Result:
		for i := range x.Exprs {
			x.Exprs[i] = mapSubplans(x.Exprs[i], hoistInlineApplies)
		}
	case *NestLoop:
		x.Left = hoistInlineApplies(x.Left)
		x.Right = hoistInlineApplies(x.Right)
		x.On = mapSubplans(x.On, hoistInlineApplies)
	case *HashJoin:
		x.Left = hoistInlineApplies(x.Left)
		x.Right = hoistInlineApplies(x.Right)
		x.Residual = mapSubplans(x.Residual, hoistInlineApplies)
	case *Apply:
		x.Child = hoistInlineApplies(x.Child)
		x.Sub = hoistInlineApplies(x.Sub)
	case *Materialize:
		x.Child = hoistInlineApplies(x.Child)
	case *Window:
		x.Child = hoistInlineApplies(x.Child)
		for i := range x.Funcs {
			x.Funcs[i].Arg = mapSubplans(x.Funcs[i].Arg, hoistInlineApplies)
		}
	case *Sort:
		x.Child = hoistInlineApplies(x.Child)
		for i := range x.Keys {
			x.Keys[i].Expr = mapSubplans(x.Keys[i].Expr, hoistInlineApplies)
		}
	case *Limit:
		x.Child = hoistInlineApplies(x.Child)
		x.Limit = mapSubplans(x.Limit, hoistInlineApplies)
		x.Offset = mapSubplans(x.Offset, hoistInlineApplies)
	case *Distinct:
		x.Child = hoistInlineApplies(x.Child)
	case *Append:
		for i := range x.Children {
			x.Children[i] = hoistInlineApplies(x.Children[i])
		}
	case *SetOp:
		x.L = hoistInlineApplies(x.L)
		x.R = hoistInlineApplies(x.R)
	case *ValuesNode:
		for _, row := range x.Rows {
			for i := range row {
				row[i] = mapSubplans(row[i], hoistInlineApplies)
			}
		}
	case *RecursiveUnion:
		x.NonRec = hoistInlineApplies(x.NonRec)
		x.Rec = hoistInlineApplies(x.Rec)
	case *WithNode:
		x.Child = hoistInlineApplies(x.Child)
	}
	return n
}

// chainApplies stacks one Apply per hoisted subplan (each appends one
// column, in placeholder order) and attempts decorrelation on each.
func chainApplies(child Node, subs []*SubplanExpr) Node {
	for _, s := range subs {
		child = decorrelateApply(&Apply{Child: child, Sub: hoistInlineApplies(s.Plan)})
	}
	return child
}

// stripTo projects a node back down to its first lw columns, dropping the
// apply-appended scratch columns.
func stripTo(n Node, lw int) Node {
	exprs := make([]Expr, lw)
	for i := range exprs {
		exprs[i] = &InputRef{Idx: i}
	}
	return &Project{Child: n, Exprs: exprs}
}

// collectInlineSubs replaces hoistable FromInline scalar subplans in e
// with InputRef placeholders (base + running count), appending the
// subplans to subs. It descends only into positions the executor always
// evaluates; conditional positions are left untouched.
func collectInlineSubs(e Expr, base int, subs *[]*SubplanExpr) Expr {
	switch x := e.(type) {
	case nil:
		return nil
	case *SubplanExpr:
		if x.FromInline && x.Mode == SubplanScalar {
			ref := &InputRef{Idx: base + len(*subs)}
			*subs = append(*subs, x)
			return ref
		}
		return e
	case *BinOp:
		x.L = collectInlineSubs(x.L, base, subs)
		if x.Op != "AND" && x.Op != "OR" {
			// AND/OR short-circuit on the left operand's value.
			x.R = collectInlineSubs(x.R, base, subs)
		}
		return x
	case *UnaryOp:
		x.X = collectInlineSubs(x.X, base, subs)
		return x
	case *IsNullExpr:
		x.X = collectInlineSubs(x.X, base, subs)
		return x
	case *BetweenExpr:
		x.X = collectInlineSubs(x.X, base, subs)
		x.Lo = collectInlineSubs(x.Lo, base, subs)
		x.Hi = collectInlineSubs(x.Hi, base, subs)
		return x
	case *InListExpr:
		// The list tail short-circuits on the first match.
		x.X = collectInlineSubs(x.X, base, subs)
		return x
	case *FuncExpr:
		for i := range x.Args {
			x.Args[i] = collectInlineSubs(x.Args[i], base, subs)
		}
		return x
	case *CastExpr:
		x.X = collectInlineSubs(x.X, base, subs)
		return x
	case *RowCtor:
		for i := range x.Fields {
			x.Fields[i] = collectInlineSubs(x.Fields[i], base, subs)
		}
		return x
	case *FieldSel:
		x.X = collectInlineSubs(x.X, base, subs)
		return x
	default:
		// CaseExpr (lazy arms), UDFCallExpr (opaque), leaf refs.
		return e
	}
}

// decorrelateApply converts Apply{C, Project[val](Filter{keys ∧ residual}
// (core))} into a single-row left hash join when every correlated filter
// conjunct is an equi-key between the outer row (depth 0) and the core,
// and everything else underneath is pure and uncorrelated:
//
//	Project[0..lw-1, lw] (
//	  HashJoin{Left: C, Right: Project[val, k1..kn](Filter{residual}(core)),
//	           Kind: Left, SingleRow, LeftKeys: outer sides,
//	           RightKeys: inner sides, Residual: keys re-checked} )
//
// A NULL or unmatched key null-extends — exactly the subplan's
// zero-row NULL; two residual-accepted matches raise the scalar
// cardinality error via SingleRow. When the shape doesn't fit, the Apply
// stays (still far cheaper than per-row expression dispatch: the sub is
// instantiated once and rescanned).
func decorrelateApply(ap *Apply) Node {
	proj, ok := ap.Sub.(*Project)
	if !ok || len(proj.Exprs) != 1 {
		return ap
	}
	var filt *Filter
	core := proj.Child
	if f, ok := core.(*Filter); ok {
		filt = f
		core = f.Child
	}
	val := proj.Exprs[0]
	vf := scanExprFlags(val)
	if vf.hasOuter || vf.hasSubplan || vf.hasVolatile || vf.hasUDF {
		return ap
	}
	cf := scanNodeFlags(core)
	if cf.hasOuter || cf.hasVolatile || cf.hasUDF {
		return ap
	}
	var keysOuter, keysInner, residual []Expr
	if filt != nil {
		for _, c := range splitConjuncts(filt.Pred) {
			f := scanExprFlags(c)
			if f.hasSubplan || f.hasVolatile || f.hasUDF {
				return ap
			}
			if !f.hasOuter {
				residual = append(residual, c)
				continue
			}
			o, in, ok := corrEquiKey(c)
			if !ok {
				return ap
			}
			keysOuter = append(keysOuter, o)
			keysInner = append(keysInner, in)
		}
	}
	if len(keysOuter) == 0 {
		return ap
	}
	lw := ap.Child.Width()
	inner := core
	if len(residual) > 0 {
		inner = &Filter{Child: inner, Pred: andAll(residual)}
	}
	rexprs := make([]Expr, 0, 1+len(keysInner))
	rexprs = append(rexprs, val)
	rexprs = append(rexprs, keysInner...)
	right := &Project{Child: inner, Exprs: rexprs}
	_, static := hashableBuildSide(right)

	lks := make([]Expr, len(keysOuter))
	rks := make([]Expr, len(keysInner))
	var resConj []Expr
	for i, o := range keysOuter {
		lks[i] = outerToInput(cloneExpr(o))
		rks[i] = &InputRef{Idx: 1 + i}
		// Re-check the key equality per candidate: the hash bucket is a
		// superset of SQL equality (NULLs, cross-type), never a substitute.
		resConj = append(resConj, &BinOp{Op: "=", L: cloneExpr(lks[i]), R: &InputRef{Idx: lw + 1 + i}})
	}
	hj := &HashJoin{
		Left: ap.Child, Right: right, Kind: JoinLeft, SingleRow: true,
		LeftKeys: lks, RightKeys: rks,
		Residual: andAll(resConj), RightStatic: static,
		// The residual is exactly the key equalities (any other correlated
		// conjunct aborted decorrelation above), so over a provably exact
		// hash table the executor may skip it — bucket membership already
		// decides match, null-extension, and the single-row error.
		ResidualAllKeys: true,
	}
	// Keep only [child cols..., value] — drop the join's key columns.
	exprs := make([]Expr, lw+1)
	for i := 0; i <= lw; i++ {
		exprs[i] = &InputRef{Idx: i}
	}
	return &Project{Child: hj, Exprs: exprs}
}

// corrEquiKey recognizes `<outer-only expr> = <inner-only expr>` (either
// order), where the outer side reads only OuterRef depth 0 (plus
// constants/params) and the inner side reads only the core's own columns.
func corrEquiKey(c Expr) (outer, inner Expr, ok bool) {
	b, isBin := c.(*BinOp)
	if !isBin || b.Op != "=" {
		return nil, nil, false
	}
	side := func(e Expr) int {
		f := scanExprFlags(e)
		if f.hasSubplan || f.hasVolatile || f.hasUDF {
			return -1
		}
		switch {
		case f.hasOuter && !f.hasLeft && !f.hasRight:
			if maxOuterDepth(e) > 0 {
				return -1 // correlation with a still-outer scope
			}
			return 0
		case !f.hasOuter:
			return 1
		default:
			return -1
		}
	}
	sl, sr := side(b.L), side(b.R)
	switch {
	case sl == 0 && sr == 1:
		return b.L, b.R, true
	case sl == 1 && sr == 0:
		return b.R, b.L, true
	}
	return nil, nil, false
}

// maxOuterDepth returns the deepest OuterRef in a plain (subplan-free)
// expression tree, or -1 if none.
func maxOuterDepth(e Expr) int {
	max := -1
	var walk func(Expr)
	walk = func(x Expr) {
		switch t := x.(type) {
		case nil:
		case *OuterRef:
			if t.Depth > max {
				max = t.Depth
			}
		case *BinOp:
			walk(t.L)
			walk(t.R)
		case *UnaryOp:
			walk(t.X)
		case *IsNullExpr:
			walk(t.X)
		case *BetweenExpr:
			walk(t.X)
			walk(t.Lo)
			walk(t.Hi)
		case *InListExpr:
			walk(t.X)
			for _, i := range t.List {
				walk(i)
			}
		case *CaseExpr:
			walk(t.Operand)
			for _, w := range t.Whens {
				walk(w.Cond)
				walk(w.Result)
			}
			walk(t.Else)
		case *FuncExpr:
			for _, a := range t.Args {
				walk(a)
			}
		case *CastExpr:
			walk(t.X)
		case *RowCtor:
			for _, f := range t.Fields {
				walk(f)
			}
		case *FieldSel:
			walk(t.X)
		case *UDFCallExpr:
			for _, a := range t.Args {
				walk(a)
			}
		}
	}
	walk(e)
	return max
}

// outerToInput rewrites OuterRef depth 0 into InputRef — rebasing an
// outer-side key expression to evaluate over the probe row directly.
// Only called on expressions corrEquiKey vetted (depth-0 refs only).
func outerToInput(e Expr) Expr {
	switch x := e.(type) {
	case nil:
		return nil
	case *OuterRef:
		return &InputRef{Idx: x.Idx}
	case *BinOp:
		x.L = outerToInput(x.L)
		x.R = outerToInput(x.R)
		return x
	case *UnaryOp:
		x.X = outerToInput(x.X)
		return x
	case *IsNullExpr:
		x.X = outerToInput(x.X)
		return x
	case *BetweenExpr:
		x.X = outerToInput(x.X)
		x.Lo = outerToInput(x.Lo)
		x.Hi = outerToInput(x.Hi)
		return x
	case *InListExpr:
		x.X = outerToInput(x.X)
		for i := range x.List {
			x.List[i] = outerToInput(x.List[i])
		}
		return x
	case *CaseExpr:
		x.Operand = outerToInput(x.Operand)
		for i := range x.Whens {
			x.Whens[i].Cond = outerToInput(x.Whens[i].Cond)
			x.Whens[i].Result = outerToInput(x.Whens[i].Result)
		}
		x.Else = outerToInput(x.Else)
		return x
	case *FuncExpr:
		for i := range x.Args {
			x.Args[i] = outerToInput(x.Args[i])
		}
		return x
	case *CastExpr:
		x.X = outerToInput(x.X)
		return x
	case *RowCtor:
		for i := range x.Fields {
			x.Fields[i] = outerToInput(x.Fields[i])
		}
		return x
	case *FieldSel:
		x.X = outerToInput(x.X)
		return x
	default:
		return e
	}
}
