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

// hoistInlineApplies rewrites the tree bottom-up. Filter, Project and Agg
// hoist from their eager positions; every other subplan is rewritten in
// place.
func hoistInlineApplies(n Node) Node {
	nodeChildren(n, hoistInlineApplies)
	var subs []*SubplanExpr
	switch x := n.(type) {
	case *Filter:
		lw := x.Child.Width()
		var keep, lifted []Expr
		for _, c := range splitConjuncts(x.Pred) {
			before := len(subs)
			c = mapSubplans(collectInlineSubs(c, lw, &subs), hoistInlineApplies)
			if len(subs) > before {
				lifted = append(lifted, c)
			} else {
				keep = append(keep, c)
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
		lw := x.Child.Width()
		for i := range x.Exprs {
			x.Exprs[i] = collectInlineSubs(x.Exprs[i], lw, &subs)
		}
		x.Child = chainApplies(x.Child, subs)
	case *Agg:
		lw := x.Child.Width()
		for i := range x.GroupBy {
			x.GroupBy[i] = collectInlineSubs(x.GroupBy[i], lw, &subs)
		}
		for i := range x.Aggs {
			x.Aggs[i].Arg = collectInlineSubs(x.Aggs[i].Arg, lw, &subs)
		}
		x.Child = chainApplies(x.Child, subs)
	}
	nodeExprs(n, func(e Expr) Expr { return mapSubplans(e, hoistInlineApplies) })
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
	walkExpr(e, func(x Expr) {
		if r, ok := x.(*OuterRef); ok && r.Depth > max {
			max = r.Depth
		}
	})
	return max
}

// outerToInput rewrites OuterRef depth 0 into InputRef — rebasing an
// outer-side key expression to evaluate over the probe row directly.
// Only called on expressions corrEquiKey vetted (depth-0 refs only).
func outerToInput(e Expr) Expr {
	return mapExpr(e, func(x Expr) Expr {
		if r, ok := x.(*OuterRef); ok {
			return &InputRef{Idx: r.Idx}
		}
		return x
	})
}
