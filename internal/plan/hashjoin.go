package plan

// useHashJoins rewrites nest-loop joins whose predicates carry equality
// conjuncts between the two sides into HashJoin nodes. Two shapes convert:
//
//	NestLoop{Kind: Inner|Left, On: …a.x = b.y…}   — explicit JOIN … ON
//	Filter{…a.x = b.y…, NestLoop{Kind: Cross}}    — comma-list FROM + WHERE
//
// In the second shape the Filter stays exactly where it was (it re-checks
// the key equality, so NULL and cross-type semantics cannot drift); the
// hash table only prunes the pair space the filter would have rejected. In
// the first shape the full ON predicate becomes the join's residual,
// evaluated per hash match.
//
// Conversion is deliberately conservative about evaluation-count changes:
// the build side runs once instead of once per left row, so it must be free
// of outer references (correlation), volatile builtins (the deterministic
// random() stream is load-bearing for differential tests), and UDF calls.
// ON conjuncts additionally must not read the outer-row stack or evaluate
// subplans, because the hash join evaluates its residual without the left
// row pushed (the depth the binder assumed for nest-loop ON no longer
// holds).
//
// A Filter is decided before the NestLoop under it: the filter's equality
// conjuncts may key the join, which the NestLoop alone would not have.
func useHashJoins(n Node) Node {
	switch x := n.(type) {
	case *Filter:
		nl, ok := x.Child.(*NestLoop)
		if !ok {
			break
		}
		descend(nl, useHashJoins)
		x.Pred = mapSubplans(x.Pred, useHashJoins)
		if hj, moved := tryHashJoin(nl, x.Pred); hj != nil {
			x.Child = hj
			// Bare-column key conjuncts moved into the join's residual
			// (where they run only on hash-matched candidates, not on
			// every joined row); strip them from the filter. Then push
			// single-side conjuncts below the join: the hot recursive
			// probe filters its frontier before probing instead of
			// filtering the (larger) joined output.
			rest, _ := stripConjuncts(x.Pred, moved)
			rest = pushdownJoinConjuncts(hj, rest)
			if rest == nil {
				return x.Child
			}
			x.Pred = rest
		}
		return x
	case *NestLoop:
		descend(x, useHashJoins)
		if hj, _ := tryHashJoin(x, nil); hj != nil {
			return hj
		}
		return x
	}
	descend(n, useHashJoins)
	return n
}

// tryHashJoin attempts the NestLoop → HashJoin conversion. filterPred, when
// non-nil, is the predicate of a Filter directly above an inner/cross join
// whose equality conjuncts may also serve as hash keys. Filter conjuncts
// of the shape `InputRef = InputRef` move into the join's Residual — there
// they run only on hash-matched candidates, not on every joined row, while
// keeping the equality semantics exact (the hash bucket is a superset of
// SQL equality, never a substitute) — and are returned so the caller can
// strip them from the filter. Returns a nil join when it must stay a nest
// loop.
func tryHashJoin(nl *NestLoop, filterPred Expr) (*HashJoin, []Expr) {
	if nl.Kind != JoinInner && nl.Kind != JoinCross && nl.Kind != JoinLeft {
		return nil, nil
	}
	lw := nl.Left.Width()

	var onConj []Expr
	if nl.On != nil {
		onConj = splitConjuncts(nl.On)
		for _, c := range onConj {
			f := scanExprFlags(c)
			if f.hasOuter || f.hasSubplan || f.hasVolatile || f.hasUDF {
				return nil, nil
			}
		}
	}

	var lks, rks []Expr
	var moved []Expr
	residualConj := onConj
	addKeys := func(conjs []Expr, collectBare bool) {
		for _, c := range conjs {
			if lk, rk, ok := equiKey(c, lw); ok {
				lks = append(lks, lk)
				rks = append(rks, rk)
				if collectBare && bareRefEquality(c) {
					moved = append(moved, c)
					residualConj = append(residualConj, c)
				}
			}
		}
	}
	addKeys(onConj, false)
	// Filter conjuncts above a LEFT join filter null-extended output and
	// must not inform the join itself.
	if filterPred != nil && nl.Kind != JoinLeft {
		addKeys(splitConjuncts(filterPred), true)
	}
	if len(lks) == 0 {
		return nil, nil
	}

	ok, static := hashableBuildSide(nl.Right)
	if !ok {
		return nil, nil
	}
	kind := nl.Kind
	if kind == JoinCross {
		kind = JoinInner
	}
	var residual Expr
	if len(residualConj) > 0 {
		residual = andAll(residualConj)
	}
	return &HashJoin{
		Left: nl.Left, Right: nl.Right, Kind: kind,
		LeftKeys: lks, RightKeys: rks,
		Residual: residual, RightStatic: static,
		ResidualAllKeys: len(onConj) == 0 && len(moved) > 0 && len(moved) == len(residualConj),
	}, moved
}

// pushdownJoinConjuncts moves the conjuncts of pred that read only one
// side of an inner hash join below the join (classic predicate pushdown),
// returning what must remain above. Only pure conjuncts move — no outer
// references (the build side must stay uncorrelated), no subplans, no
// volatile builtins, no UDFs — so evaluation counts can only shrink and
// results cannot change. Left joins are left alone: conjuncts above them
// filter null-extended rows.
func pushdownJoinConjuncts(hj *HashJoin, pred Expr) Expr {
	if pred == nil || hj.Kind != JoinInner {
		return pred
	}
	lw := hj.Left.Width()
	var above, lpush, rpush []Expr
	for _, c := range splitConjuncts(pred) {
		f := scanExprSplit(c, lw)
		switch {
		case f.hasOuter || f.hasSubplan || f.hasVolatile || f.hasUDF:
			above = append(above, c)
		case f.hasLeft && !f.hasRight:
			lpush = append(lpush, c)
		case f.hasRight && !f.hasLeft:
			rpush = append(rpush, c)
		default:
			above = append(above, c)
		}
	}
	if len(lpush) > 0 {
		hj.Left = &Filter{Child: hj.Left, Pred: andAll(lpush)}
	}
	if len(rpush) > 0 {
		for i := range rpush {
			rpush[i] = shiftInputRefs(cloneExpr(rpush[i]), -lw)
		}
		hj.Right = &Filter{Child: hj.Right, Pred: andAll(rpush)}
	}
	if len(above) == 0 {
		return nil
	}
	return andAll(above)
}

// bareRefEquality reports whether c is `InputRef = InputRef` — the shape
// safe to relocate from a filter above the join into the join's residual
// (no outer references, no side effects, trivially cheap per candidate).
func bareRefEquality(c Expr) bool {
	b, ok := c.(*BinOp)
	if !ok || b.Op != "=" {
		return false
	}
	_, lOK := b.L.(*InputRef)
	_, rOK := b.R.(*InputRef)
	return lOK && rOK
}

// stripConjuncts removes the given conjuncts (by identity) from pred,
// returning the remaining predicate (nil when nothing is left) and whether
// anything was removed.
func stripConjuncts(pred Expr, drop []Expr) (Expr, bool) {
	if len(drop) == 0 {
		return pred, false
	}
	isDropped := func(c Expr) bool {
		for _, d := range drop {
			if c == d {
				return true
			}
		}
		return false
	}
	var rest []Expr
	for _, c := range splitConjuncts(pred) {
		if !isDropped(c) {
			rest = append(rest, c)
		}
	}
	if len(rest) == 0 {
		return nil, true
	}
	return andAll(rest), true
}

// exprFlags summarizes what an expression subtree (including plans nested
// in subplan expressions) touches.
type exprFlags struct {
	hasLeft, hasRight bool // InputRef below / at-or-above the split
	hasOuter          bool
	hasSubplan        bool
	hasVolatile       bool
	hasUDF            bool
	hasCTE            bool // CTEScan inside nested subplan plans
}

func (f *exprFlags) merge(g exprFlags) {
	f.hasLeft = f.hasLeft || g.hasLeft
	f.hasRight = f.hasRight || g.hasRight
	f.hasOuter = f.hasOuter || g.hasOuter
	f.hasSubplan = f.hasSubplan || g.hasSubplan
	f.hasVolatile = f.hasVolatile || g.hasVolatile
	f.hasUDF = f.hasUDF || g.hasUDF
	f.hasCTE = f.hasCTE || g.hasCTE
}

// scanExprFlags walks e with the input-ref split at lw = 0 disabled (every
// InputRef counts as "right"); use scanExprSplit for side classification.
func scanExprFlags(e Expr) exprFlags { return scanExprSplit(e, 0) }

func scanExprSplit(e Expr, lw int) exprFlags {
	var f exprFlags
	if e == nil {
		return f
	}
	switch x := e.(type) {
	case *Const, *ParamRef:
		return f
	case *InputRef:
		if x.Idx < lw {
			f.hasLeft = true
		} else {
			f.hasRight = true
		}
		return f
	case *OuterRef:
		f.hasOuter = true
		return f
	case *FuncExpr:
		if x.Name == "random" || x.Name == "setseed" {
			f.hasVolatile = true
		}
	case *SubplanExpr:
		f.hasSubplan = true
		// InputRefs inside the nested plan address that plan's own rows,
		// not the join's — only the correlation/volatility flags propagate.
		f.merge(scanNodeFlags(x.Plan))
	case *LetExpr:
		// Classified like the subplan it replaces: its operands address the
		// rows it pushes.
		f.hasSubplan = true
		exprChildren(e, func(c Expr) Expr {
			g := scanExprSplit(c, 0)
			g.hasLeft, g.hasRight = false, false
			f.merge(g)
			return c
		})
		return f
	case *UDFCallExpr:
		f.hasUDF = true
	}
	exprChildren(e, func(c Expr) Expr { f.merge(scanExprSplit(c, lw)); return c })
	return f
}

// scanNodeFlags aggregates exprFlags over a whole plan subtree. (An
// Apply's Sub is correlated on the apply's own rows — OuterRef depth 0 —
// and reporting that as hasOuter keeps enclosing subtrees conservatively
// treated as correlated.)
func scanNodeFlags(n Node) exprFlags {
	var f exprFlags
	if n == nil {
		return f
	}
	if _, ok := n.(*CTEScan); ok {
		f.hasCTE = true
	}
	nodeChildren(n, func(c Node) Node { f.merge(scanNodeFlags(c)); return c })
	nodeExprs(n, func(e Expr) Expr { f.merge(scanExprFlags(e)); return e })
	// InputRefs inside a subtree address its own rows; they are not join
	// correlation.
	f.hasLeft, f.hasRight = false, false
	return f
}

// HasVolatile reports whether any part of the plan — root, CTE bodies,
// nested subplans — contains a volatile builtin (random, setseed) or a UDF
// call (whose interpreted body may consume the session's random stream).
// The executor runs such plans tuple-at-a-time: batching evaluates one
// pipeline stage over a whole batch before the next stage runs, which
// would transpose volatile draws across stages relative to Volcano
// iteration even though each operator preserves its own row-major order.
// Build computes the answer once; a plan is immutable afterwards.
func (p *Plan) HasVolatile() bool { return p.volatile }

// scanVolatile computes HasVolatile's answer by walking the whole plan.
func (p *Plan) scanVolatile() bool {
	f := scanNodeFlags(p.Root)
	for _, cte := range p.CTEs {
		f.merge(scanNodeFlags(cte.Plan))
	}
	return f.hasVolatile || f.hasUDF
}

// hashableBuildSide reports whether a join's right subtree may be drained
// once into a hash table (ok), and whether that table survives rescans
// (static: no CTE state read anywhere underneath).
func hashableBuildSide(n Node) (ok, static bool) {
	f := scanNodeFlags(n)
	if f.hasOuter || f.hasVolatile || f.hasUDF {
		return false, false
	}
	return true, !f.hasCTE
}

// equiKey recognizes an equality conjunct whose two sides evaluate purely
// from one join side each: `<left expr> = <right expr>` (either order).
// The returned right key is rebased to the right row (InputRef indices
// shifted below lw).
func equiKey(c Expr, lw int) (lk, rk Expr, ok bool) {
	b, isBin := c.(*BinOp)
	if !isBin || b.Op != "=" {
		return nil, nil, false
	}
	side := func(e Expr) int {
		f := scanExprSplit(e, lw)
		if f.hasOuter || f.hasSubplan || f.hasVolatile || f.hasUDF {
			return -1
		}
		switch {
		case f.hasLeft && !f.hasRight:
			return 0
		case f.hasRight && !f.hasLeft:
			return 1
		default:
			return -1 // mixed or constant: not a join key
		}
	}
	sl, sr := side(b.L), side(b.R)
	switch {
	case sl == 0 && sr == 1:
		return b.L, shiftInputRefs(cloneExpr(b.R), -lw), true
	case sl == 1 && sr == 0:
		return b.R, shiftInputRefs(cloneExpr(b.L), -lw), true
	}
	return nil, nil, false
}

// shiftInputRefs adds delta to every InputRef index of a (cloned, mutable)
// expression tree.
func shiftInputRefs(e Expr, delta int) Expr {
	walkExpr(e, func(x Expr) {
		if r, ok := x.(*InputRef); ok {
			r.Idx += delta
		}
	})
	return e
}
