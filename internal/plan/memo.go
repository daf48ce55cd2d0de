package plan

import "sort"

// This file memoises the embedded queries of a compiled loop. After loop
// lowering a compiled function is one Loop whose per-iteration cost is its
// embedded queries (the paper's Qi), each a subplan evaluated — opened,
// pulled, closed — once per iteration. Many of them read the same few
// loop-state values over and over (walk revisits cells, parse revisits FSM
// states), and a pure subtree's rows depend only on the outer values it
// reads and the statement's snapshot, both fixed while the key repeats.
// So a Memo keyed on exactly those outer values replays the rows of an
// earlier evaluation instead of running the subtree again; with no keys
// it runs once per Loop instance, which is loop-invariant hoisting.
//
// Placement, per subplan of a Loop's Seed/Step/Out:
//
//	Project → Filter(roll BETWEEN lo AND hi) → Window … [location, movement]
//	          └ reads roll, location, movement  └ Memo[location, movement]
//
// the row-local Filter/Project chain from the subplan root is peeled, and
// the Memo wraps the highest node on it whose set of outer references
// equals the smallest set on the chain: keys as few as the subplan
// allows, cached rows as close to the root as those keys allow. A bare
// table scan at the bottom is never the memo point — replaying it saves
// nothing over scanning it.

// memoiseLoops decides every subplan of every Loop in n — Loops inlined
// under Apply or nested in other subplans included — and records each
// decision on the subplan for EXPLAIN.
func memoiseLoops(n Node) Node {
	same := func(e Expr) Expr { return e }
	return mapPlan(n, func(x Node) Node {
		if l, ok := x.(*Loop); ok {
			nodeExprs(l, func(e Expr) Expr {
				return mapExpr(e, func(y Expr) Expr {
					if sp, ok := y.(*SubplanExpr); ok {
						memoise(sp)
					}
					return y
				})
			})
		}
		return x
	}, same)
}

// memoise places the Memo of one subplan, or says why there is none.
func memoise(sp *SubplanExpr) {
	if why := memoBlocker(sp.Plan); why != "" {
		sp.MemoNote = "not memoised: " + why
		return
	}
	slots := []*Node{&sp.Plan}
	for {
		var next *Node
		switch x := (*slots[len(slots)-1]).(type) {
		case *Filter:
			next = &x.Child
		case *Project:
			next = &x.Child
		}
		if next == nil {
			break
		}
		slots = append(slots, next)
	}
	if _, scan := (*slots[len(slots)-1]).(*SeqScan); scan && len(slots) > 1 {
		slots = slots[:len(slots)-1]
	}
	// A node's references include its children's, so the sets only shrink
	// down the chain and "equal to the smallest" is "as small as it".
	keys := outerRefsOf(*slots[len(slots)-1])
	at := 0
	for len(outerRefsOf(*slots[at])) != len(keys) {
		at++
	}
	*slots[at] = &Memo{Child: *slots[at], Keys: keys}

	note := "memo"
	if len(keys) == 0 {
		note = "hoisted"
	}
	if at > 0 {
		note += " below " + chainOpName(*slots[at-1])
	}
	if len(keys) > 0 {
		note += " " + refList(keys)
	}
	sp.MemoNote = note
}

// memoBlocker says why a subplan's rows may depend on more than the outer
// values it reads, or "" when they cannot. Subtrees that push outer rows
// themselves would need their keys re-based per depth; they are left for
// later.
func memoBlocker(n Node) string {
	f := scanNodeFlags(n)
	switch {
	case f.hasVolatile:
		return "volatile"
	case f.hasUDF:
		return "UDF call"
	case f.hasCTE:
		return "CTE"
	case f.hasSubplan:
		return "nested subplan"
	}
	pushes := false
	mapPlan(n, func(x Node) Node {
		switch x.(type) {
		case *Apply, *NestLoop, *Loop, *RecursiveUnion, *WithNode:
			pushes = true
		}
		return x
	}, func(e Expr) Expr { return e })
	if pushes {
		return "pushes outer rows"
	}
	return ""
}

// outerRefsOf returns the distinct outer references a subtree reads,
// ordered by depth then column.
func outerRefsOf(n Node) []OuterRef {
	var refs []OuterRef
	mapPlan(n, func(x Node) Node { return x }, func(e Expr) Expr {
		if r, ok := e.(*OuterRef); ok {
			for _, have := range refs {
				if have == *r {
					return e
				}
			}
			refs = append(refs, *r)
		}
		return e
	})
	sort.Slice(refs, func(i, j int) bool {
		if refs[i].Depth != refs[j].Depth {
			return refs[i].Depth < refs[j].Depth
		}
		return refs[i].Idx < refs[j].Idx
	})
	return refs
}

func chainOpName(n Node) string {
	if _, ok := n.(*Filter); ok {
		return "Filter"
	}
	return "Project"
}

// refList renders memo keys the way EXPLAIN renders OuterRefs.
func refList(keys []OuterRef) string {
	es := make([]Expr, len(keys))
	for i := range keys {
		es[i] = &keys[i]
	}
	return exprList(es)
}
