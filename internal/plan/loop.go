package plan

import "plsqlaway/internal/sqltypes"

// This file specialises the plan to the program the PL/SQL compiler
// emits. That SQL is a fixed idiom — a tail-recursive trampoline CTE whose
// step is a CASE over ANF let-chains — and running it on the generic
// operators costs a working-table scan, a lateral join, a filter, two
// projections and a boxed ROW per iteration, a nest loop per `let`, and a
// tuplestore trace of every iteration that the consumer then throws away.
// Both shapes are recognised structurally on the bound tree — by operator
// and expression shape only, never by a column, table or function name —
// and replaced:
//
//	With [i] → Project[out] → Filter[NOT #k] → CTEScan i
//	CTE i: RecursiveUnion(all)
//	         Project[seed] → Result
//	         Project[#n.f1 … #n.fn] → Filter[#k] → NestLoop → WorkingScan i
//	                                                        → Project[step] → Result
//	                                         ⇒  Loop{seed, step, k, out}
//
//	subplan(Project[body] → NestLoop(… Project[s0]→Result, Project[s1]→Result …))
//	                                         ⇒  Let[s0, s1, …](body)
//
// The replaced expressions move over unchanged: Loop and LetExpr push
// exactly the outer rows the operators they replace pushed, so every
// OuterRef keeps its meaning. Anything that is not the exact shape stays
// on the generic operators, and EXPLAIN says why.

// lowerLoops flattens let-chains everywhere and lowers every trampoline
// CTE it can, counting them in p.LoopedCTEs. A lowered CTE keeps its
// slot, with no plan.
func lowerLoops(p *Plan) {
	ctes := p.CTEs
	// Reference counts per CTE: the lowering is only sound when the one
	// scan it absorbs is the only reader. (Plans without a recursive CTE —
	// nearly all of them — skip the census.)
	scans := make([]int, len(ctes))
	working := make([]int, len(ctes))
	count := func(n Node) Node {
		if s, ok := n.(*CTEScan); ok {
			if s.Working {
				working[s.Index]++
			} else {
				scans[s.Index]++
			}
		}
		return n
	}
	same := func(e Expr) Expr { return e }
	for i := range ctes {
		if ctes[i].Recursive {
			mapPlan(p.Root, count, same)
			for j := range ctes {
				mapPlan(ctes[j].Plan, count, same)
			}
			break
		}
	}

	lower := func(n Node) Node {
		w, ok := n.(*WithNode)
		if !ok {
			return n
		}
		last := len(w.Indices) - 1
		for pos, idx := range w.Indices {
			ru, ok := ctes[idx].Plan.(*RecursiveUnion)
			if !ok {
				continue
			}
			loop, why := matchTrampoline(ru, w.Child, working[idx], scans[idx])
			if why == "" && pos != last {
				// Later CTEs of the same WITH materialise after this one
				// and before the body; a Loop in the body would run last.
				why = "not the last CTE of its WITH"
			}
			if why != "" {
				ru.NotLowered = why
				continue
			}
			ctes[idx].Plan = nil
			p.LoopedCTEs++
			if last == 0 {
				return loop
			}
			w.Indices = w.Indices[:last]
			w.Child = loop
		}
		return w
	}
	// A CTE body nests only CTEs planned after it (higher indices), so
	// descending order has every trampoline's step finished before the
	// WithNode that absorbs it is reached.
	for i := len(ctes) - 1; i >= 0; i-- {
		ctes[i].Plan = mapPlan(ctes[i].Plan, lower, flattenLet)
	}
	p.Root = mapPlan(p.Root, lower, flattenLet)
}

// matchTrampoline checks one recursive CTE and the body of its WITH
// against the trampoline shape. It returns the Loop that replaces both,
// or the reason the CTE stays a RecursiveUnion.
func matchTrampoline(ru *RecursiveUnion, body Node, workingScans, scans int) (*Loop, string) {
	if ru.Dedup {
		return nil, "UNION dedup"
	}
	if workingScans != 1 {
		return nil, "self-reference appears twice"
	}
	seed, ok := singleRow(ru.NonRec)
	if !ok {
		return nil, "seed is not a single row"
	}
	n := len(seed)

	// Recursive term: explode ← filter ← working row × one-row step.
	const shape = "recursive term is not a single-row step over the working table"
	explode, ok := ru.Rec.(*Project)
	if !ok {
		return nil, shape
	}
	filt, ok := explode.Child.(*Filter)
	if !ok {
		return nil, shape
	}
	nl, ok := filt.Child.(*NestLoop)
	if !ok || !alwaysTrue(nl.On) {
		return nil, shape
	}
	if ws, ok := nl.Left.(*CTEScan); !ok || !ws.Working || ws.Index != ru.CTEIndex {
		return nil, shape
	}
	step, ok := singleRow(nl.Right)
	if !ok || len(step) != 1 {
		return nil, shape
	}
	cont, ok := filt.Pred.(*InputRef)
	if !ok || cont.Idx >= n {
		return nil, "recursive term filters on more than one working-table column"
	}
	if len(explode.Exprs) != n {
		return nil, shape
	}
	for i, e := range explode.Exprs {
		f, ok := e.(*FieldSel)
		if !ok || f.Index != i {
			return nil, "recursive term does not explode one ROW-valued column"
		}
		if src, ok := f.X.(*InputRef); !ok || src.Idx != n {
			return nil, "recursive term does not explode one ROW-valued column"
		}
	}

	// Consumer: the WITH's body reads only the row that stopped.
	const reads = "consumer reads continuing rows"
	out, ok := body.(*Project)
	if !ok || scans != 1 {
		return nil, reads
	}
	final, ok := out.Child.(*Filter)
	if !ok {
		return nil, reads
	}
	if cs, ok := final.Child.(*CTEScan); !ok || cs.Working || cs.Index != ru.CTEIndex {
		return nil, reads
	}
	not, ok := final.Pred.(*UnaryOp)
	if !ok || not.Op != "NOT" {
		return nil, reads
	}
	if ref, ok := not.X.(*InputRef); !ok || ref.Idx != cont.Idx {
		return nil, reads
	}
	return &Loop{Seed: seed, Step: step[0], Cont: cont.Idx, Out: out.Exprs}, ""
}

// singleRow matches a FROM-less SELECT — Project over the empty Result —
// and returns its select list.
func singleRow(n Node) ([]Expr, bool) {
	p, ok := n.(*Project)
	if !ok {
		return nil, false
	}
	if r, ok := p.Child.(*Result); !ok || len(r.Exprs) != 0 {
		return nil, false
	}
	return p.Exprs, true
}

// alwaysTrue reports a join condition that cannot reject: none (cross
// join) or the constant true (`ON true`).
func alwaysTrue(on Expr) bool {
	if on == nil {
		return true
	}
	c, ok := on.(*Const)
	return ok && c.Val.Kind() == sqltypes.KindBool && c.Val.Bool()
}

// flattenLet turns a scalar subplan that is nothing but a let-chain into
// a LetExpr; every other expression passes through. Embedded queries that
// read a table keep their operators: they are the work the function
// actually asked for.
func flattenLet(e Expr) Expr {
	sp, ok := e.(*SubplanExpr)
	if !ok || sp.Mode != SubplanScalar {
		return e
	}
	body, ok := sp.Plan.(*Project)
	if !ok || len(body.Exprs) != 1 {
		return e
	}
	slots, ok := letChain(body.Child)
	if !ok {
		return e
	}
	return &LetExpr{Slots: slots, Body: body.Exprs[0]}
}

// letChain matches the FROM clause of a let-chain: one-column FROM-less
// SELECTs, the second and later ones LATERAL (a plain derived table there
// would sit under a Materialize and is left alone), joined left-deep by
// joins that cannot reject. An empty FROM is the chain of no slots.
func letChain(n Node) ([]Expr, bool) {
	switch x := n.(type) {
	case *Result:
		return nil, len(x.Exprs) == 0
	case *Project:
		s, ok := singleRow(x)
		return s, ok && len(s) == 1
	case *NestLoop:
		if _, bare := x.Left.(*Result); bare || !alwaysTrue(x.On) {
			return nil, false
		}
		left, ok := letChain(x.Left)
		if !ok {
			return nil, false
		}
		s, ok := singleRow(x.Right)
		if !ok || len(s) != 1 {
			return nil, false
		}
		return append(left, s[0]), true
	}
	return nil, false
}
