package plan

import (
	"plsqlaway/internal/sqltypes"
)

// The simplify pass cleans up shapes the inlining pipeline leaves behind.
// tryInline casts every argument and body result to the declared types, and
// decorrelateApply re-projects the pre-hoist column list above the join it
// builds; each surviving CastExpr costs an extra vectorized pass per batch
// and each permutation Project a full column copy. Both are provably
// removable often enough to matter: stored column values always carry their
// declared kind (INSERT/UPDATE cast on write) and sqltypes.Cast is an
// identity for same-kind values and NULL, so a cast whose operand kind is
// statically known to match the target can be dropped; a Project consisting
// solely of bare column references can be merged into a consumer whose
// output schema doesn't depend on its input width (Project, Agg) by
// remapping the consumer's InputRefs through the permutation.

// nodeKinds reports the static value kind of each output column of n.
// ok=false means at least one column's kind isn't statically known; callers
// must then treat every column as unknown. Only node shapes whose schema is
// derivable without full type inference are handled — everything else bails,
// which just means fewer casts elide.
func nodeKinds(n Node) ([]sqltypes.Kind, bool) {
	switch x := n.(type) {
	case *SeqScan:
		ks := make([]sqltypes.Kind, len(x.Table.Cols))
		for i, c := range x.Table.Cols {
			ks[i] = c.Type.Kind
		}
		return ks, true
	case *IndexScan:
		ks := make([]sqltypes.Kind, len(x.Table.Cols))
		for i, c := range x.Table.Cols {
			ks[i] = c.Type.Kind
		}
		return ks, true
	case *Filter:
		return nodeKinds(x.Child)
	case *Sort:
		return nodeKinds(x.Child)
	case *Limit:
		return nodeKinds(x.Child)
	case *Distinct:
		return nodeKinds(x.Child)
	case *Materialize:
		return nodeKinds(x.Child)
	case *WithNode:
		return nodeKinds(x.Child)
	case *Project:
		return exprListKinds(x.Exprs, x.Child)
	case *Result:
		return exprListKinds(x.Exprs, nil)
	case *NestLoop:
		return joinKinds(x.Left, x.Right)
	case *HashJoin:
		return joinKinds(x.Left, x.Right)
	case *Apply:
		ck, ok := nodeKinds(x.Child)
		if !ok {
			return nil, false
		}
		sk, ok := nodeKinds(x.Sub)
		if !ok || len(sk) != 1 {
			return nil, false
		}
		return append(append([]sqltypes.Kind(nil), ck...), sk[0]), true
	}
	return nil, false
}

func joinKinds(l, r Node) ([]sqltypes.Kind, bool) {
	lk, ok := nodeKinds(l)
	if !ok {
		return nil, false
	}
	rk, ok := nodeKinds(r)
	if !ok {
		return nil, false
	}
	return append(append([]sqltypes.Kind(nil), lk...), rk...), true
}

func exprListKinds(exprs []Expr, child Node) ([]sqltypes.Kind, bool) {
	var schema []sqltypes.Kind
	known := false
	if child != nil {
		schema, known = nodeKinds(child)
	}
	ks := make([]sqltypes.Kind, len(exprs))
	for i, e := range exprs {
		k, ok := exprKind(e, schema, known)
		if !ok {
			return nil, false
		}
		ks[i] = k
	}
	return ks, true
}

// exprKind reports the static kind of e over a row of the given schema.
// Deliberately shallow: column references, casts, and non-null literals
// cover the shapes inlining produces.
func exprKind(e Expr, schema []sqltypes.Kind, known bool) (sqltypes.Kind, bool) {
	switch x := e.(type) {
	case *InputRef:
		if known && x.Idx >= 0 && x.Idx < len(schema) {
			return schema[x.Idx], true
		}
	case *CastExpr:
		return x.Type.Kind, true
	case *Const:
		if !x.Val.IsNull() {
			return x.Val.Kind(), true
		}
	case *RowCtor:
		return sqltypes.KindRow, true
	case *FuncExpr:
		// The coord constructor is the one builtin the inliner routinely
		// wraps in a cast (coord-typed parameters); it always yields a
		// coord or errors.
		if x.Name == "coord" {
			return sqltypes.KindCoord, true
		}
	}
	return sqltypes.KindNull, false
}

// simplifyExpr rewrites e over a row of the given schema, dropping no-op
// casts (nested plans are simplifyNode's own).
func simplifyExpr(e Expr, schema []sqltypes.Kind, known bool) Expr {
	if _, ok := e.(*LetExpr); ok {
		schema, known = nil, false // its operands read the rows it pushes
	}
	exprChildren(e, func(c Expr) Expr { return simplifyExpr(c, schema, known) })
	if x, ok := e.(*CastExpr); ok {
		if k, ok := exprKind(x.X, schema, known); ok && k == x.Type.Kind {
			return x.X
		}
	}
	return e
}

// columnPermutation reports the source column index per output column when
// every projection expression is a bare InputRef.
func columnPermutation(p *Project) ([]int, bool) {
	perm := make([]int, len(p.Exprs))
	for i, e := range p.Exprs {
		r, ok := e.(*InputRef)
		if !ok {
			return nil, false
		}
		perm[i] = r.Idx
	}
	return perm, true
}

// remappable reports whether every expression can have its InputRefs
// rewritten through a column permutation. Subplans and lets are the
// holdouts: they see the consumer's input row via OuterRef, and
// retargeting those across a removed Project would need depth-aware
// rewriting.
func remappable(exprs []Expr) bool {
	for _, e := range exprs {
		ok := true
		walkExpr(e, func(x Expr) {
			switch x.(type) {
			case *SubplanExpr, *LetExpr:
				ok = false
			}
		})
		if !ok {
			return false
		}
	}
	return true
}

// remapInputRefs rewrites every InputRef in e through perm.
func remapInputRefs(e Expr, perm []int) Expr {
	return mapExpr(e, func(x Expr) Expr {
		if r, ok := x.(*InputRef); ok {
			return &InputRef{Idx: perm[r.Idx]}
		}
		return x
	})
}

// mergePermProject collapses a bare-column-reference Project child into a
// consumer whose output schema is independent of its input width. exprs are
// the consumer's expressions over the Project's output row; they are
// rewritten in place through the permutation.
func mergePermProject(child Node, exprLists ...[]Expr) Node {
	p, ok := child.(*Project)
	if !ok {
		return child
	}
	perm, ok := columnPermutation(p)
	if !ok {
		return child
	}
	for _, exprs := range exprLists {
		if !remappable(exprs) {
			return child
		}
	}
	for _, exprs := range exprLists {
		for i := range exprs {
			exprs[i] = remapInputRefs(exprs[i], perm)
		}
	}
	return p.Child
}

// simplifyNode rewrites the tree bottom-up. Each operator's expressions
// simplify over the row they read: the child's, or the joined pair's.
func simplifyNode(n Node) Node {
	descend(n, simplifyNode)
	var schema []sqltypes.Kind
	known := false
	switch x := n.(type) {
	case *Filter:
		schema, known = nodeKinds(x.Child)
	case *Project:
		x.Child = mergePermProject(x.Child, x.Exprs)
		schema, known = nodeKinds(x.Child)
	case *Agg:
		aggArgs := make([]Expr, 0, 2*len(x.Aggs))
		for i := range x.Aggs {
			aggArgs = append(aggArgs, x.Aggs[i].Arg, x.Aggs[i].Sep)
		}
		x.Child = mergePermProject(x.Child, x.GroupBy, aggArgs)
		for i := range x.Aggs {
			x.Aggs[i].Arg = aggArgs[2*i]
			x.Aggs[i].Sep = aggArgs[2*i+1]
		}
		schema, known = nodeKinds(x.Child)
	case *Window:
		schema, known = nodeKinds(x.Child)
	case *Sort:
		schema, known = nodeKinds(x.Child)
	case *NestLoop:
		schema, known = joinKinds(x.Left, x.Right)
	case *HashJoin:
		// Each side's keys read that side's row alone.
		lk, lok := nodeKinds(x.Left)
		rk, rok := nodeKinds(x.Right)
		for i := range x.LeftKeys {
			x.LeftKeys[i] = simplifyExpr(x.LeftKeys[i], lk, lok)
		}
		for i := range x.RightKeys {
			x.RightKeys[i] = simplifyExpr(x.RightKeys[i], rk, rok)
		}
		schema, known = joinKinds(x.Left, x.Right)
		x.Residual = simplifyExpr(x.Residual, schema, known)
		return n
	}
	nodeExprs(n, func(e Expr) Expr { return simplifyExpr(e, schema, known) })
	return n
}
