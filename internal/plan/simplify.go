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
// casts and recursing into nested subplans.
func simplifyExpr(e Expr, schema []sqltypes.Kind, known bool) Expr {
	switch x := e.(type) {
	case nil:
		return nil
	case *Const, *InputRef, *OuterRef, *ParamRef:
		return e
	case *BinOp:
		x.L = simplifyExpr(x.L, schema, known)
		x.R = simplifyExpr(x.R, schema, known)
	case *UnaryOp:
		x.X = simplifyExpr(x.X, schema, known)
	case *IsNullExpr:
		x.X = simplifyExpr(x.X, schema, known)
	case *BetweenExpr:
		x.X = simplifyExpr(x.X, schema, known)
		x.Lo = simplifyExpr(x.Lo, schema, known)
		x.Hi = simplifyExpr(x.Hi, schema, known)
	case *InListExpr:
		x.X = simplifyExpr(x.X, schema, known)
		for i := range x.List {
			x.List[i] = simplifyExpr(x.List[i], schema, known)
		}
	case *CaseExpr:
		x.Operand = simplifyExpr(x.Operand, schema, known)
		for i := range x.Whens {
			x.Whens[i].Cond = simplifyExpr(x.Whens[i].Cond, schema, known)
			x.Whens[i].Result = simplifyExpr(x.Whens[i].Result, schema, known)
		}
		x.Else = simplifyExpr(x.Else, schema, known)
	case *FuncExpr:
		for i := range x.Args {
			x.Args[i] = simplifyExpr(x.Args[i], schema, known)
		}
	case *CastExpr:
		x.X = simplifyExpr(x.X, schema, known)
		if k, ok := exprKind(x.X, schema, known); ok && k == x.Type.Kind {
			return x.X
		}
	case *RowCtor:
		for i := range x.Fields {
			x.Fields[i] = simplifyExpr(x.Fields[i], schema, known)
		}
	case *FieldSel:
		x.X = simplifyExpr(x.X, schema, known)
	case *SubplanExpr:
		x.Plan = simplifyNode(x.Plan)
		x.CompareX = simplifyExpr(x.CompareX, schema, known)
	case *LetExpr:
		exprChildren(x, func(c Expr) Expr { return simplifyExpr(c, nil, false) })
	case *UDFCallExpr:
		for i := range x.Args {
			x.Args[i] = simplifyExpr(x.Args[i], schema, known)
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

// walkExpr visits e and every nested sub-expression (not nested plans).
func walkExpr(e Expr, f func(Expr)) {
	if e == nil {
		return
	}
	f(e)
	exprChildren(e, func(c Expr) Expr { walkExpr(c, f); return c })
}

// remapInputRefs rewrites every InputRef in e through perm.
func remapInputRefs(e Expr, perm []int) Expr {
	switch x := e.(type) {
	case nil:
		return nil
	case *InputRef:
		return &InputRef{Idx: perm[x.Idx]}
	case *BinOp:
		x.L = remapInputRefs(x.L, perm)
		x.R = remapInputRefs(x.R, perm)
	case *UnaryOp:
		x.X = remapInputRefs(x.X, perm)
	case *IsNullExpr:
		x.X = remapInputRefs(x.X, perm)
	case *BetweenExpr:
		x.X = remapInputRefs(x.X, perm)
		x.Lo = remapInputRefs(x.Lo, perm)
		x.Hi = remapInputRefs(x.Hi, perm)
	case *InListExpr:
		x.X = remapInputRefs(x.X, perm)
		for i := range x.List {
			x.List[i] = remapInputRefs(x.List[i], perm)
		}
	case *CaseExpr:
		x.Operand = remapInputRefs(x.Operand, perm)
		for i := range x.Whens {
			x.Whens[i].Cond = remapInputRefs(x.Whens[i].Cond, perm)
			x.Whens[i].Result = remapInputRefs(x.Whens[i].Result, perm)
		}
		x.Else = remapInputRefs(x.Else, perm)
	case *FuncExpr:
		for i := range x.Args {
			x.Args[i] = remapInputRefs(x.Args[i], perm)
		}
	case *CastExpr:
		x.X = remapInputRefs(x.X, perm)
	case *RowCtor:
		for i := range x.Fields {
			x.Fields[i] = remapInputRefs(x.Fields[i], perm)
		}
	case *FieldSel:
		x.X = remapInputRefs(x.X, perm)
	case *UDFCallExpr:
		for i := range x.Args {
			x.Args[i] = remapInputRefs(x.Args[i], perm)
		}
	}
	return e
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

// simplifyNode rewrites the tree bottom-up.
func simplifyNode(n Node) Node {
	switch x := n.(type) {
	case nil:
		return nil
	case *Result:
		for i := range x.Exprs {
			x.Exprs[i] = simplifyExpr(x.Exprs[i], nil, false)
		}
	case *Filter:
		x.Child = simplifyNode(x.Child)
		schema, known := nodeKinds(x.Child)
		x.Pred = simplifyExpr(x.Pred, schema, known)
	case *Project:
		x.Child = simplifyNode(x.Child)
		x.Child = mergePermProject(x.Child, x.Exprs)
		schema, known := nodeKinds(x.Child)
		for i := range x.Exprs {
			x.Exprs[i] = simplifyExpr(x.Exprs[i], schema, known)
		}
	case *IndexScan:
		x.Key = simplifyExpr(x.Key, nil, false)
	case *NestLoop:
		x.Left = simplifyNode(x.Left)
		x.Right = simplifyNode(x.Right)
		schema, known := joinKinds(x.Left, x.Right)
		x.On = simplifyExpr(x.On, schema, known)
	case *HashJoin:
		x.Left = simplifyNode(x.Left)
		x.Right = simplifyNode(x.Right)
		lk, lok := nodeKinds(x.Left)
		rk, rok := nodeKinds(x.Right)
		for i := range x.LeftKeys {
			x.LeftKeys[i] = simplifyExpr(x.LeftKeys[i], lk, lok)
		}
		for i := range x.RightKeys {
			x.RightKeys[i] = simplifyExpr(x.RightKeys[i], rk, rok)
		}
		schema, known := joinKinds(x.Left, x.Right)
		x.Residual = simplifyExpr(x.Residual, schema, known)
	case *Apply:
		x.Child = simplifyNode(x.Child)
		x.Sub = simplifyNode(x.Sub)
	case *Materialize:
		x.Child = simplifyNode(x.Child)
	case *Agg:
		x.Child = simplifyNode(x.Child)
		aggArgs := make([]Expr, 0, 2*len(x.Aggs))
		for i := range x.Aggs {
			aggArgs = append(aggArgs, x.Aggs[i].Arg, x.Aggs[i].Sep)
		}
		x.Child = mergePermProject(x.Child, x.GroupBy, aggArgs)
		for i := range x.Aggs {
			x.Aggs[i].Arg = aggArgs[2*i]
			x.Aggs[i].Sep = aggArgs[2*i+1]
		}
		schema, known := nodeKinds(x.Child)
		for i := range x.GroupBy {
			x.GroupBy[i] = simplifyExpr(x.GroupBy[i], schema, known)
		}
		for i := range x.Aggs {
			x.Aggs[i].Arg = simplifyExpr(x.Aggs[i].Arg, schema, known)
			x.Aggs[i].Sep = simplifyExpr(x.Aggs[i].Sep, schema, known)
		}
	case *Window:
		x.Child = simplifyNode(x.Child)
		schema, known := nodeKinds(x.Child)
		for i := range x.Funcs {
			f := &x.Funcs[i]
			f.Arg = simplifyExpr(f.Arg, schema, known)
			f.Offset = simplifyExpr(f.Offset, schema, known)
			for j := range f.PartitionBy {
				f.PartitionBy[j] = simplifyExpr(f.PartitionBy[j], schema, known)
			}
			for j := range f.OrderBy {
				f.OrderBy[j].Expr = simplifyExpr(f.OrderBy[j].Expr, schema, known)
			}
		}
	case *Sort:
		x.Child = simplifyNode(x.Child)
		schema, known := nodeKinds(x.Child)
		for i := range x.Keys {
			x.Keys[i].Expr = simplifyExpr(x.Keys[i].Expr, schema, known)
		}
	case *Limit:
		x.Child = simplifyNode(x.Child)
		x.Limit = simplifyExpr(x.Limit, nil, false)
		x.Offset = simplifyExpr(x.Offset, nil, false)
	case *Distinct:
		x.Child = simplifyNode(x.Child)
	case *Append:
		for i := range x.Children {
			x.Children[i] = simplifyNode(x.Children[i])
		}
	case *SetOp:
		x.L = simplifyNode(x.L)
		x.R = simplifyNode(x.R)
	case *ValuesNode:
		for _, row := range x.Rows {
			for i := range row {
				row[i] = simplifyExpr(row[i], nil, false)
			}
		}
	case *RecursiveUnion:
		x.NonRec = simplifyNode(x.NonRec)
		x.Rec = simplifyNode(x.Rec)
	case *WithNode:
		x.Child = simplifyNode(x.Child)
	case *Loop:
		nodeExprs(x, func(e Expr) Expr { return simplifyExpr(e, nil, false) })
	}
	return n
}
