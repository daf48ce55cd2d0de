package plan

import (
	"plsqlaway/internal/catalog"
)

// IndexScan probes a declared hash index: it yields the table rows whose
// indexed column equals Key (evaluated once per [re]scan — Key may reference
// parameters or outer rows but not the scan's own columns). ResidualPred,
// if set, filters the probed rows.
type IndexScan struct {
	Table *catalog.Table
	Col   int
	Key   Expr
}

func (*IndexScan) isNode()      {}
func (n *IndexScan) Width() int { return len(n.Table.Cols) }

// useIndexes rewrites Filter→SeqScan pairs into IndexScan (+ residual
// Filter) when an equality conjunct matches a declared index. This is the
// planner's access-path selection in miniature: embedded queries like
// `SELECT p.action FROM policy AS p WHERE location = p.loc` turn their
// full-table scan into a single-bucket probe, exactly what makes
// PostgreSQL's Exec·Run share of such queries small relative to the
// per-call ExecutorStart overhead the paper measures.
func useIndexes(n Node) Node {
	switch x := n.(type) {
	case *Filter:
		x.Child = useIndexes(x.Child)
		scan, ok := x.Child.(*SeqScan)
		if !ok {
			return x
		}
		conjuncts := splitConjuncts(x.Pred)
		for i, c := range conjuncts {
			col, key, ok := indexableEquality(c, scan.Table)
			if !ok {
				continue
			}
			rest := make([]Expr, 0, len(conjuncts)-1)
			rest = append(rest, conjuncts[:i]...)
			rest = append(rest, conjuncts[i+1:]...)
			var out Node = &IndexScan{Table: scan.Table, Col: col, Key: key}
			if len(rest) > 0 {
				out = &Filter{Child: out, Pred: andAll(rest)}
			}
			return out
		}
		return x
	case *Project:
		x.Child = useIndexes(x.Child)
	case *NestLoop:
		x.Left = useIndexes(x.Left)
		x.Right = useIndexes(x.Right)
		x.On = mapSubplans(x.On, useIndexes)
	case *HashJoin:
		x.Left = useIndexes(x.Left)
		x.Right = useIndexes(x.Right)
		x.Residual = mapSubplans(x.Residual, useIndexes)
	case *Apply:
		x.Child = useIndexes(x.Child)
		// The sub's correlation keys are OuterRefs — row-independent from
		// the sub's own perspective, so a correlated equality becomes an
		// index probe re-keyed per rescan.
		x.Sub = useIndexes(x.Sub)
	case *Materialize:
		x.Child = useIndexes(x.Child)
	case *Agg:
		x.Child = useIndexes(x.Child)
	case *Window:
		x.Child = useIndexes(x.Child)
	case *Sort:
		x.Child = useIndexes(x.Child)
	case *Limit:
		x.Child = useIndexes(x.Child)
	case *Distinct:
		x.Child = useIndexes(x.Child)
	case *Append:
		for i := range x.Children {
			x.Children[i] = useIndexes(x.Children[i])
		}
	case *SetOp:
		x.L = useIndexes(x.L)
		x.R = useIndexes(x.R)
	case *RecursiveUnion:
		x.NonRec = useIndexes(x.NonRec)
		x.Rec = useIndexes(x.Rec)
	case *WithNode:
		x.Child = useIndexes(x.Child)
	}
	// Expressions with subplans live in Filter/Project/Result/Values/Agg…
	switch x := n.(type) {
	case *Filter:
		x.Pred = mapSubplans(x.Pred, useIndexes)
	case *Project:
		for i := range x.Exprs {
			x.Exprs[i] = mapSubplans(x.Exprs[i], useIndexes)
		}
	case *Result:
		for i := range x.Exprs {
			x.Exprs[i] = mapSubplans(x.Exprs[i], useIndexes)
		}
	case *ValuesNode:
		for _, row := range x.Rows {
			for i := range row {
				row[i] = mapSubplans(row[i], useIndexes)
			}
		}
	case *Agg:
		for i := range x.GroupBy {
			x.GroupBy[i] = mapSubplans(x.GroupBy[i], useIndexes)
		}
		for i := range x.Aggs {
			x.Aggs[i].Arg = mapSubplans(x.Aggs[i].Arg, useIndexes)
		}
	case *Window:
		for i := range x.Funcs {
			x.Funcs[i].Arg = mapSubplans(x.Funcs[i].Arg, useIndexes)
		}
	case *Sort:
		for i := range x.Keys {
			x.Keys[i].Expr = mapSubplans(x.Keys[i].Expr, useIndexes)
		}
	}
	return n
}

// splitConjuncts flattens a conjunction.
func splitConjuncts(e Expr) []Expr {
	if b, ok := e.(*BinOp); ok && b.Op == "AND" {
		return append(splitConjuncts(b.L), splitConjuncts(b.R)...)
	}
	return []Expr{e}
}

func andAll(es []Expr) Expr {
	out := es[0]
	for _, e := range es[1:] {
		out = &BinOp{Op: "AND", L: out, R: e}
	}
	return out
}

// indexableEquality recognizes `col = key` (or reversed) where col is a
// declared-index column of the scanned table and key is independent of the
// scan row (no InputRef, no subplan — those may not be re-evaluated out of
// row context).
func indexableEquality(e Expr, tbl *catalog.Table) (int, Expr, bool) {
	b, ok := e.(*BinOp)
	if !ok || b.Op != "=" {
		return 0, nil, false
	}
	try := func(colSide, keySide Expr) (int, Expr, bool) {
		ref, ok := colSide.(*InputRef)
		if !ok {
			return 0, nil, false
		}
		if _, declared := tbl.IndexOn(ref.Idx); !declared {
			return 0, nil, false
		}
		if !rowIndependent(keySide) {
			return 0, nil, false
		}
		return ref.Idx, keySide, true
	}
	if col, key, ok := try(b.L, b.R); ok {
		return col, key, true
	}
	return try(b.R, b.L)
}

// rowIndependent reports whether e can be evaluated without an input row.
func rowIndependent(e Expr) bool {
	ok := true
	var walk func(Expr)
	walk = func(x Expr) {
		if x == nil || !ok {
			return
		}
		switch v := x.(type) {
		case *InputRef, *SubplanExpr:
			ok = false
		case *BinOp:
			walk(v.L)
			walk(v.R)
		case *UnaryOp:
			walk(v.X)
		case *IsNullExpr:
			walk(v.X)
		case *BetweenExpr:
			walk(v.X)
			walk(v.Lo)
			walk(v.Hi)
		case *InListExpr:
			walk(v.X)
			for _, i := range v.List {
				walk(i)
			}
		case *CaseExpr:
			walk(v.Operand)
			for _, w := range v.Whens {
				walk(w.Cond)
				walk(w.Result)
			}
			walk(v.Else)
		case *FuncExpr:
			if v.Name == "random" || v.Name == "setseed" {
				ok = false // volatile: must not be re-evaluated per rescan out of order
			}
			for _, a := range v.Args {
				walk(a)
			}
		case *CastExpr:
			walk(v.X)
		case *RowCtor:
			for _, f := range v.Fields {
				walk(f)
			}
		case *FieldSel:
			walk(v.X)
		case *UDFCallExpr:
			ok = false
		}
	}
	walk(e)
	return ok
}
