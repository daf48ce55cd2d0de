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
// per-call ExecutorStart overhead the paper measures. An Apply's sub is
// reached like any child: its correlation keys are OuterRefs —
// row-independent from the sub's own perspective — so a correlated
// equality becomes an index probe re-keyed per rescan.
func useIndexes(n Node) Node {
	descend(n, useIndexes)
	x, ok := n.(*Filter)
	if !ok {
		return n
	}
	scan, ok := x.Child.(*SeqScan)
	if !ok {
		return n
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
// Volatile builtins count as row-dependent: a probe key is re-evaluated
// per rescan, out of the row order their draws follow.
func rowIndependent(e Expr) bool {
	ok := true
	walkExpr(e, func(x Expr) {
		switch v := x.(type) {
		case *InputRef, *SubplanExpr, *UDFCallExpr:
			ok = false
		case *FuncExpr:
			if v.Name == "random" || v.Name == "setseed" {
				ok = false
			}
		}
	})
	return ok
}
