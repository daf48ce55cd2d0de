package plan

import (
	"fmt"
	"strings"
)

// Explain renders the plan as an indented operator tree — the EXPLAIN
// statement's output, and the shape golden tests pin inlining and join
// decisions against. The format is deliberately stable: one node per
// line, two-space indentation per level, attributes in a fixed order.
func (p *Plan) Explain() []string { return p.ExplainAnnotated(nil) }

// ExplainAnnotated is Explain with a per-node suffix hook: annot (when
// non-nil) receives each rendered node and returns text appended to its
// line — EXPLAIN ANALYZE plugs runtime actuals in here without the
// executor package needing its own renderer (exec depends on plan, not
// the reverse, so the stats travel as an opaque callback).
func (p *Plan) ExplainAnnotated(annot func(Node) string) []string {
	var out []string
	out = append(out, fmt.Sprintf("Plan (nodes=%d inlined=%d specialized=%d looped=%d)",
		p.NodeCount, p.InlinedCalls, p.SpecializedCalls, p.LoopedCTEs))
	for i, cte := range p.CTEs {
		if cte.Plan == nil {
			continue // lowered: the CTE is the Loop operator in the tree
		}
		rec := ""
		if cte.Recursive {
			rec = " recursive"
		}
		out = append(out, fmt.Sprintf("CTE %s [%d]%s", cte.Name, i, rec))
		out = explainNode(out, cte.Plan, 1, annot)
	}
	return explainNode(out, p.Root, 0, annot)
}

func explainNode(out []string, n Node, depth int, annot func(Node) string) []string {
	if n == nil {
		return out
	}
	pad := strings.Repeat("  ", depth)
	suffix := ""
	if annot != nil {
		suffix = annot(n)
	}
	line := func(format string, args ...any) {
		out = append(out, pad+fmt.Sprintf(format, args...)+suffix)
	}
	switch x := n.(type) {
	case *Result:
		line("Result %s", exprList(x.Exprs))
	case *SeqScan:
		line("SeqScan %s", x.Table.Name)
	case *IndexScan:
		line("IndexScan %s (%s = %s)", x.Table.Name, x.Table.Cols[x.Col].Name, exprStr(x.Key))
	case *CTEScan:
		if x.Working {
			line("WorkingScan cte[%d]", x.Index)
		} else {
			line("CTEScan cte[%d]", x.Index)
		}
	case *Filter:
		line("Filter %s", exprStr(x.Pred))
		out = explainNode(out, x.Child, depth+1, annot)
	case *Project:
		line("Project %s", exprList(x.Exprs))
		out = explainNode(out, x.Child, depth+1, annot)
	case *NestLoop:
		attrs := joinKindName(x.Kind)
		if x.On != nil {
			attrs += ", on " + exprStr(x.On)
		}
		line("NestLoop (%s)", attrs)
		out = explainNode(out, x.Left, depth+1, annot)
		out = explainNode(out, x.Right, depth+1, annot)
	case *HashJoin:
		attrs := joinKindName(x.Kind)
		if x.SingleRow {
			attrs += ", single-row"
		}
		if x.RightStatic {
			attrs += ", static build"
		}
		attrs += fmt.Sprintf(", keys %s = %s", exprList(x.LeftKeys), exprList(x.RightKeys))
		if x.Residual != nil {
			attrs += ", residual " + exprStr(x.Residual)
		}
		line("HashJoin (%s)", attrs)
		out = explainNode(out, x.Left, depth+1, annot)
		out = explainNode(out, x.Right, depth+1, annot)
	case *Apply:
		line("Apply")
		out = explainNode(out, x.Child, depth+1, annot)
		out = explainNode(out, x.Sub, depth+1, annot)
	case *Materialize:
		line("Materialize")
		out = explainNode(out, x.Child, depth+1, annot)
	case *Agg:
		var parts []string
		for _, a := range x.Aggs {
			s := a.Func + "("
			if a.Distinct {
				s += "distinct "
			}
			if a.Star {
				s += "*"
			} else if a.Arg != nil {
				s += exprStr(a.Arg)
			}
			s += ")"
			parts = append(parts, s)
		}
		if len(x.GroupBy) > 0 {
			line("Agg [%s] group by %s", strings.Join(parts, ", "), exprList(x.GroupBy))
		} else {
			line("Agg [%s]", strings.Join(parts, ", "))
		}
		out = explainNode(out, x.Child, depth+1, annot)
	case *Window:
		names := make([]string, len(x.Funcs))
		for i, f := range x.Funcs {
			names[i] = f.Func
		}
		line("Window [%s]", strings.Join(names, ", "))
		out = explainNode(out, x.Child, depth+1, annot)
	case *Sort:
		keys := make([]string, len(x.Keys))
		for i, k := range x.Keys {
			keys[i] = exprStr(k.Expr)
			if k.Desc {
				keys[i] += " desc"
			}
		}
		line("Sort [%s]", strings.Join(keys, ", "))
		out = explainNode(out, x.Child, depth+1, annot)
	case *Limit:
		attrs := ""
		if x.Limit != nil {
			attrs += " limit " + exprStr(x.Limit)
		}
		if x.Offset != nil {
			attrs += " offset " + exprStr(x.Offset)
		}
		line("Limit%s", attrs)
		out = explainNode(out, x.Child, depth+1, annot)
	case *Distinct:
		line("Distinct")
		out = explainNode(out, x.Child, depth+1, annot)
	case *Append:
		line("Append")
		for _, c := range x.Children {
			out = explainNode(out, c, depth+1, annot)
		}
	case *SetOp:
		all := ""
		if x.All {
			all = " all"
		}
		line("SetOp %s%s", strings.ToLower(x.Op), all)
		out = explainNode(out, x.L, depth+1, annot)
		out = explainNode(out, x.R, depth+1, annot)
	case *ValuesNode:
		line("Values (%d rows, width %d)", len(x.Rows), x.Wid)
	case *RecursiveUnion:
		attrs := fmt.Sprintf("cte[%d]", x.CTEIndex)
		if x.Iterate {
			attrs += ", iterate"
		}
		if x.Dedup {
			attrs += ", dedup"
		}
		if x.NotLowered != "" {
			attrs += ", not lowered: " + x.NotLowered
		}
		line("RecursiveUnion (%s)", attrs)
		out = explainNode(out, x.NonRec, depth+1, annot)
		out = explainNode(out, x.Rec, depth+1, annot)
	case *Loop:
		// The operator line stays bare so ANALYZE can append
		// "(iterations=N)"; the program it runs follows as detail lines.
		line("Loop")
		out = append(out, fmt.Sprintf("%s  seed %s", pad, exprList(x.Seed)))
		out = explainStep(out, x.Step, pad+"  step ")
		out = append(out, fmt.Sprintf("%s  while #%d, then emit %s", pad, x.Cont, exprList(x.Out)))
		// Then the embedded queries, in the order they appear above, each
		// under the memo decision its inline mention also carries.
		nodeExprs(x, func(e Expr) Expr {
			return mapExpr(e, func(y Expr) Expr {
				if sp, ok := y.(*SubplanExpr); ok {
					out = append(out, pad+"  "+exprStr(sp))
					out = explainNode(out, sp.Plan, depth+2, annot)
				}
				return y
			})
		})
	case *Memo:
		line("Memo %s", refList(x.Keys))
		out = explainNode(out, x.Child, depth+1, annot)
	case *WithNode:
		idx := make([]string, len(x.Indices))
		for i, ix := range x.Indices {
			idx[i] = fmt.Sprintf("%d", ix)
		}
		line("With [%s]", strings.Join(idx, ","))
		out = explainNode(out, x.Child, depth+1, annot)
	default:
		line("%T", n)
	}
	return out
}

// explainStep renders a Loop's step expression as a tree: one line per
// CASE arm and per Let, so the compiled function's control flow — and
// which of its lets became slots — reads off the plan.
func explainStep(out []string, e Expr, pad string) []string {
	in := strings.Repeat(" ", len(pad)) + "  "
	switch x := e.(type) {
	case *CaseExpr:
		if x.Operand != nil {
			break
		}
		for _, w := range x.Whens {
			out = append(out, pad+"when "+exprStr(w.Cond))
			out = explainStep(out, w.Result, in)
			pad = strings.Repeat(" ", len(pad))
		}
		if x.Else != nil {
			out = append(out, pad+"else")
			out = explainStep(out, x.Else, in)
		}
		return out
	case *LetExpr:
		out = append(out, pad+"Let "+exprList(x.Slots))
		return explainStep(out, x.Body, in)
	}
	return append(out, pad+exprStr(e))
}

func joinKindName(k JoinKind) string {
	switch k {
	case JoinInner:
		return "inner"
	case JoinLeft:
		return "left"
	case JoinCross:
		return "cross"
	default:
		return "?"
	}
}

func exprList(es []Expr) string {
	parts := make([]string, len(es))
	for i, e := range es {
		parts[i] = exprStr(e)
	}
	return "[" + strings.Join(parts, ", ") + "]"
}

// exprStr renders a compact expression form: #n for input columns,
// outer(d).#n for outer references, $n for parameters.
func exprStr(e Expr) string {
	switch x := e.(type) {
	case nil:
		return ""
	case *Const:
		if x.Val.Kind() == 0 { // KindNull
			return "NULL"
		}
		return x.Val.String()
	case *InputRef:
		return fmt.Sprintf("#%d", x.Idx)
	case *OuterRef:
		return fmt.Sprintf("outer(%d).#%d", x.Depth, x.Idx)
	case *ParamRef:
		return fmt.Sprintf("$%d", x.Ordinal)
	case *BinOp:
		return "(" + exprStr(x.L) + " " + x.Op + " " + exprStr(x.R) + ")"
	case *UnaryOp:
		return "(" + x.Op + " " + exprStr(x.X) + ")"
	case *IsNullExpr:
		if x.Negate {
			return "(" + exprStr(x.X) + " IS NOT NULL)"
		}
		return "(" + exprStr(x.X) + " IS NULL)"
	case *BetweenExpr:
		not := ""
		if x.Negate {
			not = " NOT"
		}
		return "(" + exprStr(x.X) + not + " BETWEEN " + exprStr(x.Lo) + " AND " + exprStr(x.Hi) + ")"
	case *InListExpr:
		not := ""
		if x.Negate {
			not = " NOT"
		}
		return "(" + exprStr(x.X) + not + " IN " + exprList(x.List) + ")"
	case *CaseExpr:
		return "CASE…"
	case *FuncExpr:
		return x.Name + exprList(x.Args)
	case *CastExpr:
		return exprStr(x.X) + "::" + x.Type.String()
	case *RowCtor:
		return "row" + exprList(x.Fields)
	case *FieldSel:
		if x.Index >= 0 {
			return exprStr(x.X) + fmt.Sprintf(".f%d", x.Index+1)
		}
		return exprStr(x.X) + "." + x.Name
	case *SubplanExpr:
		mode := "scalar"
		switch x.Mode {
		case SubplanExists:
			mode = "exists"
		case SubplanIn:
			mode = "in"
		}
		if x.FromInline {
			mode += " inline"
		}
		if x.MemoNote != "" {
			return "subplan(" + mode + ") " + x.MemoNote
		}
		return "subplan(" + mode + ")"
	case *LetExpr:
		return "Let" + exprList(x.Slots) + "(" + exprStr(x.Body) + ")"
	case *UDFCallExpr:
		return "udf:" + x.Func.Name + exprList(x.Args)
	default:
		return fmt.Sprintf("%T", e)
	}
}
