package plan

import (
	"strings"

	"plsqlaway/internal/catalog"
	"plsqlaway/internal/sqlast"
)

// This file implements bind-time UDF inlining — the paper's "compiling
// away" completed: a call to a LANGUAGE sql or compiled (PL/SQL→SQL)
// function is replaced by its body, bound in place with the arguments
// spliced in for the parameters. Trivial single-expression bodies become
// plain expressions; anything else becomes a scalar subplan marked
// FromInline, which the apply/decorrelation passes (apply.go) then lower
// into Apply nodes and hash joins. The inlined plan contains no
// UDFCallExpr, so the executor's batch-size-1 volatile/UDF clamp lifts
// automatically and the call site runs at the full batch size.

// maxInlineDepth bounds transitive inlining (f calls g calls h …); bodies
// deeper than this stay opaque calls. Direct or mutual recursion is cut
// earlier by the frame-stack check in tryInline.
const maxInlineDepth = 16

// inlineFrame is the bind-time state of one inlined call. While the body
// binds, the frame records where argument expressions must be bound (the
// call-site scope and everything active there) so each parameter use can
// re-enter the caller's context, bind its argument, and rebase the result
// to the use site's depth.
type inlineFrame struct {
	fn        *catalog.Function
	args      []sqlast.Expr
	callScope *scope  // b.scope at the call site
	barrier   *scope  // b.barrier at the call site
	agg       *aggCtx // caller agg context (body binds with nil)
	windows   map[*sqlast.FuncCall]int
	ctes      []*cteBinding // caller CTEs (invisible to the body)
	prev      *inlineFrame
}

func (fr *inlineFrame) paramIndex(name string) (int, bool) {
	for i, p := range fr.fn.Params {
		if strings.EqualFold(p.Name, name) {
			return i, true
		}
	}
	return 0, false
}

// tryInline attempts to bind fn's body in place of a call with the given
// argument ASTs. It returns ok=false (and no error) when the call should
// stay an opaque UDFCallExpr; once inlining starts, errors propagate — a
// half-bound body must not silently fall back, because the binder's CTE
// and scope state has already moved.
func (b *binder) tryInline(fn *catalog.Function, argASTs []sqlast.Expr) (Expr, bool, error) {
	if b.opts.Skip&PassInline != 0 || fn.SQLBody == nil || fn.Volatile {
		return nil, false, nil
	}
	if fn.Kind != catalog.FuncSQL && fn.Kind != catalog.FuncCompiled {
		return nil, false, nil
	}
	if b.inlineDepth >= maxInlineDepth {
		return nil, false, nil
	}
	// Self-recursive LANGUAGE sql functions cannot inline by substitution;
	// they stay opaque (compiled recursion arrives as WITH RECURSIVE
	// bodies, which inline fine — the recursion lives inside the CTE).
	for fr := b.inline; fr != nil; fr = fr.prev {
		if strings.EqualFold(fr.fn.Name, fn.Name) {
			return nil, false, nil
		}
	}
	for _, a := range argASTs {
		if !inlinableArg(b.cat, a) {
			return nil, false, nil
		}
	}
	bodyExpr, exprForm := exprFormBody(fn.SQLBody)
	trivial := exprForm && !HasSubquery(bodyExpr)
	// While binding a call-site argument, only trivial bodies may inline:
	// the bound argument is rebased by shiftOuterDepth, which handles
	// plain expressions but not nested subplans or their CTEs.
	if b.argBind > 0 && !trivial {
		return nil, false, nil
	}

	specialized := len(argASTs) > 0
	for _, a := range argASTs {
		if !constAST(a) {
			specialized = false
			break
		}
	}

	fr := &inlineFrame{
		fn: fn, args: argASTs,
		callScope: b.scope, barrier: b.barrier,
		agg: b.agg, windows: b.windows, ctes: b.ctes,
		prev: b.inline,
	}
	b.inline = fr
	b.barrier = b.scope
	b.agg, b.windows = nil, nil
	b.ctes = nil
	b.inlineDepth++

	var ex Expr
	var err error
	if trivial {
		ex, err = b.bindExpr(bodyExpr)
	} else if exprForm {
		// Expression body with subqueries (the compiler's straight-line
		// RETURN (SELECT …) shape): bind the expression in place and mark
		// its scalar subqueries FromInline, so they lower to Apply nodes
		// and decorrelate instead of staying per-row opaque subplans.
		b.inlineExpr = true
		ex, err = b.bindExpr(bodyExpr)
		b.inlineExpr = false
	} else {
		var sub Node
		sub, _, err = b.planSubquery(fn.SQLBody)
		if err == nil && sub.Width() != 1 {
			err = b.errf("function %s body must return one column, got %d", fn.Name, sub.Width())
		}
		if err == nil {
			ex = &SubplanExpr{Mode: SubplanScalar, Plan: sub, FromInline: true}
		}
	}

	b.inlineDepth--
	b.inline = fr.prev
	b.barrier = fr.barrier
	b.agg, b.windows = fr.agg, fr.windows
	b.ctes = fr.ctes
	if err != nil {
		return nil, false, err
	}
	b.inlinedCalls++
	if specialized {
		b.specializedCalls++
	}
	// The cast to the declared return type replicates the opaque path's
	// final sqltypes.Cast in engine.callSQLBody.
	return &CastExpr{X: ex, Type: fn.ReturnType}, true, nil
}

// bindInlineArg binds frame argument i in the caller's context and rebases
// the result to the current use site. The use site sits d outer-push
// levels below the call scope (d = scope hops from b.scope down to
// fr.callScope); after rebasing, InputRefs into the caller row become
// OuterRefs at depth d-1 and caller OuterRefs sink d deeper.
func (b *binder) bindInlineArg(fr *inlineFrame, i int) (Expr, error) {
	d := 0
	for s := b.scope; s != fr.callScope; s = s.parent {
		if s == nil {
			return nil, b.errf("internal: call scope of inlined function %s unreachable", fr.fn.Name)
		}
		d++
	}
	savedScope, savedBarrier, savedInline := b.scope, b.barrier, b.inline
	savedAgg, savedWin, savedCTEs := b.agg, b.windows, b.ctes
	savedInlineExpr := b.inlineExpr
	b.scope, b.barrier, b.inline = fr.callScope, fr.barrier, fr.prev
	b.agg, b.windows, b.ctes = fr.agg, fr.windows, fr.ctes
	b.inlineExpr = false
	b.argBind++
	ex, err := b.bindExpr(fr.args[i])
	b.argBind--
	b.inlineExpr = savedInlineExpr
	b.scope, b.barrier, b.inline = savedScope, savedBarrier, savedInline
	b.agg, b.windows, b.ctes = savedAgg, savedWin, savedCTEs
	if err != nil {
		return nil, err
	}
	if d > 0 {
		ex = shiftOuterDepth(ex, d)
	}
	// Cast replicates the opaque path's argument cast to the declared
	// parameter type.
	return &CastExpr{X: ex, Type: fr.fn.Params[i].Type}, nil
}

// exprFormBody matches bodies of the form SELECT <expr> — no FROM, WHERE,
// grouping, ordering, set operations, CTEs, aggregates, or window calls —
// which inline as expressions instead of whole-body subplans. The
// expression may itself contain subqueries; callers that need a plain
// (rebase-safe) expression additionally check HasSubquery.
func exprFormBody(q *sqlast.Query) (sqlast.Expr, bool) {
	if q == nil || q.With != nil || len(q.OrderBy) > 0 || q.Limit != nil || q.Offset != nil {
		return nil, false
	}
	sel, ok := q.Body.(*sqlast.Select)
	if !ok {
		return nil, false
	}
	if sel.Distinct || len(sel.From) > 0 || sel.Where != nil ||
		len(sel.GroupBy) > 0 || sel.Having != nil || len(sel.Windows) > 0 ||
		len(sel.Items) != 1 {
		return nil, false
	}
	it := sel.Items[0]
	if it.Star || it.TableStar != "" || it.Expr == nil {
		return nil, false
	}
	bad := false
	shallowWalk(it.Expr, func(x sqlast.Expr) {
		if fc, ok := x.(*sqlast.FuncCall); ok {
			if fc.Over != nil || fc.OverName != "" ||
				Aggregates[strings.ToLower(fc.Name)] || WindowOnly[strings.ToLower(fc.Name)] {
				bad = true
			}
		}
	})
	if bad {
		return nil, false
	}
	return it.Expr, true
}

// inlinableArg vets a call-site argument AST: no subqueries (rebasing a
// bound subplan across scope depths is not supported) and no volatile
// calls (a parameter used twice in the body would draw twice).
func inlinableArg(cat *catalog.Catalog, e sqlast.Expr) bool {
	ok := true
	sqlast.WalkExpr(e, func(x sqlast.Expr) bool {
		switch t := x.(type) {
		case *sqlast.ScalarSubquery, *sqlast.Exists, *sqlast.InSubquery:
			ok = false
		case *sqlast.FuncCall:
			switch strings.ToLower(t.Name) {
			case "random", "setseed":
				ok = false
			}
			if f, isFn := cat.Function(t.Name); isFn && f.Volatile {
				ok = false
			}
		}
		return ok
	})
	return ok
}

// constAST reports whether an argument AST is a literal constant (possibly
// signed or cast) — the call site is then a constant-specialized plan:
// folding propagates the constant through the inlined body.
func constAST(e sqlast.Expr) bool {
	switch x := e.(type) {
	case *sqlast.Literal:
		return true
	case *sqlast.Unary:
		return constAST(x.X)
	case *sqlast.Cast:
		return constAST(x.X)
	}
	return false
}

// shiftOuterDepth rebases a bound argument expression from the call scope
// to a use site d outer-push levels deeper. Arguments are vetted to be
// subplan-free (inlinableArg + the argBind trivial-only rule), so only
// plain expression nodes appear. Mutates in place where possible;
// InputRefs are replaced.
func shiftOuterDepth(e Expr, d int) Expr {
	return mapExpr(e, func(x Expr) Expr {
		switch r := x.(type) {
		case *InputRef:
			return &OuterRef{Depth: d - 1, Idx: r.Idx}
		case *OuterRef:
			r.Depth += d
		}
		return x
	})
}
