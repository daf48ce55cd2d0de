package plan

import (
	"fmt"
	"strconv"
	"strings"

	"plsqlaway/internal/catalog"
	"plsqlaway/internal/sqlast"
	"plsqlaway/internal/sqltypes"
)

// VarHook resolves identifiers that are not columns of any visible range —
// the mechanism PL/pgSQL uses to splice function variables into embedded
// queries (`WHERE location = p.loc` finds `location` via this hook). The
// hook returns the 1-based parameter ordinal to bind the variable to.
type VarHook func(name string) (ordinal int, ok bool)

// Options configures planning.
type Options struct {
	Hook VarHook
	// DisableLateral rejects LATERAL subqueries — the SQLite dialect of the
	// paper's §3, which forced the syntactic rewrite we also implement.
	DisableLateral bool
	// WorkMem bounds CTE materialization memory before spilling (bytes);
	// 0 selects storage.DefaultWorkMem.
	WorkMem int
	// NoHashJoin disables the nest-loop → hash-join rewrite (ablations and
	// differential tests that pin the Volcano join shape).
	NoHashJoin bool
	// NoInline disables UDF body inlining: every catalog function call
	// stays an opaque UDFCallExpr dispatched through the engine's call
	// hook (and keeps the batch-size-1 volatile rule). The inlined-vs-
	// opaque ablation and differential suites flip this.
	NoInline bool
	// NoLoop disables the loop/let lowering pass (loop.go): compiled
	// trampolines stay generic RecursiveUnion plans and let-chains stay
	// nest loops — the reference plan the lowering is differentially
	// tested against. Tests set it on direct Build calls; no engine
	// surface does.
	NoLoop bool
	// NoMemo disables the memo pass (memo.go): the subplans of a Loop run
	// on every iteration — the reference the memoised plan is
	// differentially tested against. Like NoLoop, tests only.
	NoMemo bool
}

// scopeCol is one visible column of a scope.
type scopeCol struct {
	tbl     string
	name    string
	visible bool
}

// scope is one row context. Each parent hop corresponds to exactly one
// outer-row push at execution time (subplan evaluation or nest-loop lateral),
// so "distance to defining scope" maps directly to OuterRef depth.
type scope struct {
	parent *scope
	cols   []scopeCol
}

func (s *scope) addCol(tbl, name string, visible bool) {
	s.cols = append(s.cols, scopeCol{tbl: tbl, name: name, visible: visible})
}

// masked returns a snapshot of s with all columns invisible (used as the
// parent of non-LATERAL derived tables: the row exists at run time, but SQL
// scoping forbids referencing it).
func (s *scope) masked() *scope {
	m := &scope{parent: s.parent, cols: make([]scopeCol, len(s.cols))}
	for i, c := range s.cols {
		m.cols[i] = scopeCol{tbl: c.tbl, name: c.name, visible: false}
	}
	return m
}

// cteBinding is a CTE visible to the binder.
type cteBinding struct {
	name      string
	index     int
	width     int
	cols      []string
	recursing bool // inside its own recursive term: scans read the working table
}

// aggCtx routes expressions in the select list and HAVING of a grouped
// query to the Agg node's output columns.
type aggCtx struct {
	groupKeys []string // deparse forms of GROUP BY expressions
	aggPtrs   map[*sqlast.FuncCall]int
	numGroups int
}

type binder struct {
	cat      *catalog.Catalog
	opts     Options
	scope    *scope
	ctes     []*cteBinding
	allCTEs  []CTEDef
	maxParam int
	agg      *aggCtx
	windows  map[*sqlast.FuncCall]int // window call → InputRef index

	// UDF inlining state (see inline.go). While a function body is being
	// bound in place of a call, inline points at the active frame and
	// barrier pins the call-site scope: resolution inside the body stops
	// there, so body identifiers can only be body columns or parameters —
	// exactly the standalone planning the opaque call path does. argBind
	// is > 0 while a call-site argument is being bound (nested inlines are
	// then restricted to trivial expression bodies, which rebase safely).
	inline      *inlineFrame
	barrier     *scope
	inlineDepth int
	argBind     int
	// inlineExpr is set while the top-level expression of an
	// expression-form inlined body binds: its scalar subqueries are
	// marked FromInline so the apply/decorrelation passes can lower
	// them, exactly like whole-body subplans.
	inlineExpr bool

	inlinedCalls     int
	specializedCalls int
	// subqueries counts nested plans bound into expressions. With no
	// subquery and no CTE there is nothing for lowerLoops to find.
	subqueries int
}

func (b *binder) errf(format string, args ...any) error {
	return fmt.Errorf("plan: %s", fmt.Sprintf(format, args...))
}

// resolve finds (depth, idx) for a column reference, or reports absence.
// The walk stops at the inline barrier (exclusive): an inlined function
// body must not capture columns of the query it was spliced into.
func (b *binder) resolve(tbl, name string) (depth, idx int, found bool, err error) {
	d := 0
	for s := b.scope; s != nil && s != b.barrier; s = s.parent {
		matches := 0
		lastIdx := -1
		blocked := false
		for i, c := range s.cols {
			if c.name != name {
				continue
			}
			if tbl != "" && c.tbl != tbl {
				continue
			}
			if !c.visible {
				blocked = true
				continue
			}
			matches++
			lastIdx = i
		}
		if matches > 1 {
			return 0, 0, false, b.errf("column reference %q is ambiguous", refName(tbl, name))
		}
		if matches == 1 {
			return d, lastIdx, true, nil
		}
		if blocked {
			return 0, 0, false, b.errf("invalid reference to FROM-clause entry for column %q — missing LATERAL?", refName(tbl, name))
		}
		d++
	}
	return 0, 0, false, nil
}

func refName(tbl, name string) string {
	if tbl == "" {
		return name
	}
	return tbl + "." + name
}

func (b *binder) mkColRef(depth, idx int) Expr {
	if depth == 0 {
		return &InputRef{Idx: idx}
	}
	return &OuterRef{Depth: depth - 1, Idx: idx}
}

// bindExpr compiles a SQL expression against the current scope chain.
func (b *binder) bindExpr(e sqlast.Expr) (Expr, error) {
	// Agg-context translation: grouped queries replace matches of GROUP BY
	// expressions and aggregate calls with references into the Agg output.
	if b.agg != nil {
		if idx, ok := b.aggMatch(e); ok {
			return &InputRef{Idx: idx}, nil
		}
	}
	switch e := e.(type) {
	case *sqlast.Literal:
		return &Const{Val: e.Val}, nil
	case *sqlast.ColumnRef:
		depth, idx, found, err := b.resolve(e.Table, e.Column)
		if err != nil {
			return nil, err
		}
		if found {
			return b.mkColRef(depth, idx), nil
		}
		if b.inline != nil {
			// Inside an inlined body, unresolved names are function
			// parameters (the caller's Hook does not reach through).
			if e.Table == "" {
				if i, ok := b.inline.paramIndex(e.Column); ok {
					return b.bindInlineArg(b.inline, i)
				}
			}
			return nil, b.errf("column %q does not exist", refName(e.Table, e.Column))
		}
		if e.Table == "" && b.opts.Hook != nil {
			if ord, ok := b.opts.Hook(e.Column); ok {
				if ord > b.maxParam {
					b.maxParam = ord
				}
				return &ParamRef{Ordinal: ord}, nil
			}
		}
		return nil, b.errf("column %q does not exist", refName(e.Table, e.Column))
	case *sqlast.Param:
		if b.inline != nil {
			// Compiled bodies reference their parameters as $1..$n.
			if e.Ordinal < 1 || e.Ordinal > len(b.inline.args) {
				return nil, b.errf("no parameter $%d in inlined function %s", e.Ordinal, b.inline.fn.Name)
			}
			return b.bindInlineArg(b.inline, e.Ordinal-1)
		}
		if e.Ordinal > b.maxParam {
			b.maxParam = e.Ordinal
		}
		return &ParamRef{Ordinal: e.Ordinal}, nil
	case *sqlast.Unary:
		x, err := b.bindExpr(e.X)
		if err != nil {
			return nil, err
		}
		return &UnaryOp{Op: e.Op, X: x}, nil
	case *sqlast.Binary:
		l, err := b.bindExpr(e.L)
		if err != nil {
			return nil, err
		}
		r, err := b.bindExpr(e.R)
		if err != nil {
			return nil, err
		}
		return &BinOp{Op: e.Op, L: l, R: r}, nil
	case *sqlast.IsNull:
		x, err := b.bindExpr(e.X)
		if err != nil {
			return nil, err
		}
		return &IsNullExpr{X: x, Negate: e.Negate}, nil
	case *sqlast.Between:
		x, err := b.bindExpr(e.X)
		if err != nil {
			return nil, err
		}
		lo, err := b.bindExpr(e.Lo)
		if err != nil {
			return nil, err
		}
		hi, err := b.bindExpr(e.Hi)
		if err != nil {
			return nil, err
		}
		return &BetweenExpr{X: x, Lo: lo, Hi: hi, Negate: e.Negate}, nil
	case *sqlast.InList:
		x, err := b.bindExpr(e.X)
		if err != nil {
			return nil, err
		}
		list := make([]Expr, len(e.List))
		for i, le := range e.List {
			var err error
			list[i], err = b.bindExpr(le)
			if err != nil {
				return nil, err
			}
		}
		return &InListExpr{X: x, List: list, Negate: e.Negate}, nil
	case *sqlast.InSubquery:
		x, err := b.bindExpr(e.X)
		if err != nil {
			return nil, err
		}
		sub, _, err := b.planSubquery(e.Sub)
		if err != nil {
			return nil, err
		}
		if sub.Width() != 1 {
			return nil, b.errf("IN subquery must return one column, got %d", sub.Width())
		}
		return &SubplanExpr{Mode: SubplanIn, Plan: sub, CompareX: x, Negate: e.Negate}, nil
	case *sqlast.Exists:
		sub, _, err := b.planSubquery(e.Sub)
		if err != nil {
			return nil, err
		}
		return &SubplanExpr{Mode: SubplanExists, Plan: sub, Negate: e.Negate}, nil
	case *sqlast.ScalarSubquery:
		fromInline := b.inlineExpr
		sub, _, err := b.planSubquery(e.Sub)
		if err != nil {
			return nil, err
		}
		if sub.Width() != 1 {
			return nil, b.errf("scalar subquery must return one column, got %d", sub.Width())
		}
		return &SubplanExpr{Mode: SubplanScalar, Plan: sub, FromInline: fromInline}, nil
	case *sqlast.Case:
		c := &CaseExpr{}
		var err error
		if e.Operand != nil {
			c.Operand, err = b.bindExpr(e.Operand)
			if err != nil {
				return nil, err
			}
		}
		for _, w := range e.Whens {
			cond, err := b.bindExpr(w.Cond)
			if err != nil {
				return nil, err
			}
			res, err := b.bindExpr(w.Result)
			if err != nil {
				return nil, err
			}
			c.Whens = append(c.Whens, CaseWhen{Cond: cond, Result: res})
		}
		if e.Else != nil {
			c.Else, err = b.bindExpr(e.Else)
			if err != nil {
				return nil, err
			}
		}
		return c, nil
	case *sqlast.FuncCall:
		return b.bindFuncCall(e)
	case *sqlast.Cast:
		x, err := b.bindExpr(e.X)
		if err != nil {
			return nil, err
		}
		t, err := sqltypes.ParseType(e.TypeName)
		if err != nil {
			return nil, b.errf("%v", err)
		}
		return &CastExpr{X: x, Type: t}, nil
	case *sqlast.RowExpr:
		r := &RowCtor{Fields: make([]Expr, len(e.Fields))}
		for i, f := range e.Fields {
			var err error
			r.Fields[i], err = b.bindExpr(f)
			if err != nil {
				return nil, err
			}
		}
		return r, nil
	case *sqlast.FieldAccess:
		x, err := b.bindExpr(e.X)
		if err != nil {
			return nil, err
		}
		f := strings.ToLower(e.Field)
		if strings.HasPrefix(f, "f") {
			if n, err := strconv.Atoi(f[1:]); err == nil && n >= 1 {
				return &FieldSel{X: x, Index: n - 1}, nil
			}
		}
		switch f {
		case "x":
			return &FieldSel{X: x, Index: -1, Name: "x"}, nil
		case "y":
			return &FieldSel{X: x, Index: -1, Name: "y"}, nil
		}
		return nil, b.errf("unknown record field %q (use f1…fN, or x/y for coord)", e.Field)
	default:
		return nil, b.errf("unsupported expression %T", e)
	}
}

// aggMatch reports whether e matches a GROUP BY key or collected aggregate
// call and yields the Agg output column.
func (b *binder) aggMatch(e sqlast.Expr) (int, bool) {
	if fc, ok := e.(*sqlast.FuncCall); ok {
		if idx, ok := b.agg.aggPtrs[fc]; ok {
			return b.agg.numGroups + idx, true
		}
	}
	d := sqlast.DeparseExpr(e)
	for i, g := range b.agg.groupKeys {
		if d == g {
			return i, true
		}
	}
	return 0, false
}

func (b *binder) bindFuncCall(e *sqlast.FuncCall) (Expr, error) {
	name := strings.ToLower(e.Name)

	// Window reference? (resolved during select planning)
	if e.Over != nil || e.OverName != "" {
		if b.windows != nil {
			if idx, ok := b.windows[e]; ok {
				return &InputRef{Idx: idx}, nil
			}
		}
		return nil, b.errf("window function %s not allowed here", name)
	}
	if Aggregates[name] {
		return nil, b.errf("aggregate function %s is not allowed here", name)
	}
	if WindowOnly[name] {
		return nil, b.errf("%s requires an OVER clause", name)
	}
	if arity, ok := Builtins[name]; ok {
		if len(e.Args) < arity[0] || (arity[1] >= 0 && len(e.Args) > arity[1]) {
			return nil, b.errf("function %s expects %d–%d arguments, got %d", name, arity[0], arity[1], len(e.Args))
		}
		args := make([]Expr, len(e.Args))
		for i, a := range e.Args {
			var err error
			args[i], err = b.bindExpr(a)
			if err != nil {
				return nil, err
			}
		}
		return &FuncExpr{Name: name, Args: args}, nil
	}
	if fn, ok := b.cat.Function(name); ok {
		if len(e.Args) != len(fn.Params) {
			return nil, b.errf("function %s expects %d arguments, got %d", name, len(fn.Params), len(e.Args))
		}
		if ex, ok, err := b.tryInline(fn, e.Args); err != nil {
			return nil, err
		} else if ok {
			return ex, nil
		}
		args := make([]Expr, len(e.Args))
		for i, a := range e.Args {
			var err error
			args[i], err = b.bindExpr(a)
			if err != nil {
				return nil, err
			}
		}
		return &UDFCallExpr{Func: fn, Args: args}, nil
	}
	return nil, b.errf("unknown function %s", name)
}

// planSubquery plans a nested query whose outer context is the current
// scope chain (one push at evaluation time). inlineExpr clears for the
// subquery's innards: only an inlined body's top-level subqueries carry
// the FromInline mark.
func (b *binder) planSubquery(q *sqlast.Query) (Node, []string, error) {
	saved := b.inlineExpr
	b.inlineExpr = false
	b.subqueries++
	n, cols, err := b.planQuery(q)
	b.inlineExpr = saved
	return n, cols, err
}

// shallowWalk visits expressions without descending into subqueries —
// aggregates inside a subquery belong to that subquery.
func shallowWalk(e sqlast.Expr, fn func(sqlast.Expr)) {
	if e == nil {
		return
	}
	fn(e)
	switch x := e.(type) {
	case *sqlast.Unary:
		shallowWalk(x.X, fn)
	case *sqlast.Binary:
		shallowWalk(x.L, fn)
		shallowWalk(x.R, fn)
	case *sqlast.IsNull:
		shallowWalk(x.X, fn)
	case *sqlast.Between:
		shallowWalk(x.X, fn)
		shallowWalk(x.Lo, fn)
		shallowWalk(x.Hi, fn)
	case *sqlast.InList:
		shallowWalk(x.X, fn)
		for _, i := range x.List {
			shallowWalk(i, fn)
		}
	case *sqlast.InSubquery:
		shallowWalk(x.X, fn)
	case *sqlast.Case:
		shallowWalk(x.Operand, fn)
		for _, w := range x.Whens {
			shallowWalk(w.Cond, fn)
			shallowWalk(w.Result, fn)
		}
		shallowWalk(x.Else, fn)
	case *sqlast.FuncCall:
		for _, a := range x.Args {
			shallowWalk(a, fn)
		}
	case *sqlast.Cast:
		shallowWalk(x.X, fn)
	case *sqlast.RowExpr:
		for _, f := range x.Fields {
			shallowWalk(f, fn)
		}
	case *sqlast.FieldAccess:
		shallowWalk(x.X, fn)
	}
}
