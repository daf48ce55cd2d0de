package plan

import (
	"strings"

	"plsqlaway/internal/catalog"
	"plsqlaway/internal/sqlast"
	"plsqlaway/internal/sqltypes"
)

// Build plans a full query against the catalog: the binder, then the
// rewrite passes in order, each over every CTE plan and the root.
func Build(cat *catalog.Catalog, q *sqlast.Query, opts Options) (*Plan, error) {
	b := &binder{cat: cat, opts: opts}
	root, names, err := b.planQuery(q)
	if err != nil {
		return nil, err
	}
	p := &Plan{
		Root:             root,
		Cols:             names,
		CTEs:             b.allCTEs,
		NumParams:        b.maxParam,
		CatalogVersion:   cat.Version,
		InlinedCalls:     b.inlinedCalls,
		SpecializedCalls: b.specializedCalls,
	}
	for _, ps := range passes {
		if opts.Skip&ps.skip != 0 || (ps.when != nil && !ps.when(p, b.subqueries)) {
			continue
		}
		if ps.whole != nil {
			ps.whole(p)
			continue
		}
		for i := range p.CTEs {
			if p.CTEs[i].Plan != nil {
				p.CTEs[i].Plan = ps.tree(p.CTEs[i].Plan)
			}
		}
		p.Root = ps.tree(p.Root)
	}
	p.CountNodes()
	p.volatile = p.scanVolatile()
	return p, nil
}

// pass is one rewrite of Build's pipeline. tree rewrites one plan tree
// and runs on every CTE plan and the root; whole sees them all at once.
// when, if set, says whether the pass can find anything in a plan whose
// expressions bound the given number of subqueries.
type pass struct {
	skip  Pass // the Options.Skip bit that turns it off; 0: always runs
	when  func(p *Plan, subqueries int) bool
	tree  func(Node) Node
	whole func(*Plan)
}

// passes is Build's pipeline, in order. Folding comes first, so inlined
// constant arguments propagate through their bodies; then inlined
// subplans lower to Apply nodes and decorrelate, and index and hash-join
// selection run over the result. Loop lowering runs on the settled tree,
// so every earlier pass sees exactly the shapes it always saw; its two
// shapes need a subquery or a CTE, so bulk INSERT … VALUES plans skip it.
// Simplify cleans up inlining byproducts (no-op casts, permutation
// Projects) once the tree shape has settled, and the memo pass keys the
// loops just lowered on the outer references of that final tree.
var passes = []pass{
	{tree: foldConstants},
	{tree: hoistInlineApplies},
	{tree: useIndexes},
	{skip: PassHashJoin, tree: useHashJoins},
	{skip: PassLoop, whole: lowerLoops,
		when: func(p *Plan, subqueries int) bool { return subqueries > 0 || len(p.CTEs) > 0 }},
	{tree: simplifyNode},
	{skip: PassMemo, tree: memoiseLoops,
		when: func(p *Plan, _ int) bool { return p.LoopedCTEs > 0 }},
}

// BuildScalarExpr compiles a standalone scalar expression (the
// interpreter's simple-expression fast path). Unresolvable names go through
// opts.Hook; the expression sees no input row. Only trivial-body UDFs
// inline here (argBind gate): the caller keeps no CTE state, so inlined
// subplans with CTEs would dangle.
func BuildScalarExpr(cat *catalog.Catalog, e sqlast.Expr, opts Options) (Expr, int, error) {
	b := &binder{cat: cat, opts: opts, argBind: 1}
	ex, err := b.bindExpr(e)
	if err != nil {
		return nil, 0, err
	}
	return foldExpr(ex), b.maxParam, nil
}

// HasSubquery reports whether e contains any subquery — such expressions
// are disqualified from the interpreter's fast path, exactly like
// PostgreSQL's exec_simple_check_plan.
func HasSubquery(e sqlast.Expr) bool {
	found := false
	sqlast.WalkExpr(e, func(x sqlast.Expr) bool {
		switch x.(type) {
		case *sqlast.ScalarSubquery, *sqlast.Exists, *sqlast.InSubquery:
			found = true
			return false
		}
		return true
	})
	return found
}

// planQuery plans [WITH …] body [ORDER BY] [LIMIT/OFFSET] in the current
// scope chain. It returns the plan node and output column names.
func (b *binder) planQuery(q *sqlast.Query) (Node, []string, error) {
	var withIndices []int
	savedCTEs := len(b.ctes)
	if q.With != nil {
		for i := range q.With.CTEs {
			cte := &q.With.CTEs[i]
			idx, err := b.planCTE(cte, q.With.Recursive, q.With.Iterate)
			if err != nil {
				return nil, nil, err
			}
			withIndices = append(withIndices, idx)
		}
	}

	var node Node
	var names []string
	var err error
	if sel, ok := q.Body.(*sqlast.Select); ok {
		// ORDER BY over a plain SELECT may reference arbitrary expressions
		// of the FROM row (hidden sort columns), so it plans inside.
		node, names, err = b.planSelectOrdered(sel, q.OrderBy)
		if err != nil {
			return nil, nil, err
		}
	} else {
		node, names, err = b.planQueryExpr(q.Body)
		if err != nil {
			return nil, nil, err
		}
		if len(q.OrderBy) > 0 {
			node, err = b.planOrderBy(node, names, q)
			if err != nil {
				return nil, nil, err
			}
		}
	}
	if q.Limit != nil || q.Offset != nil {
		lim := &Limit{Child: node}
		// LIMIT/OFFSET evaluate with no input row; outer refs are legal.
		saved := b.scope
		b.scope = &scope{parent: saved}
		if q.Limit != nil {
			lim.Limit, err = b.bindExpr(q.Limit)
			if err != nil {
				b.scope = saved
				return nil, nil, err
			}
		}
		if q.Offset != nil {
			lim.Offset, err = b.bindExpr(q.Offset)
			if err != nil {
				b.scope = saved
				return nil, nil, err
			}
		}
		b.scope = saved
		node = lim
	}

	b.ctes = b.ctes[:savedCTEs]
	if len(withIndices) > 0 {
		node = &WithNode{Indices: withIndices, Child: node}
	}
	return node, names, nil
}

// planCTE plans one WITH entry and registers it as visible. Recursive
// entries must have the UNION [ALL] shape; non-self-referencing entries in
// a recursive WITH plan normally.
func (b *binder) planCTE(cte *sqlast.CTE, recursive, iterate bool) (int, error) {
	idx := len(b.allCTEs)
	selfRef := recursive && queryReferencesTable(cte.Query, cte.Name)

	if !selfRef {
		node, names, err := b.planQuery(cte.Query)
		if err != nil {
			return 0, err
		}
		names = applyColAliases(names, cte.ColNames)
		b.allCTEs = append(b.allCTEs, CTEDef{Name: cte.Name, Plan: node, Wid: node.Width(), Cols: names})
		b.ctes = append(b.ctes, &cteBinding{name: cte.Name, index: idx, width: node.Width(), cols: names})
		return idx, nil
	}

	setop, ok := cte.Query.Body.(*sqlast.SetOp)
	if !ok || setop.Op != "UNION" {
		return 0, b.errf("recursive CTE %q must have the form <non-recursive> UNION [ALL] <recursive>", cte.Name)
	}
	if len(cte.Query.OrderBy) > 0 || cte.Query.Limit != nil {
		return 0, b.errf("ORDER BY/LIMIT in recursive CTE %q is not supported", cte.Name)
	}
	if qeReferencesTable(setop.L, cte.Name) {
		return 0, b.errf("recursive reference to %q must not appear in the non-recursive term", cte.Name)
	}

	// Reserve the slot before planning so the recursive term can resolve
	// the self-reference.
	b.allCTEs = append(b.allCTEs, CTEDef{Name: cte.Name, Recursive: true})

	nonRec, names, err := b.planQueryExpr(setop.L)
	if err != nil {
		return 0, err
	}
	names = applyColAliases(names, cte.ColNames)

	binding := &cteBinding{name: cte.Name, index: idx, width: nonRec.Width(), cols: names, recursing: true}
	b.ctes = append(b.ctes, binding)
	rec, _, err := b.planQueryExpr(setop.R)
	if err != nil {
		return 0, err
	}
	binding.recursing = false
	if rec.Width() != nonRec.Width() {
		return 0, b.errf("recursive CTE %q terms differ in column count (%d vs %d)", cte.Name, nonRec.Width(), rec.Width())
	}

	ru := &RecursiveUnion{NonRec: nonRec, Rec: rec, CTEIndex: idx, Iterate: iterate, Dedup: !setop.All}
	b.allCTEs[idx] = CTEDef{Name: cte.Name, Plan: ru, Wid: nonRec.Width(), Cols: names, Recursive: true}
	return idx, nil
}

func applyColAliases(names, aliases []string) []string {
	out := append([]string(nil), names...)
	for i, a := range aliases {
		if i < len(out) {
			out[i] = a
		}
	}
	return out
}

// queryReferencesTable reports whether q mentions name as a table.
func queryReferencesTable(q *sqlast.Query, name string) bool {
	if q == nil {
		return false
	}
	if q.With != nil {
		for _, c := range q.With.CTEs {
			if queryReferencesTable(c.Query, name) {
				return true
			}
		}
	}
	return qeReferencesTable(q.Body, name)
}

func qeReferencesTable(qe sqlast.QueryExpr, name string) bool {
	switch x := qe.(type) {
	case *sqlast.Select:
		for _, f := range x.From {
			if fromReferencesTable(f, name) {
				return true
			}
		}
		// Subqueries in expressions may reference the CTE too.
		found := false
		check := func(e sqlast.Expr) bool {
			switch s := e.(type) {
			case *sqlast.ScalarSubquery:
				if queryReferencesTable(s.Sub, name) {
					found = true
				}
			case *sqlast.Exists:
				if queryReferencesTable(s.Sub, name) {
					found = true
				}
			case *sqlast.InSubquery:
				if queryReferencesTable(s.Sub, name) {
					found = true
				}
			}
			return !found
		}
		for _, it := range x.Items {
			sqlast.WalkExpr(it.Expr, check)
		}
		sqlast.WalkExpr(x.Where, check)
		sqlast.WalkExpr(x.Having, check)
		return found
	case *sqlast.SetOp:
		return qeReferencesTable(x.L, name) || qeReferencesTable(x.R, name)
	default:
		return false
	}
}

func fromReferencesTable(f sqlast.FromItem, name string) bool {
	switch x := f.(type) {
	case *sqlast.TableRef:
		return strings.EqualFold(x.Name, name)
	case *sqlast.SubqueryRef:
		return queryReferencesTable(x.Query, name)
	case *sqlast.Join:
		return fromReferencesTable(x.L, name) || fromReferencesTable(x.R, name)
	}
	return false
}

// planQueryExpr plans a select, set operation, or VALUES body.
func (b *binder) planQueryExpr(qe sqlast.QueryExpr) (Node, []string, error) {
	switch x := qe.(type) {
	case *sqlast.Select:
		return b.planSelect(x)
	case *sqlast.SetOp:
		l, names, err := b.planQueryExpr(x.L)
		if err != nil {
			return nil, nil, err
		}
		r, _, err := b.planQueryExpr(x.R)
		if err != nil {
			return nil, nil, err
		}
		if l.Width() != r.Width() {
			return nil, nil, b.errf("each %s query must have the same number of columns (%d vs %d)", x.Op, l.Width(), r.Width())
		}
		switch x.Op {
		case "UNION":
			var n Node = &Append{Children: []Node{l, r}}
			if !x.All {
				n = &Distinct{Child: n}
			}
			return n, names, nil
		case "INTERSECT", "EXCEPT":
			return &SetOp{Op: x.Op, All: x.All, L: l, R: r}, names, nil
		default:
			return nil, nil, b.errf("unknown set operation %q", x.Op)
		}
	case *sqlast.Values:
		if len(x.Rows) == 0 {
			return nil, nil, b.errf("VALUES requires at least one row")
		}
		wid := len(x.Rows[0])
		v := &ValuesNode{Wid: wid}
		saved := b.scope
		b.scope = &scope{parent: saved}
		for _, row := range x.Rows {
			if len(row) != wid {
				b.scope = saved
				return nil, nil, b.errf("VALUES lists must all be the same length")
			}
			bound := make([]Expr, wid)
			for i, e := range row {
				var err error
				bound[i], err = b.bindExpr(e)
				if err != nil {
					b.scope = saved
					return nil, nil, err
				}
			}
			v.Rows = append(v.Rows, bound)
		}
		b.scope = saved
		names := make([]string, wid)
		for i := range names {
			names[i] = "column" + itoa(i+1)
		}
		return v, names, nil
	default:
		return nil, nil, b.errf("unsupported query body %T", qe)
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}

// chainElem is one flattened FROM element.
type chainElem struct {
	item sqlast.FromItem // non-join leaf
	kind JoinKind
	on   sqlast.Expr
}

// flattenFrom linearizes comma lists and left-deep join trees into a
// nest-loop chain. Parenthesized joins under inner joins flatten
// algebraically; under outer joins they are rejected (our engine keeps the
// chain shape the compiled queries need).
func flattenFrom(items []sqlast.FromItem) ([]chainElem, error) {
	var out []chainElem
	var flat func(f sqlast.FromItem, kind JoinKind, on sqlast.Expr) error
	flat = func(f sqlast.FromItem, kind JoinKind, on sqlast.Expr) error {
		j, ok := f.(*sqlast.Join)
		if !ok {
			out = append(out, chainElem{item: f, kind: kind, on: on})
			return nil
		}
		if err := flat(j.L, kind, on); err != nil {
			return err
		}
		var jk JoinKind
		switch j.Type {
		case sqlast.JoinInner:
			jk = JoinInner
		case sqlast.JoinLeft:
			jk = JoinLeft
		case sqlast.JoinCross:
			jk = JoinCross
		}
		if rj, isJoin := j.R.(*sqlast.Join); isJoin {
			if jk == JoinLeft {
				return errUnsupportedNesting
			}
			// inner: flatten right subtree, attach ON to its last element
			mark := len(out)
			if err := flat(rj, JoinCross, nil); err != nil {
				return err
			}
			if j.On != nil && len(out) > mark {
				last := &out[len(out)-1]
				if last.on == nil {
					last.on = j.On
				} else {
					last.on = &sqlast.Binary{Op: "AND", L: last.on, R: j.On}
				}
				last.kind = JoinInner
			}
			return nil
		}
		out = append(out, chainElem{item: j.R, kind: jk, on: j.On})
		return nil
	}
	for i, f := range items {
		kind := JoinCross
		if err := flat(f, kind, nil); err != nil {
			return nil, err
		}
		_ = i
	}
	return out, nil
}

var errUnsupportedNesting = &plannerError{"parenthesized join as the right operand of an outer join is not supported"}

type plannerError struct{ msg string }

func (e *plannerError) Error() string { return "plan: " + e.msg }

// planSelect plans one SELECT block in the current outer scope chain.
func (b *binder) planSelect(s *sqlast.Select) (Node, []string, error) {
	return b.planSelectOrdered(s, nil)
}

// planSelectOrdered plans a SELECT block plus an attached ORDER BY, which
// may reference output columns (by name, position, or textually) or —
// PostgreSQL-style — arbitrary expressions over the FROM row, planned as
// hidden sort columns and stripped after the sort.
func (b *binder) planSelectOrdered(s *sqlast.Select, orderBy []sqlast.OrderItem) (Node, []string, error) {
	// A subquery binds with its own grouping and window state and leaves
	// the enclosing SELECT's as it found it.
	outer, outerAgg, outerWin := b.scope, b.agg, b.windows
	b.agg, b.windows = nil, nil
	defer func() { b.scope, b.agg, b.windows = outer, outerAgg, outerWin }()

	// ---- FROM ----
	combined := &scope{parent: outer}
	var root Node
	elems, err := flattenFrom(s.From)
	if err != nil {
		return nil, nil, err
	}
	for i, el := range elems {
		var parentScope *scope
		lateralOK := false
		if i == 0 {
			parentScope = outer
		} else {
			parentScope = combined
			lateralOK = true
		}
		node, err := b.planFromLeaf(el.item, parentScope, combined, lateralOK)
		if err != nil {
			return nil, nil, err
		}
		if root == nil {
			root = node
		} else {
			nl := &NestLoop{Left: root, Right: maybeMaterialize(el.item, node), Kind: el.kind}
			if el.on != nil {
				// ON evaluates while the left row is pushed: bind it one
				// barrier deeper than the combined row.
				onScope := &scope{parent: &scope{parent: outer}, cols: combined.cols}
				b.scope = onScope
				pred, err := b.bindExpr(el.on)
				b.scope = combined
				if err != nil {
					return nil, nil, err
				}
				nl.On = pred
			} else if el.kind == JoinInner || el.kind == JoinLeft {
				nl.On = &Const{Val: sqltypes.NewBool(true)}
			}
			root = nl
		}
	}
	if root == nil {
		root = &Result{} // table-less SELECT: one empty row
	}
	b.scope = combined

	// ---- WHERE ----
	if s.Where != nil {
		if err := forbidAggregates(s.Where, "WHERE"); err != nil {
			return nil, nil, err
		}
		pred, err := b.bindExpr(s.Where)
		if err != nil {
			return nil, nil, err
		}
		root = &Filter{Child: root, Pred: pred}
	}

	// ---- aggregation ----
	aggCalls := collectAggCalls(s)
	if len(aggCalls) > 0 || len(s.GroupBy) > 0 {
		root, err = b.planAgg(root, s, aggCalls)
		if err != nil {
			return nil, nil, err
		}
	}

	// ---- HAVING ----
	if s.Having != nil {
		if b.agg == nil {
			return nil, nil, b.errf("HAVING requires aggregation")
		}
		pred, err := b.bindExpr(s.Having)
		if err != nil {
			return nil, nil, err
		}
		root = &Filter{Child: root, Pred: pred}
	}

	// ---- window functions ----
	winCalls := collectWindowCalls(s)
	if len(winCalls) > 0 {
		root, err = b.planWindows(root, s, winCalls)
		if err != nil {
			return nil, nil, err
		}
	}

	// ---- projection ----
	var exprs []Expr
	var names []string
	for _, it := range s.Items {
		switch {
		case it.Star:
			if b.agg != nil {
				return nil, nil, b.errf("SELECT * is not allowed with GROUP BY")
			}
			for idx, c := range combined.cols {
				exprs = append(exprs, &InputRef{Idx: idx})
				names = append(names, c.name)
			}
		case it.TableStar != "":
			if b.agg != nil {
				return nil, nil, b.errf("SELECT %s.* is not allowed with GROUP BY", it.TableStar)
			}
			n := 0
			for idx, c := range combined.cols {
				if c.tbl == it.TableStar {
					exprs = append(exprs, &InputRef{Idx: idx})
					names = append(names, c.name)
					n++
				}
			}
			if n == 0 {
				return nil, nil, b.errf("missing FROM-clause entry for table %q", it.TableStar)
			}
		default:
			e, err := b.bindExpr(it.Expr)
			if err != nil {
				return nil, nil, err
			}
			exprs = append(exprs, e)
			names = append(names, outputName(it))
		}
	}
	// ---- ORDER BY (attached to this select) ----
	var keys []SortKey
	hidden := 0
	for _, o := range orderBy {
		idx := -1
		if lit, ok := o.Expr.(*sqlast.Literal); ok && lit.Val.Kind() == sqltypes.KindInt {
			n := int(lit.Val.Int())
			if n < 1 || n > len(names) {
				return nil, nil, b.errf("ORDER BY position %d is not in select list", n)
			}
			idx = n - 1
		}
		if idx < 0 {
			if cr, ok := o.Expr.(*sqlast.ColumnRef); ok && cr.Table == "" {
				for i, nm := range names {
					if nm == cr.Column {
						idx = i
						break
					}
				}
			}
		}
		if idx < 0 {
			d := sqlast.DeparseExpr(o.Expr)
			for i, it := range s.Items {
				if it.Expr != nil && sqlast.DeparseExpr(it.Expr) == d {
					idx = i
					break
				}
			}
		}
		if idx < 0 {
			if s.Distinct {
				return nil, nil, b.errf("for SELECT DISTINCT, ORDER BY expressions must appear in the select list")
			}
			e, err := b.bindExpr(o.Expr)
			if err != nil {
				return nil, nil, err
			}
			exprs = append(exprs, e)
			idx = len(exprs) - 1
			hidden++
		}
		keys = append(keys, SortKey{Expr: &InputRef{Idx: idx}, Desc: o.Desc})
	}

	var node Node = &Project{Child: root, Exprs: exprs}
	if s.Distinct {
		node = &Distinct{Child: node}
	}
	if len(keys) > 0 {
		node = &Sort{Child: node, Keys: keys}
		if hidden > 0 {
			strip := make([]Expr, len(names))
			for i := range strip {
				strip[i] = &InputRef{Idx: i}
			}
			node = &Project{Child: node, Exprs: strip}
		}
	}
	return node, names, nil
}

// maybeMaterialize wraps uncorrelated, non-scan join inners so rescans
// replay cached rows.
func maybeMaterialize(item sqlast.FromItem, node Node) Node {
	if sq, ok := item.(*sqlast.SubqueryRef); ok && !sq.Lateral {
		return &Materialize{Child: node}
	}
	return node
}

// planFromLeaf plans one non-join FROM element and appends its columns to
// combined.
func (b *binder) planFromLeaf(item sqlast.FromItem, parentScope, combined *scope, lateralOK bool) (Node, error) {
	switch f := item.(type) {
	case *sqlast.TableRef:
		alias := f.Alias
		if alias == "" {
			alias = f.Name
		}
		// CTE reference?
		for i := len(b.ctes) - 1; i >= 0; i-- {
			cb := b.ctes[i]
			if strings.EqualFold(cb.name, f.Name) {
				for _, c := range cb.cols {
					combined.addCol(alias, c, true)
				}
				return &CTEScan{Index: cb.index, Wid: cb.width, Working: cb.recursing}, nil
			}
		}
		tbl, ok := b.cat.Table(f.Name)
		if !ok {
			return nil, b.errf("relation %q does not exist", f.Name)
		}
		for _, c := range tbl.Cols {
			combined.addCol(alias, c.Name, true)
		}
		return &SeqScan{Table: tbl}, nil

	case *sqlast.SubqueryRef:
		if f.Lateral && b.opts.DisableLateral {
			return nil, b.errf("LATERAL is not supported in this dialect (SQLite mode) — use the nested-derived-table rewrite")
		}
		if f.Lateral && !lateralOK {
			// LATERAL on the first FROM item is legal but can see nothing
			// extra; treat it as plain.
		}
		saved := b.scope
		if f.Lateral && lateralOK {
			b.scope = parentScope
		} else if parentScope == combined {
			b.scope = combined.masked()
		} else {
			b.scope = parentScope
		}
		node, names, err := b.planQuery(f.Query)
		b.scope = saved
		if err != nil {
			return nil, err
		}
		if len(f.ColAliases) > len(names) {
			return nil, b.errf("table %q has %d columns available but %d aliases given", f.Alias, len(names), len(f.ColAliases))
		}
		names = applyColAliases(names, f.ColAliases)
		for _, n := range names {
			combined.addCol(f.Alias, n, true)
		}
		return node, nil
	default:
		return nil, b.errf("unsupported FROM item %T", item)
	}
}

func outputName(it sqlast.SelectItem) string {
	if it.Alias != "" {
		return it.Alias
	}
	switch e := it.Expr.(type) {
	case *sqlast.ColumnRef:
		return e.Column
	case *sqlast.FuncCall:
		return strings.ToLower(e.Name)
	case *sqlast.FieldAccess:
		return strings.ToLower(e.Field)
	case *sqlast.Cast:
		if cr, ok := e.X.(*sqlast.ColumnRef); ok {
			return cr.Column
		}
	}
	return "?column?"
}

func forbidAggregates(e sqlast.Expr, where string) error {
	var err error
	shallowWalk(e, func(x sqlast.Expr) {
		if fc, ok := x.(*sqlast.FuncCall); ok && fc.Over == nil && fc.OverName == "" && Aggregates[strings.ToLower(fc.Name)] {
			err = &plannerError{"aggregate functions are not allowed in " + where}
		}
	})
	return err
}

// collectAggCalls gathers non-window aggregate calls from the select list
// and HAVING.
func collectAggCalls(s *sqlast.Select) []*sqlast.FuncCall {
	var calls []*sqlast.FuncCall
	add := func(e sqlast.Expr) {
		shallowWalk(e, func(x sqlast.Expr) {
			if fc, ok := x.(*sqlast.FuncCall); ok && fc.Over == nil && fc.OverName == "" && Aggregates[strings.ToLower(fc.Name)] {
				calls = append(calls, fc)
			}
		})
	}
	for _, it := range s.Items {
		add(it.Expr)
	}
	add(s.Having)
	return calls
}

// collectWindowCalls gathers window function calls from the select list.
func collectWindowCalls(s *sqlast.Select) []*sqlast.FuncCall {
	var calls []*sqlast.FuncCall
	for _, it := range s.Items {
		shallowWalk(it.Expr, func(x sqlast.Expr) {
			if fc, ok := x.(*sqlast.FuncCall); ok && (fc.Over != nil || fc.OverName != "") {
				calls = append(calls, fc)
			}
		})
	}
	return calls
}

// planAgg builds the Agg node and installs the aggregate binding context.
func (b *binder) planAgg(child Node, s *sqlast.Select, calls []*sqlast.FuncCall) (Node, error) {
	agg := &Agg{Child: child}
	ctx := &aggCtx{aggPtrs: make(map[*sqlast.FuncCall]int), numGroups: len(s.GroupBy)}

	// Scope after aggregation: simple-column group keys stay addressable.
	aggScope := &scope{parent: b.scope.parent}

	for _, g := range s.GroupBy {
		ge, err := b.bindExpr(g)
		if err != nil {
			return nil, err
		}
		agg.GroupBy = append(agg.GroupBy, ge)
		ctx.groupKeys = append(ctx.groupKeys, sqlast.DeparseExpr(g))
		if cr, ok := g.(*sqlast.ColumnRef); ok {
			aggScope.addCol(cr.Table, cr.Column, true)
		} else {
			aggScope.addCol("", "", false)
		}
	}
	for i, fc := range calls {
		if _, dup := ctx.aggPtrs[fc]; dup {
			continue
		}
		spec := AggSpec{Func: strings.ToLower(fc.Name), Star: fc.Star, Distinct: fc.Distinct}
		if !fc.Star {
			if len(fc.Args) == 0 {
				return nil, b.errf("aggregate %s requires an argument", fc.Name)
			}
			arg, err := b.bindExpr(fc.Args[0])
			if err != nil {
				return nil, err
			}
			spec.Arg = arg
			if spec.Func == "string_agg" && len(fc.Args) > 1 {
				sep, err := b.bindExpr(fc.Args[1])
				if err != nil {
					return nil, err
				}
				spec.Sep = sep
			}
		}
		agg.Aggs = append(agg.Aggs, spec)
		ctx.aggPtrs[fc] = i
		aggScope.addCol("", "", false)
	}

	b.scope = aggScope
	b.agg = ctx
	return agg, nil
}

// planWindows resolves named windows, builds the Window node, and maps each
// call to its appended output column.
func (b *binder) planWindows(child Node, s *sqlast.Select, calls []*sqlast.FuncCall) (Node, error) {
	named := map[string]*sqlast.WindowSpec{}
	for _, w := range s.Windows {
		if _, dup := named[w.Name]; dup {
			return nil, b.errf("window %q is already defined", w.Name)
		}
		named[w.Name] = w.Spec
	}
	resolveSpec := func(spec *sqlast.WindowSpec) (*sqlast.WindowSpec, error) {
		seen := map[string]bool{}
		cur := spec
		out := &sqlast.WindowSpec{
			PartitionBy: spec.PartitionBy,
			OrderBy:     spec.OrderBy,
			Frame:       spec.Frame,
		}
		for cur.Name != "" {
			if seen[cur.Name] {
				return nil, b.errf("circular window definition %q", cur.Name)
			}
			seen[cur.Name] = true
			base, ok := named[cur.Name]
			if !ok {
				return nil, b.errf("window %q does not exist", cur.Name)
			}
			if len(out.PartitionBy) == 0 {
				out.PartitionBy = base.PartitionBy
			}
			if len(out.OrderBy) == 0 {
				out.OrderBy = base.OrderBy
			}
			if out.Frame == nil {
				out.Frame = base.Frame
			}
			cur = base
		}
		return out, nil
	}

	win := &Window{Child: child}
	b.windows = make(map[*sqlast.FuncCall]int)
	baseWidth := child.Width()
	for i, fc := range calls {
		var spec *sqlast.WindowSpec
		if fc.OverName != "" {
			spec = &sqlast.WindowSpec{Name: fc.OverName}
		} else {
			spec = fc.Over
		}
		resolved, err := resolveSpec(spec)
		if err != nil {
			return nil, err
		}
		name := strings.ToLower(fc.Name)
		if !Aggregates[name] && !WindowOnly[name] {
			return nil, b.errf("%s is not a window function", name)
		}
		wf := WindowFn{Func: name, Star: fc.Star}
		if !fc.Star && len(fc.Args) > 0 {
			arg, err := b.bindExpr(fc.Args[0])
			if err != nil {
				return nil, err
			}
			wf.Arg = arg
			if (name == "lag" || name == "lead") && len(fc.Args) > 1 {
				off, err := b.bindExpr(fc.Args[1])
				if err != nil {
					return nil, err
				}
				wf.Offset = off
			}
		} else if !fc.Star && Aggregates[name] && name != "count" {
			return nil, b.errf("window aggregate %s requires an argument", name)
		}
		for _, pe := range resolved.PartitionBy {
			e, err := b.bindExpr(pe)
			if err != nil {
				return nil, err
			}
			wf.PartitionBy = append(wf.PartitionBy, e)
		}
		for _, oe := range resolved.OrderBy {
			e, err := b.bindExpr(oe.Expr)
			if err != nil {
				return nil, err
			}
			wf.OrderBy = append(wf.OrderBy, SortKey{Expr: e, Desc: oe.Desc})
		}
		if resolved.Frame != nil {
			fr := &FrameSpec{
				Rows:           resolved.Frame.Mode == sqlast.FrameRows,
				Start:          mapBound(resolved.Frame.Start.Type),
				End:            mapBound(resolved.Frame.End.Type),
				ExcludeCurrent: resolved.Frame.ExcludeCurrent,
			}
			var err error
			if resolved.Frame.Start.Offset != nil {
				fr.StartOff, err = b.bindExpr(resolved.Frame.Start.Offset)
				if err != nil {
					return nil, err
				}
			}
			if resolved.Frame.End.Offset != nil {
				fr.EndOff, err = b.bindExpr(resolved.Frame.End.Offset)
				if err != nil {
					return nil, err
				}
			}
			wf.Frame = fr
		}
		win.Funcs = append(win.Funcs, wf)
		b.windows[fc] = baseWidth + i
	}

	// Extend the current scope with (invisible) slots so InputRef indices
	// into the window output are in range.
	for range win.Funcs {
		b.scope.addCol("", "", false)
	}
	return win, nil
}

func mapBound(t sqlast.BoundType) FrameBoundKind {
	switch t {
	case sqlast.BoundUnboundedPreceding:
		return FrameUnboundedPreceding
	case sqlast.BoundPreceding:
		return FramePreceding
	case sqlast.BoundCurrentRow:
		return FrameCurrentRow
	case sqlast.BoundFollowing:
		return FrameFollowing
	default:
		return FrameUnboundedFollowing
	}
}

// planOrderBy resolves ORDER BY terms against the query output: ordinals,
// output names, or expressions matching a select item textually.
func (b *binder) planOrderBy(node Node, names []string, q *sqlast.Query) (Node, error) {
	var keys []SortKey
	sel, _ := q.Body.(*sqlast.Select)
	for _, o := range q.OrderBy {
		idx := -1
		if lit, ok := o.Expr.(*sqlast.Literal); ok && lit.Val.Kind() == sqltypes.KindInt {
			n := int(lit.Val.Int())
			if n < 1 || n > len(names) {
				return nil, b.errf("ORDER BY position %d is not in select list", n)
			}
			idx = n - 1
		}
		if idx < 0 {
			if cr, ok := o.Expr.(*sqlast.ColumnRef); ok && cr.Table == "" {
				for i, n := range names {
					if n == cr.Column {
						idx = i
						break
					}
				}
			}
		}
		if idx < 0 && sel != nil {
			d := sqlast.DeparseExpr(o.Expr)
			for i, it := range sel.Items {
				if it.Expr != nil && sqlast.DeparseExpr(it.Expr) == d {
					idx = i
					break
				}
			}
		}
		if idx < 0 {
			return nil, b.errf("ORDER BY expression %q must appear in the select list (by name, position, or textually)", sqlast.DeparseExpr(o.Expr))
		}
		keys = append(keys, SortKey{Expr: &InputRef{Idx: idx}, Desc: o.Desc})
	}
	return &Sort{Child: node, Keys: keys}, nil
}
