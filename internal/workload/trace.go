package workload

import "plsqlaway/internal/sqlast"

// TraceKept returns a compiled trampoline query whose consumer reads every
// run row — max(result) over the whole table, which is still the function
// result because continuing rows carry NULL there — so the planner cannot
// lower it to a Loop and the engine must keep the tail-recursion trace:
// the vanilla WITH RECURSIVE evaluation the paper's Table 2 measures.
func TraceKept(q *sqlast.Query) *sqlast.Query {
	c := *q
	sel := *q.Body.(*sqlast.Select)
	sel.Where = nil
	sel.Items = []sqlast.SelectItem{{
		Expr:  &sqlast.FuncCall{Name: "max", Args: []sqlast.Expr{sel.Items[0].Expr}},
		Alias: "result",
	}}
	c.Body = &sel
	return &c
}
