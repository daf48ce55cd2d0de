// Package plan turns bound SQL ASTs into executable plan trees. A Plan is
// pure data — the executor (internal/exec) instantiates it into runtime
// state, mirroring PostgreSQL's Plan vs. ExecutorState split. That split is
// load-bearing for this reproduction: the paper's f→Qi context-switch
// overhead *is* the per-call instantiation of cached plans, which the
// compiled WITH RECURSIVE form avoids.
package plan

import (
	"plsqlaway/internal/catalog"
	"plsqlaway/internal/sqltypes"
)

// Expr is a compiled expression. Column references are resolved to
// positional slots: InputRef indexes the current node's input row, OuterRef
// indexes rows pushed by enclosing nest-loop laterals and subplan
// evaluations (De Bruijn style).
type Expr interface{ isExpr() }

// Const is a literal.
type Const struct{ Val sqltypes.Value }

// InputRef reads column Idx of the current input row.
type InputRef struct{ Idx int }

// OuterRef reads column Idx of the Depth-th enclosing row (0 = innermost
// enclosing context).
type OuterRef struct{ Depth, Idx int }

// ParamRef reads query parameter Ordinal (1-based).
type ParamRef struct{ Ordinal int }

// BinOp is an infix operator (+ - * / % || = <> < <= > >= AND OR).
type BinOp struct {
	Op   string
	L, R Expr
}

// UnaryOp is - or NOT.
type UnaryOp struct {
	Op string
	X  Expr
}

// IsNullExpr is x IS [NOT] NULL.
type IsNullExpr struct {
	X      Expr
	Negate bool
}

// BetweenExpr is x [NOT] BETWEEN lo AND hi.
type BetweenExpr struct {
	X, Lo, Hi Expr
	Negate    bool
}

// InListExpr is x [NOT] IN (e1 … en).
type InListExpr struct {
	X      Expr
	List   []Expr
	Negate bool
}

// CaseWhen is one arm of a CaseExpr.
type CaseWhen struct {
	Cond   Expr
	Result Expr
}

// CaseExpr is CASE (searched when Operand == nil).
type CaseExpr struct {
	Operand Expr
	Whens   []CaseWhen
	Else    Expr
}

// FuncExpr is a call to a builtin scalar function, validated at bind time.
type FuncExpr struct {
	Name string
	Args []Expr
}

// CastExpr converts to a static type.
type CastExpr struct {
	X    Expr
	Type sqltypes.Type
}

// RowCtor builds a row value.
type RowCtor struct{ Fields []Expr }

// FieldSel extracts a field of a row-typed value. Index >= 0 is positional
// (f1 …); otherwise Name addresses coord fields x/y.
type FieldSel struct {
	X     Expr
	Index int
	Name  string
}

// SubplanMode distinguishes how a subplan result is consumed.
type SubplanMode uint8

// Subplan modes.
const (
	SubplanScalar SubplanMode = iota // single-column single-row value
	SubplanExists
	SubplanIn
)

// SubplanExpr evaluates a nested plan per row. For SubplanIn, CompareX is
// the left-hand value compared against the subplan's first column.
type SubplanExpr struct {
	Mode     SubplanMode
	Plan     Node
	CompareX Expr
	Negate   bool
	// FromInline marks scalar subplans produced by UDF body inlining. They
	// are known pure (volatile functions never inline), so the hoisting
	// pass may lift them out of Project/Filter/Agg expressions into Apply
	// nodes — and from there decorrelate into hash joins — without
	// changing evaluation semantics.
	FromInline bool
	// MemoNote is the memo pass's decision for a subplan inside a Loop
	// (memo.go) — where its Memo went, or why there is none. EXPLAIN
	// prints it; it is empty everywhere else.
	MemoNote string
}

// LetExpr is a flattened let-chain: the scalar subquery
//
//	(SELECT body FROM (SELECT s0) AS _0 LEFT JOIN LATERAL (SELECT s1) AS _1 ON true …)
//
// whose FROM items are all FROM-less single-column SELECTs. Its operands
// are the subplan's own bound expressions, untouched, so it evaluates
// under the outer-row stack the subplan would have built: the input row
// is pushed; slot j > 0 additionally sees slots 0..j-1 pushed as one row
// (the lateral join's left row); Body reads the slots as its input row.
// Each slot is evaluated exactly once, in order — never substituted — so
// volatile slots draw in statement order, and a LetExpr inside a CASE arm
// stays as lazy as the subquery it replaces. flattenLets creates these.
type LetExpr struct {
	Slots []Expr
	Body  Expr
}

// UDFCallExpr invokes a catalog function. The executor dispatches through
// the engine's function-call hook: interpreted PL/pgSQL functions switch
// into the interpreter (a Q→f context switch), compiled functions evaluate
// their inlined query.
type UDFCallExpr struct {
	Func *catalog.Function
	Args []Expr
}

func (*Const) isExpr()       {}
func (*InputRef) isExpr()    {}
func (*OuterRef) isExpr()    {}
func (*ParamRef) isExpr()    {}
func (*BinOp) isExpr()       {}
func (*UnaryOp) isExpr()     {}
func (*IsNullExpr) isExpr()  {}
func (*BetweenExpr) isExpr() {}
func (*InListExpr) isExpr()  {}
func (*CaseExpr) isExpr()    {}
func (*FuncExpr) isExpr()    {}
func (*CastExpr) isExpr()    {}
func (*RowCtor) isExpr()     {}
func (*FieldSel) isExpr()    {}
func (*SubplanExpr) isExpr() {}
func (*LetExpr) isExpr()     {}
func (*UDFCallExpr) isExpr() {}

// Builtins declares the scalar functions the binder accepts, mapping name
// to (minArgs, maxArgs); maxArgs -1 means variadic. The executor implements
// them; keeping the set here lets binding fail fast on typos.
var Builtins = map[string][2]int{
	"abs": {1, 1}, "sign": {1, 1}, "floor": {1, 1}, "ceil": {1, 1},
	"ceiling": {1, 1}, "round": {1, 2}, "trunc": {1, 1}, "sqrt": {1, 1},
	"power": {2, 2}, "pow": {2, 2}, "mod": {2, 2}, "exp": {1, 1},
	"ln": {1, 1}, "log": {1, 2}, "pi": {0, 0}, "random": {0, 0},
	"setseed": {1, 1},
	"length":  {1, 1}, "char_length": {1, 1}, "lower": {1, 1}, "upper": {1, 1},
	"substr": {2, 3}, "substring": {2, 3}, "left": {2, 2}, "right": {2, 2},
	"strpos": {2, 2}, "replace": {3, 3}, "concat": {0, -1}, "ascii": {1, 1},
	"chr": {1, 1}, "repeat": {2, 2}, "ltrim": {1, 2}, "rtrim": {1, 2},
	"btrim": {1, 2}, "trim": {1, 2}, "reverse": {1, 1}, "md5hash": {1, 1},
	"coalesce": {1, -1}, "nullif": {2, 2}, "greatest": {1, -1}, "least": {1, -1},
	"coord": {2, 2}, "coord_x": {1, 1}, "coord_y": {1, 1},
}

// Aggregates declares aggregate function names (usable with GROUP BY and
// OVER).
var Aggregates = map[string]bool{
	"count": true, "sum": true, "avg": true, "min": true, "max": true,
	"bool_and": true, "bool_or": true, "string_agg": true,
}

// WindowOnly declares functions valid only with OVER.
var WindowOnly = map[string]bool{
	"row_number": true, "rank": true, "dense_rank": true,
	"lag": true, "lead": true, "first_value": true, "last_value": true,
}
