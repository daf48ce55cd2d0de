package plan

import (
	"plsqlaway/internal/catalog"
)

// Node is a plan operator. Width reports the number of output columns.
type Node interface {
	isNode()
	Width() int
}

// Result emits exactly one row computed from Exprs (table-less SELECT).
type Result struct{ Exprs []Expr }

// SeqScan reads a base table.
type SeqScan struct{ Table *catalog.Table }

// CTEScan reads a common table expression. Working scans read the
// recursive working table (the self-reference inside a recursive term);
// others read the materialized result.
type CTEScan struct {
	Index   int
	Wid     int
	Working bool
}

// Filter emits child rows satisfying Pred.
type Filter struct {
	Child Node
	Pred  Expr
}

// Project computes a new row per child row.
type Project struct {
	Child Node
	Exprs []Expr
}

// JoinKind enumerates nest-loop join behaviours.
type JoinKind uint8

// Join kinds.
const (
	JoinInner JoinKind = iota
	JoinLeft
	JoinCross
)

// NestLoop joins Left and Right. The current left row is pushed onto the
// outer-row stack while the right subtree runs, so lateral right sides see
// it as OuterRef depth 0. On == nil means unconditional (cross).
type NestLoop struct {
	Left, Right Node
	Kind        JoinKind
	On          Expr
}

// HashJoin is an equi-join executed by hashing the right (build) side on
// RightKeys once and probing it with LeftKeys — the batch executor's
// replacement for NestLoop wherever the join predicate carries equality
// conjuncts between the two sides and the right side is uncorrelated (no
// outer references, no volatile expressions). Residual carries the
// original ON conjuncts, re-evaluated over the concatenated row per hash
// match, so hashing is purely an accelerator: NULL keys and cross-type
// equality behave exactly as in the nest-loop plan. The planner's
// useHashJoins pass creates these (see hashjoin.go).
type HashJoin struct {
	Left, Right Node
	Kind        JoinKind // JoinInner or JoinLeft
	LeftKeys    []Expr   // over the left row
	RightKeys   []Expr   // over the right row (InputRef indices rebased)
	Residual    Expr     // original ON conjuncts, or nil
	// ResidualAllKeys marks a residual consisting solely of the bare key
	// equalities (comma-join + WHERE shape): when the hash buckets are
	// provably exact the executor skips re-evaluating it (see
	// exec.rowTable).
	ResidualAllKeys bool
	// RightStatic marks a build side that reads no CTE state (working
	// tables or materialized stores): its hash table survives rescans, so
	// the probe loop inside RecursiveUnion pays O(build) once instead of
	// per iteration.
	RightStatic bool
	// SingleRow marks a join produced by decorrelating an inlined scalar
	// subplan: each probe row must match at most one build row (after the
	// residual), because the subplan it replaced was required to yield at
	// most one row. The executor raises the scalar-subquery cardinality
	// error on a second match instead of emitting both.
	SingleRow bool
}

// Apply is a LATERAL-style scalar apply: for each child row it pushes the
// row onto the outer stack, evaluates Sub (a correlated scalar subplan —
// typically an inlined UDF body), and appends the single resulting value
// as one extra output column. Zero sub rows append NULL; more than one is
// the scalar-subquery cardinality error. The hoisting pass creates these
// from FromInline subplans so the decorrelation pass can turn them into
// hash joins when the correlation is an equi-key; applies that stay
// correlated still beat per-row expression evaluation because the sub
// tree is instantiated once and rescanned, not re-opened per row.
type Apply struct {
	Child Node
	Sub   Node // width 1, correlated via OuterRef depth 0
}

// Materialize caches its child's rows on first execution so cheap rescans
// replay them (wrapped around uncorrelated join inners).
type Materialize struct{ Child Node }

// AggSpec is one aggregate computation.
type AggSpec struct {
	Func     string
	Arg      Expr // nil for count(*)
	Star     bool
	Distinct bool
	Sep      Expr // string_agg separator
}

// Agg groups child rows by GroupBy and computes Aggs per group. With no
// GROUP BY it emits exactly one row (over the whole input). Output row is
// group values followed by aggregate results.
type Agg struct {
	Child   Node
	GroupBy []Expr
	Aggs    []AggSpec
}

// SortKey is one ordering term.
type SortKey struct {
	Expr Expr
	Desc bool
}

// FrameBoundKind enumerates window frame bounds.
type FrameBoundKind uint8

// Frame bound kinds.
const (
	FrameUnboundedPreceding FrameBoundKind = iota
	FramePreceding
	FrameCurrentRow
	FrameFollowing
	FrameUnboundedFollowing
)

// FrameSpec is a resolved window frame.
type FrameSpec struct {
	Rows           bool // ROWS vs RANGE (peer groups)
	Start, End     FrameBoundKind
	StartOff       Expr
	EndOff         Expr
	ExcludeCurrent bool
}

// WindowFn is one window computation appended as an output column.
type WindowFn struct {
	Func        string
	Arg         Expr
	Star        bool
	PartitionBy []Expr
	OrderBy     []SortKey
	Frame       *FrameSpec // nil: default frame
	Offset      Expr       // lag/lead offset
}

// Window appends one column per WindowFn to each child row.
type Window struct {
	Child Node
	Funcs []WindowFn
}

// Sort orders child rows.
type Sort struct {
	Child Node
	Keys  []SortKey
}

// Limit applies LIMIT/OFFSET (expressions evaluated once at open).
type Limit struct {
	Child  Node
	Limit  Expr
	Offset Expr
}

// Distinct removes duplicate rows (NULL-aware, like SELECT DISTINCT).
type Distinct struct{ Child Node }

// Append concatenates children (UNION ALL).
type Append struct{ Children []Node }

// SetOp implements INTERSECT/EXCEPT (hash-based).
type SetOp struct {
	Op   string // "INTERSECT" or "EXCEPT"
	All  bool
	L, R Node
}

// ValuesNode emits literal rows.
type ValuesNode struct {
	Rows [][]Expr
	Wid  int
}

// RecursiveUnion drives a recursive CTE: seed the working table from
// NonRec, then repeatedly evaluate Rec (whose working CTEScan reads the
// current working table) until it yields no rows. Vanilla mode accumulates
// every intermediate row — the full tail-recursion trace the paper shows is
// wasted effort; Iterate mode (the paper's WITH ITERATE proposal) keeps
// only the latest working table and therefore writes no buffer pages.
type RecursiveUnion struct {
	NonRec, Rec Node
	CTEIndex    int
	Iterate     bool
	Dedup       bool // UNION instead of UNION ALL
	// NotLowered says why the loop-lowering pass (loop.go) left this CTE
	// on the generic operator; EXPLAIN prints it.
	NotLowered string
}

// Loop runs a tail-recursive trampoline — the shape the PL/SQL compiler
// emits, recognised structurally by lowerLoops — over one in-place state
// row instead of a recursive CTE. Seed (no input row) initialises the
// state; while state column Cont is true, Step is evaluated with the
// state row pushed as outer row 0 (exactly where the working-table scan's
// lateral join put it) and its ROW result becomes the next state; once
// Cont is false the node emits Out, evaluated over the final state, as
// its single row (no row when Cont ended NULL). It replaces the CTE's
// WithNode, RecursiveUnion, working scan, join, filter and projections,
// keeps no trace and writes no tuplestore: WITH ITERATE semantics.
type Loop struct {
	Seed []Expr
	Step Expr
	Cont int
	Out  []Expr
}

// WithNode owns the CTEs of one query level: opening (or rescanning) it
// resets and eagerly materializes them so correlated CTE bodies see the
// current outer bindings.
type WithNode struct {
	Indices []int
	Child   Node
}

func (*Result) isNode()         {}
func (*SeqScan) isNode()        {}
func (*CTEScan) isNode()        {}
func (*Filter) isNode()         {}
func (*Project) isNode()        {}
func (*NestLoop) isNode()       {}
func (*HashJoin) isNode()       {}
func (*Apply) isNode()          {}
func (*Materialize) isNode()    {}
func (*Agg) isNode()            {}
func (*Window) isNode()         {}
func (*Sort) isNode()           {}
func (*Limit) isNode()          {}
func (*Distinct) isNode()       {}
func (*Append) isNode()         {}
func (*SetOp) isNode()          {}
func (*ValuesNode) isNode()     {}
func (*RecursiveUnion) isNode() {}
func (*WithNode) isNode()       {}
func (*Loop) isNode()           {}

// Width implementations.
func (n *Result) Width() int      { return len(n.Exprs) }
func (n *SeqScan) Width() int     { return len(n.Table.Cols) }
func (n *CTEScan) Width() int     { return n.Wid }
func (n *Filter) Width() int      { return n.Child.Width() }
func (n *Project) Width() int     { return len(n.Exprs) }
func (n *NestLoop) Width() int    { return n.Left.Width() + n.Right.Width() }
func (n *HashJoin) Width() int    { return n.Left.Width() + n.Right.Width() }
func (n *Apply) Width() int       { return n.Child.Width() + 1 }
func (n *Materialize) Width() int { return n.Child.Width() }
func (n *Agg) Width() int         { return len(n.GroupBy) + len(n.Aggs) }
func (n *Window) Width() int      { return n.Child.Width() + len(n.Funcs) }
func (n *Sort) Width() int        { return n.Child.Width() }
func (n *Limit) Width() int       { return n.Child.Width() }
func (n *Distinct) Width() int    { return n.Child.Width() }
func (n *Append) Width() int      { return n.Children[0].Width() }
func (n *SetOp) Width() int       { return n.L.Width() }
func (n *ValuesNode) Width() int  { return n.Wid }
func (n *RecursiveUnion) Width() int {
	return n.NonRec.Width()
}
func (n *WithNode) Width() int { return n.Child.Width() }
func (n *Loop) Width() int     { return len(n.Out) }

// CTEDef is one planned common table expression.
type CTEDef struct {
	Name      string
	Plan      Node
	Wid       int
	Cols      []string
	Recursive bool
}

// Plan is a complete, bindable query plan. CatalogVersion lets the plan
// cache detect staleness after DDL.
type Plan struct {
	Root           Node
	Cols           []string
	CTEs           []CTEDef
	NumParams      int
	CatalogVersion int64
	// NodeCount is the number of plan operators (instantiation cost proxy,
	// reported by EXPLAIN-style dumps and the benchmark harness).
	NodeCount int
	// InlinedCalls counts UDF call sites whose bodies the binder inlined
	// into this plan; SpecializedCalls counts the subset whose arguments
	// were all constants (the call site is a constant-specialized plan).
	// EXPLAIN and the engine's stats surface report both.
	InlinedCalls     int
	SpecializedCalls int
	// LoopedCTEs counts recursive CTEs lowered to Loop operators.
	LoopedCTEs int
}

// CountNodes walks the plan and records NodeCount.
func (p *Plan) CountNodes() {
	n := 0
	var walk func(Node)
	walk = func(nd Node) {
		if nd == nil {
			return
		}
		n++
		nodeChildren(nd, func(c Node) Node { walk(c); return c })
	}
	walk(p.Root)
	for _, cte := range p.CTEs {
		walk(cte.Plan)
	}
	p.NodeCount = n
}
