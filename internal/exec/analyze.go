package exec

import (
	"fmt"
	"time"

	"plsqlaway/internal/plan"
)

// NodeStats accumulates the per-operator actuals EXPLAIN ANALYZE renders.
// One instance per plan node, written single-threaded by the executor's
// pull loop — no atomics needed.
type NodeStats struct {
	Calls      int64         // NextBatch invocations, the EOF pull included
	Batches    int64         // batches that carried rows (EOF pulls excluded)
	Rows       int64         // rows emitted across all batches
	BuildRows  int64         // hash-join build-side rows hashed (0 elsewhere)
	Iterations int64         // Loop iterations over all (re)scans (0 elsewhere)
	Time       time.Duration // cumulative wall time inside NextBatch (Loop: and Open/Rescan), children included
}

// Analyzer correlates an instantiated node tree back to the plan tree it
// came from: each plan node is instantiated once per execution, so its
// identity is a stable key for the whole execution; after the run, Lines
// renders the plan through plan.ExplainAnnotated with each node's actuals
// appended. Memo operators live inside subplans, which are not wrapped;
// their hit counts come from the run's list of nodes that held data.
type Analyzer struct {
	plan  *plan.Plan
	ctx   *Ctx
	stats map[plan.Node]*NodeStats
}

func newAnalyzer(p *plan.Plan, ctx *Ctx) *Analyzer {
	return &Analyzer{plan: p, ctx: ctx, stats: make(map[plan.Node]*NodeStats)}
}

func (a *Analyzer) statsFor(p plan.Node) *NodeStats {
	st := a.stats[p]
	if st == nil {
		st = &NodeStats{}
		a.stats[p] = st
	}
	return st
}

// wrap interposes the timing shim over a freshly built node. Hash joins
// additionally get the stats handle pushed down so build() can report the
// rows it hashed (build happens inside the first NextBatch, invisible to
// the wrapper's own counters), and so do loops, which do their work — and
// count their iterations — in Open/Rescan.
func (a *Analyzer) wrap(p plan.Node, n Node) Node {
	st := a.statsFor(p)
	switch x := n.(type) {
	case *hashJoinNode:
		x.stats = st
	case *loopNode:
		x.stats = st
	}
	return &analyzedNode{inner: n, st: st}
}

// Lines renders the executed plan tree with actuals. Call after the
// executor finished (or was shut down); stats survive Shutdown.
func (a *Analyzer) Lines() []string {
	return a.plan.ExplainAnnotated(a.annotate)
}

// annotate renders one node's suffix: rows out, batch count, build-side
// rows for hash joins, input rows for filters (survival rate = rows/in),
// and inclusive wall time last so goldens can regex it away.
func (a *Analyzer) annotate(p plan.Node) string {
	if m, ok := p.(*plan.Memo); ok {
		return a.memoActuals(m)
	}
	st := a.stats[p]
	if st == nil {
		return ""
	}
	if st.Calls == 0 {
		return "  (never executed)"
	}
	s := ""
	if _, ok := p.(*plan.Loop); ok {
		s = fmt.Sprintf(" (iterations=%d)", st.Iterations)
	}
	s += fmt.Sprintf("  (actual rows=%d batches=%d", st.Rows, st.Batches)
	if st.BuildRows > 0 {
		s += fmt.Sprintf(" build=%d", st.BuildRows)
	}
	if f, ok := p.(*plan.Filter); ok {
		if cst := a.stats[f.Child]; cst != nil {
			s += fmt.Sprintf(" in=%d", cst.Rows)
		}
	}
	return s + fmt.Sprintf(" time=%s)", st.Time.Round(time.Microsecond))
}

// memoActuals renders a memo's hits and misses over the execution.
func (a *Analyzer) memoActuals(p *plan.Memo) string {
	var hits, misses int64
	seen := false
	for _, h := range a.ctx.held {
		if m, ok := h.(*memoNode); ok && m.src == p {
			hits, misses, seen = hits+m.hits, misses+m.misses, true
		}
	}
	if !seen {
		return "  (never executed)"
	}
	return fmt.Sprintf("  (memo hits=%d misses=%d)", hits, misses)
}

// analyzedNode is the per-node instrumentation shim: it times NextBatch
// inclusively (children pull inside the call, PostgreSQL-style) and counts
// batches and rows. It exists only under EXPLAIN ANALYZE — plain
// instantiation never allocates one, so the normal path pays nothing.
type analyzedNode struct {
	inner Node
	st    *NodeStats
}

func (n *analyzedNode) Open(ctx *Ctx) error   { return n.inner.Open(ctx) }
func (n *analyzedNode) Rescan(ctx *Ctx) error { return n.inner.Rescan(ctx) }
func (n *analyzedNode) Close(ctx *Ctx) error  { return n.inner.Close(ctx) }

func (n *analyzedNode) NextBatch(ctx *Ctx, out *Batch) error {
	start := time.Now()
	err := n.inner.NextBatch(ctx, out)
	n.st.Time += time.Since(start)
	n.st.Calls++
	if m := out.Len(); m > 0 {
		n.st.Batches++
		n.st.Rows += int64(m)
	}
	return err
}

// instantiateNode builds the runtime tree for a plan node, interposing the
// ANALYZE shim when an analyzer rides along (nil on the normal path).
func instantiateNode(p plan.Node, ana *Analyzer) (Node, error) {
	n, err := instantiateNodeRaw(p, ana)
	if err != nil || ana == nil {
		return n, err
	}
	return ana.wrap(p, n), nil
}
