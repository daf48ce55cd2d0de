package exec

import (
	"plsqlaway/internal/plan"
	"plsqlaway/internal/storage"
)

// Executor is the instantiated runtime state of one plan — PostgreSQL's
// QueryDesc/EState. Creating it (Instantiate) is the engine's
// ExecutorStart; pulling rows (Stream) is ExecutorRun; Shutdown is
// ExecutorEnd.
//
// The node tree underneath is batch-at-a-time (NextBatch), and so is the
// facade: Stream hands each batch to a sink, Run is Stream with the rows
// kept.
type Executor struct {
	Plan *plan.Plan
	root Node
	ctx  *Ctx

	buf *Batch // Stream's shuttle batch
}

// Instantiate builds executor state from a (cached) plan: it allocates the
// executor-node tree — the per-call work the paper's Figure 3 profiles as
// f→Qi context-switch overhead. The plan itself is only read (every piece
// of runtime state lives in the node tree), so a cached plan is shared by
// all its executions, concurrent ones included, without a copy.
func Instantiate(p *plan.Plan, ctx *Ctx) (*Executor, error) {
	e, _, err := instantiate(p, ctx, false)
	return e, err
}

// InstantiateAnalyzed is Instantiate with per-node instrumentation: every
// runtime node is wrapped in a timing/counting shim keyed back to the plan
// tree, and the returned Analyzer renders EXPLAIN ANALYZE lines after the
// run. Execution semantics are identical — same volatile clamp, same draw
// order — except the Project-over-HashJoin fusion is skipped so the node
// tree stays 1:1 with the rendered plan.
func InstantiateAnalyzed(p *plan.Plan, ctx *Ctx) (*Executor, *Analyzer, error) {
	return instantiate(p, ctx, true)
}

func instantiate(p *plan.Plan, ctx *Ctx, analyze bool) (*Executor, *Analyzer, error) {
	// Volatile plans (random(), setseed(), UDF calls) run tuple-at-a-time:
	// batch pipelines evaluate one stage over a whole batch before the next
	// stage runs, which would interleave volatile draws across stages
	// differently than Volcano iteration. Forcing batch size 1 makes the
	// deterministic random() stream exactly match the tuple-at-a-time
	// executor by construction; pure plans keep the configured batch size.
	if ctx.BatchSize > 1 && p.HasVolatile() {
		ctx.BatchSize = 1
	}
	var ana *Analyzer
	if analyze {
		ana = newAnalyzer(p, ctx)
	}
	root, err := instantiateNode(p.Root, ana)
	if err != nil {
		return nil, nil, err
	}
	defs := make([]Node, len(p.CTEs))
	for i, cte := range p.CTEs {
		if cte.Plan == nil {
			continue
		}
		defs[i], err = instantiateNode(cte.Plan, ana)
		if err != nil {
			return nil, nil, err
		}
	}
	ctx.cteDefs = defs
	if len(ctx.cteStores) < len(p.CTEs) {
		ctx.cteStores = make([]*storage.TupleStore, len(p.CTEs))
		ctx.cteWorking = make([]*rowSet, len(p.CTEs))
	}
	return &Executor{Plan: p, root: root, ctx: ctx, buf: NewBatch(ctx.BatchSize)}, ana, nil
}

// Ctx exposes the execution context (the engine wires hooks through it).
func (e *Executor) Ctx() *Ctx { return e.ctx }

// Run streams the plan to completion, keeping every row.
func (e *Executor) Run() ([]storage.Tuple, error) {
	var out []storage.Tuple
	err := e.Stream(func(b *Batch) error {
		out = append(out, b.Rows()...)
		return nil
	})
	return out, err
}

// Stream opens the plan and hands each non-empty batch to fn. The batch
// is valid only for the duration of the call (the next pull reuses it);
// fn copies out whatever it keeps. Rows never accumulate executor-side,
// so a wide scan's peak memory is one batch, not the result set.
func (e *Executor) Stream(fn func(*Batch) error) error {
	if err := e.root.Open(e.ctx); err != nil {
		return err
	}
	for {
		if err := e.root.NextBatch(e.ctx, e.buf); err != nil {
			return err
		}
		if e.buf.Len() == 0 {
			return nil
		}
		if err := fn(e.buf); err != nil {
			return err
		}
	}
}

// Shutdown closes the node tree, releases CTE spill files, and tears down
// the executor state tree (ExecutorEnd: PostgreSQL frees the per-query
// memory context here — we walk the tree releasing references so the
// garbage collector can reclaim it immediately).
func (e *Executor) Shutdown() {
	e.root.Close(e.ctx)
	e.ctx.releaseStores()
	e.ctx.flushMemos()
	teardown(e.root)
	for _, d := range e.ctx.cteDefs {
		if d != nil {
			teardown(d)
		}
	}
	e.root = nil
	e.buf = nil
	e.ctx.cteDefs = nil
}

// teardown recursively clears node state.
func teardown(n Node) {
	switch x := n.(type) {
	case *analyzedNode:
		teardown(x.inner)
		x.inner = nil
	case *filterNode:
		teardown(x.child)
		x.child, x.pred, x.in, x.sel = nil, nil, nil, nil
		x.fsel, x.fcols, x.fptrs = nil, nil, nil
	case *projectNode:
		teardown(x.child)
		x.child, x.exprs, x.in, x.cols = nil, nil, nil, nil
		x.pcols = nil
	case *nestLoopNode:
		teardown(x.left)
		teardown(x.right)
		x.left, x.right, x.on, x.curLeft, x.in, x.rin = nil, nil, nil, nil, nil, nil
	case *hashJoinNode:
		teardown(x.left)
		teardown(x.right)
		x.table.reset()
		x.left, x.right, x.residual, x.leftKeys, x.rightKeys = nil, nil, nil, nil, nil
		x.in, x.keyCols, x.keyRow, x.cand, x.curLeft = nil, nil, nil, nil, nil
		x.slab, x.arena = nil, nil
		x.keyCol, x.leftSrc, x.colCand, x.outCols, x.outPtrs = nil, nil, nil, nil, nil
	case *hashJoinProjectNode:
		teardown(x.join)
		x.join, x.exprs, x.mid, x.cols = nil, nil, nil, nil
		x.pcols = nil
	case *applyNode:
		teardown(x.child)
		teardown(x.sub)
		x.child, x.sub, x.in, x.subIter = nil, nil, nil, nil
	case *materializeNode:
		teardown(x.child)
		x.child, x.rows = nil, nil
	case *aggNode:
		teardown(x.child)
		x.child, x.out, x.groups, x.specs = nil, nil, nil, nil
		x.evalList, x.argPos, x.evalCols, x.argCols = nil, nil, nil, nil
	case *windowNode:
		teardown(x.child)
		x.child, x.out, x.funcs = nil, nil, nil
	case *sortNode:
		teardown(x.child)
		x.child, x.rows, x.keys, x.kexp, x.kcols = nil, nil, nil, nil, nil
	case *limitNode:
		teardown(x.child)
		x.child, x.limit, x.offset, x.in = nil, nil, nil, nil
	case *distinctNode:
		teardown(x.child)
		x.child, x.seen, x.in = nil, nil, nil
	case *appendNode:
		for i, c := range x.children {
			teardown(c)
			x.children[i] = nil
		}
	case *setOpNode:
		teardown(x.left)
		teardown(x.right)
		x.left, x.right, x.out = nil, nil, nil
	case *valuesNode:
		x.rows = nil
	case *recursiveUnionNode:
		teardown(x.nonRec)
		teardown(x.rec)
		x.nonRec, x.rec, x.batch, x.working, x.seen, x.shuttle = nil, nil, nil, nil, nil, nil
	case *withNode:
		teardown(x.child)
		x.child = nil
	case *seqScanNode:
		x.scan = nil
	case *indexScanNode:
		x.rows, x.hits, x.key = nil, nil, nil
	case *cteScanNode:
		x.iter, x.set, x.buf = nil, nil, nil
	case *resultNode:
		x.exprs = nil
	case *loopNode:
		x.seed, x.step, x.out = nil, nil, nil
		x.cur, x.next, x.result = nil, nil, nil
	case *memoNode:
		teardown(x.child)
		x.child, x.slots, x.entries, x.keyBytes, x.rows, x.probe = nil, nil, nil, nil, nil, nil
	}
}
