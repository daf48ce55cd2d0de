package exec

import (
	"sync/atomic"

	"plsqlaway/internal/plan"
	"plsqlaway/internal/storage"
)

// Executor is the instantiated runtime state of one plan — PostgreSQL's
// QueryDesc/EState. Creating it (Instantiate) is the engine's
// ExecutorStart; pulling rows (Stream) is ExecutorRun; Shutdown is
// ExecutorEnd. A Pool keeps the tree after Shutdown and runs it again for
// the plan's next execution, so a repeated statement pays ExecutorStart
// once.
//
// The node tree underneath is batch-at-a-time (NextBatch), and so is the
// facade: Stream hands each batch to a sink, Run is Stream with the rows
// kept.
type Executor struct {
	Plan *plan.Plan
	root Node
	ctx  *Ctx

	batch int    // the batch size asked for, before the volatile clamp: the pool key
	buf   *Batch // Stream's shuttle batch
}

// Stats accumulates executor counters across executions and sessions —
// the engine's plsql_exec_* metrics. A run adds to them once (its tree when
// it starts, its memo counts at Shutdown), so the hot path touches no
// shared memory.
type Stats struct {
	MemoHits, MemoMisses    atomic.Int64
	TreesBuilt, TreesReused atomic.Int64 // instantiations; runs of a pooled tree
}

// Instantiate builds executor state from a (cached) plan: it allocates the
// executor-node tree, an ExprState per expression and the batches — the
// ExecutorStart work the paper's Figure 3 profiles as f→Qi context-switch
// overhead, and what a Pool saves a repeated plan. The plan itself is only
// read (every piece of runtime state lives in the node tree), so a cached
// plan is shared by all its executions, concurrent ones included, without
// a copy. The executor owns ctx from here on.
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
	if ctx.Stats != nil {
		ctx.Stats.TreesBuilt.Add(1)
	}
	batch := ctx.BatchSize
	// Volatile plans (random(), setseed(), UDF calls) run tuple-at-a-time:
	// batch pipelines evaluate one stage over a whole batch before the next
	// stage runs, which would interleave volatile draws across stages
	// differently than Volcano iteration. Forcing batch size 1 makes the
	// deterministic random() stream exactly match the tuple-at-a-time
	// executor by construction; pure plans keep the configured batch size.
	// The tree keeps the decision for every run it serves.
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
	return &Executor{Plan: p, root: root, ctx: ctx, batch: batch, buf: NewBatch(ctx.BatchSize)}, ana, nil
}

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

// Shutdown ends the run (ExecutorEnd): it closes the node tree, releases
// the CTE spill files and adds the run's memo counts to ctx.Stats. The
// tree stays built — a Pool resets it and runs it again; otherwise it is
// garbage once the caller drops the Executor.
func (e *Executor) Shutdown() {
	e.root.Close(e.ctx)
	e.ctx.releaseStores()
	e.ctx.flushMemos()
}

// reset readies a shut-down tree for another run: every node that held
// data in this one releases it (see holder), so the next run starts from
// the state a fresh instantiation has — and nothing the size of the data
// it read (snapshot rows, hash tables, sorted or aggregated rows, memo
// tables, working sets) stays in memory while the tree waits in a pool.
// The nodes, their expression states, batches and scratch columns stay.
func (e *Executor) reset() {
	c := e.ctx
	for i, h := range c.held {
		h.release()
		c.held[i] = nil
	}
	c.held = c.held[:0]
	clear(c.cteWorking)
}
