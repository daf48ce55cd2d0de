package exec

import "plsqlaway/internal/plan"

// Pool keeps the executor trees of one session's finished runs for the
// next run of the same plan at the same batch size: instantiate once, run
// many. A run that finds an idle tree only patches the holes in its
// context — parameters, snapshot, transaction overlay, random source,
// outer-row stack — and streams it; no operator or expression tree is
// rebuilt. A tree serves one run at a time: Get hands it out and Put takes
// it back, so a recursive call of a plan that is already running gets a
// tree of its own.
//
// What the pool keeps is bounded. It keeps a tree only for a plan that
// already finished a run on this pool — a one-shot statement, a bulk
// INSERT … VALUES, pays nothing and leaves nothing behind — and at most
// poolIdle trees in all. Plans leave the plan cache when the catalog
// changes, and the pool starts over at the first plan built against
// another catalog version; the cache also drops plans when it overflows,
// and the pool starts over once it has seen poolPlans plans. A kept tree
// holds no rows of its last run (see Executor.reset).
//
// A Pool belongs to one session; it is not safe for concurrent use. The
// zero value is ready to use.
type Pool struct {
	plans   map[poolKey][]*Executor // idle trees; a nil entry: one run seen, no tree kept
	idle    int
	catalog int64 // the catalog version every plan in plans was built against
}

type poolKey struct {
	plan  *plan.Plan
	batch int
}

const (
	poolPlans = 256
	poolIdle  = 64
)

// Get returns an executor for p that runs under ctx's settings: a tree
// kept from an earlier run of p at ctx.BatchSize, rebound to ctx, or else
// a fresh instantiation. Either way the executor has a context of its own;
// ctx is only read.
func (pl *Pool) Get(p *plan.Plan, ctx *Ctx) (*Executor, error) {
	if p.CatalogVersion != pl.catalog {
		pl.startOver(p.CatalogVersion)
	}
	k := poolKey{p, ctx.BatchSize}
	if free := pl.plans[k]; len(free) > 0 {
		e := free[len(free)-1]
		free[len(free)-1] = nil
		pl.plans[k] = free[:len(free)-1]
		pl.idle--
		e.ctx.rebind(ctx)
		if ctx.Stats != nil {
			ctx.Stats.TreesReused.Add(1)
		}
		return e, nil
	}
	own := &Ctx{BatchSize: ctx.BatchSize}
	own.rebind(ctx)
	return Instantiate(p, own)
}

// Put ends e's run (Shutdown) and keeps the tree for the plan's next run
// when the run succeeded (ok), the plan has finished a run on this pool
// before, and there is room. A failed run's tree is never kept: its nodes
// may have stopped anywhere.
func (pl *Pool) Put(e *Executor, ok bool) {
	e.Shutdown()
	if !ok || e.Plan.CatalogVersion != pl.catalog {
		return
	}
	k := poolKey{e.Plan, e.batch}
	free, seen := pl.plans[k]
	switch {
	case !seen:
		if len(pl.plans) >= poolPlans || pl.plans == nil {
			pl.startOver(pl.catalog)
		}
		pl.plans[k] = nil
	case pl.idle < poolIdle:
		e.reset()
		pl.plans[k] = append(free, e)
		pl.idle++
	}
}

// startOver forgets every tree and run the pool holds.
func (pl *Pool) startOver(catalog int64) {
	pl.plans = make(map[poolKey][]*Executor)
	pl.idle = 0
	pl.catalog = catalog
}

// Idle reports how many trees the pool holds.
func (pl *Pool) Idle() int { return pl.idle }
