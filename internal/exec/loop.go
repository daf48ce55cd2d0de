package exec

import (
	"fmt"
	"time"

	"plsqlaway/internal/plan"
	"plsqlaway/internal/sqltypes"
	"plsqlaway/internal/storage"
)

// loopNode runs a plan.Loop: a compiled function's trampoline as an
// actual loop over one state row. The state lives in two value buffers
// swapped per iteration — the step reads the current one as outer row 0
// and writes the fields of its ROW result straight into the other — so an
// iteration allocates nothing of its own and no iteration is kept: the
// paper's WITH ITERATE saving (Table 2), with no tuplestore behind it.
//
// The whole loop runs in Open/Rescan, where the WithNode it replaces
// materialised the CTE, so volatile steps draw at the same point of the
// statement as on the generic plan. Limit, error text and iteration
// accounting are recursiveUnionNode's: one count per evaluation of the
// recursive term, the last, empty one included.
type loopNode struct {
	seed []*ExprState
	step *ExprState
	cont int
	out  []*ExprState

	cur, next  storage.Tuple
	result     storage.Tuple // the row to emit; nil once emitted or when there is none
	iterations int
	stats      *NodeStats // EXPLAIN ANALYZE only
}

func instantiateLoop(x *plan.Loop) (Node, error) {
	seed, err := instantiateAll(x.Seed...)
	if err != nil {
		return nil, err
	}
	step, err := instantiateExpr(x.Step)
	if err != nil {
		return nil, err
	}
	out, err := instantiateAll(x.Out...)
	if err != nil {
		return nil, err
	}
	state := make(storage.Tuple, 2*len(seed))
	return &loopNode{
		seed: seed, step: step, cont: x.Cont, out: out,
		cur: state[:len(seed):len(seed)], next: state[len(seed):],
	}, nil
}

func (n *loopNode) Open(ctx *Ctx) error  { return n.Rescan(ctx) }
func (n *loopNode) Close(ctx *Ctx) error { return nil }
func (n *loopNode) Rescan(ctx *Ctx) error {
	if n.stats == nil {
		return n.run(ctx)
	}
	start := time.Now()
	err := n.run(ctx)
	n.stats.Time += time.Since(start)
	n.stats.Iterations += int64(n.iterations)
	return err
}

func (n *loopNode) run(ctx *Ctx) error {
	n.result = nil
	n.iterations = 0
	for i, e := range n.seed {
		v, err := e.Eval(ctx, noRow)
		if err != nil {
			return err
		}
		n.cur[i] = v
	}
	for {
		n.iterations++
		if n.iterations > ctx.MaxRecursion {
			return fmt.Errorf("exec: recursion limit of %d iterations exceeded (runaway WITH RECURSIVE?)", ctx.MaxRecursion)
		}
		if !n.cur[n.cont].IsTrue() {
			break
		}
		ctx.pushOuter(n.cur)
		err := n.step.evalRowInto(ctx, noRow, n.next)
		ctx.popOuter()
		if err != nil {
			return err
		}
		n.cur, n.next = n.next, n.cur
	}
	// The consumer's `WHERE NOT cont`: a state that stopped on NULL is
	// neither continuing nor final and yields no row.
	final, err := sqltypes.Not(n.cur[n.cont])
	if err != nil || !final.IsTrue() {
		return err
	}
	row := make(storage.Tuple, len(n.out)) // fresh: consumers may keep it
	for i, e := range n.out {
		if row[i], err = e.Eval(ctx, n.cur); err != nil {
			return err
		}
	}
	n.result = row
	return nil
}

func (n *loopNode) NextBatch(ctx *Ctx, out *Batch) error {
	out.begin()
	if n.result != nil {
		out.Add(n.result)
		n.result = nil
	}
	return nil
}
