package exec

import (
	"fmt"
	"strings"
	"testing"

	"plsqlaway/internal/plan"
	"plsqlaway/internal/sqltypes"
)

// Plan-expression shorthands for hand-built operators.
func lit(v any) plan.Expr {
	switch x := v.(type) {
	case nil:
		return &plan.Const{Val: sqltypes.Null}
	case bool:
		return &plan.Const{Val: sqltypes.NewBool(x)}
	case int:
		return &plan.Const{Val: sqltypes.NewInt(int64(x))}
	}
	panic(fmt.Sprintf("lit(%T)", v))
}
func in(i int) plan.Expr                      { return &plan.InputRef{Idx: i} }
func outer(d, i int) plan.Expr                { return &plan.OuterRef{Depth: d, Idx: i} }
func bin(op string, l, r plan.Expr) plan.Expr { return &plan.BinOp{Op: op, L: l, R: r} }
func row(fs ...plan.Expr) plan.Expr           { return &plan.RowCtor{Fields: fs} }
func when(c, then, els plan.Expr) plan.Expr {
	return &plan.CaseExpr{Whens: []plan.CaseWhen{{Cond: c, Result: then}}, Else: els}
}

// countdown is the loop `(go, n, acc) = (true, start, 0); while go: n > 0 ?
// (true, n-1, acc+n) : (false, n, acc)`, emitting acc.
func countdown(start plan.Expr) *plan.Loop {
	return &plan.Loop{
		Seed: []plan.Expr{lit(true), start, lit(0)},
		Step: when(bin(">", outer(0, 1), lit(0)),
			row(lit(true), bin("-", outer(0, 1), lit(1)), bin("+", outer(0, 2), outer(0, 1))),
			row(lit(false), outer(0, 1), outer(0, 2))),
		Cont: 0,
		Out:  []plan.Expr{in(2)},
	}
}

func runPlan(t *testing.T, root plan.Node, ctx *Ctx) (string, error) {
	t.Helper()
	ex, err := Instantiate(&plan.Plan{Root: root}, ctx)
	if err != nil {
		t.Fatal(err)
	}
	defer ex.Shutdown()
	rows, err := ex.Run()
	return fmt.Sprint(rows), err
}

func TestLoopRunsAndCountsLikeRecursiveUnion(t *testing.T) {
	n, err := instantiateLoop(countdown(lit(4)))
	if err != nil {
		t.Fatal(err)
	}
	ln := n.(*loopNode)
	ctx := NewCtx()
	if err := ln.Open(ctx); err != nil {
		t.Fatal(err)
	}
	out := NewBatch(8)
	if err := ln.NextBatch(ctx, out); err != nil || out.Len() != 1 || out.Row(0)[0].Int() != 10 {
		t.Fatalf("first pull: %v rows=%d", err, out.Len())
	}
	// 4 steps that continue, one that stops, and the final look at a
	// stopped state: what recursiveUnionNode.step would have counted.
	if ln.iterations != 6 {
		t.Errorf("iterations = %d, want 6", ln.iterations)
	}
	if err := ln.NextBatch(ctx, out); err != nil || out.Len() != 0 {
		t.Errorf("second pull must be end of stream, got %d rows (%v)", out.Len(), err)
	}
	if len(ctx.Outer) != 0 {
		t.Errorf("outer stack not balanced: %d rows left", len(ctx.Outer))
	}
}

func TestLoopRecursionLimit(t *testing.T) {
	forever := &plan.Loop{
		Seed: []plan.Expr{lit(true)},
		Step: row(lit(true)),
		Out:  []plan.Expr{in(0)},
	}
	ctx := NewCtx()
	ctx.MaxRecursion = 10
	_, err := runPlan(t, forever, ctx)
	const want = "exec: recursion limit of 10 iterations exceeded (runaway WITH RECURSIVE?)"
	if err == nil || err.Error() != want {
		t.Errorf("error %v, want %q", err, want)
	}
}

func TestLoopEdgeResults(t *testing.T) {
	cases := []struct {
		name string
		loop *plan.Loop
		want string
	}{
		{"zero iterations: the seed is already final",
			&plan.Loop{Seed: []plan.Expr{lit(false), lit(7)}, Step: row(lit(true), lit(0)), Out: []plan.Expr{in(1)}},
			"[[7]]"},
		{"NULL result is a row holding NULL",
			&plan.Loop{Seed: []plan.Expr{lit(true), lit(nil)}, Step: row(lit(false), outer(0, 1)), Out: []plan.Expr{in(1)}},
			"[[NULL]]"},
		{"a state that stops on NULL yields no row",
			&plan.Loop{Seed: []plan.Expr{lit(true), lit(1)}, Step: row(lit(nil), lit(2)), Out: []plan.Expr{in(1)}},
			"[]"},
		{"a NULL step explodes to an all-NULL state",
			&plan.Loop{Seed: []plan.Expr{lit(true), lit(1)}, Step: lit(nil), Out: []plan.Expr{in(1)}},
			"[]"},
		{"a step with no matching CASE arm is NULL too",
			&plan.Loop{Seed: []plan.Expr{lit(true), lit(1)}, Step: when(lit(false), row(lit(false), lit(2)), nil), Out: []plan.Expr{in(1)}},
			"[]"},
		{"a boxed ROW (not a constructor) is unpacked",
			&plan.Loop{Seed: []plan.Expr{lit(true), lit(1)},
				Step: &plan.Const{Val: sqltypes.NewRow([]sqltypes.Value{sqltypes.NewBool(false), sqltypes.NewInt(9)})},
				Out:  []plan.Expr{in(1)}},
			"[[9]]"},
		{"extra ROW fields are evaluated and dropped",
			&plan.Loop{Seed: []plan.Expr{lit(true), lit(1)}, Step: row(lit(false), lit(3), lit(4)), Out: []plan.Expr{in(1)}},
			"[[3]]"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			got, err := runPlan(t, c.loop, NewCtx())
			if err != nil || got != c.want {
				t.Errorf("rows %s (%v), want %s", got, err, c.want)
			}
		})
	}
	short := &plan.Loop{Seed: []plan.Expr{lit(true), lit(1)}, Step: row(lit(false)), Out: []plan.Expr{in(1)}}
	if _, err := runPlan(t, short, NewCtx()); err == nil || !strings.Contains(err.Error(), "field f2 out of range for 1-field row") {
		t.Errorf("a ROW shorter than the state must fail like (row).f2 does, got %v", err)
	}
}

// TestLoopRescanUnderOuterRow is the correlated `SELECT f(x) FROM t` case:
// the loop sits under an Apply, is rescanned per outer row, and its seed
// reads that row.
func TestLoopRescanUnderOuterRow(t *testing.T) {
	args := &plan.ValuesNode{Wid: 1, Rows: [][]plan.Expr{{lit(3)}, {lit(0)}, {lit(5)}}}
	root := &plan.Apply{Child: args, Sub: countdown(outer(0, 0))}
	for _, size := range []int{1, 2, DefaultBatchSize} {
		ctx := NewCtx()
		ctx.BatchSize = size
		got, err := runPlan(t, root, ctx)
		if err != nil || got != "[[3 6] [0 0] [5 15]]" {
			t.Errorf("batch %d: rows %s (%v)", size, got, err)
		}
	}
}

func TestLoopAnalyzeReportsIterations(t *testing.T) {
	args := &plan.ValuesNode{Wid: 1, Rows: [][]plan.Expr{{lit(3)}, {lit(1)}}}
	p := &plan.Plan{Root: &plan.Apply{Child: args, Sub: countdown(outer(0, 0))}}
	ex, ana, err := InstantiateAnalyzed(p, NewCtx())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ex.Run(); err != nil {
		t.Fatal(err)
	}
	ex.Shutdown()
	lines := strings.Join(ana.Lines(), "\n")
	// 5 iterations for n=3, 3 for n=1, summed over the two rescans.
	if !strings.Contains(lines, "Loop (iterations=8)  (actual rows=2 batches=2 time=") {
		t.Errorf("ANALYZE output:\n%s", lines)
	}
}

// evalLet instantiates e and evaluates it once over input.
func evalLet(t *testing.T, ctx *Ctx, e plan.Expr, input ...sqltypes.Value) (sqltypes.Value, error) {
	t.Helper()
	es, err := InstantiateExpr(e)
	if err != nil {
		t.Fatal(err)
	}
	v, err := es.Eval(ctx, input)
	if len(ctx.Outer) != 0 {
		t.Errorf("outer stack not balanced after Let: %d rows left", len(ctx.Outer))
	}
	return v, err
}

func TestLetSlotEvaluatedOnce(t *testing.T) {
	random := &plan.FuncExpr{Name: "random"}
	let := &plan.LetExpr{Slots: []plan.Expr{random, random}, Body: row(in(0), in(0), in(1), in(1))}
	ctx := NewCtx()
	ctx.Rand = NewRand(5)
	v, err := evalLet(t, ctx, let)
	if err != nil {
		t.Fatal(err)
	}
	ref := NewRand(5)
	first, second := ref.Float64(), ref.Float64()
	f := v.Row()
	if f[0].Float() != first || f[1].Float() != first || f[2].Float() != second || f[3].Float() != second {
		t.Errorf("slots %v: want two draws, in order, each read twice (%v, %v)", v, first, second)
	}
	if ctx.Rand.Next() != ref.Next() {
		t.Error("the let drew more or fewer than two random numbers")
	}
}

func TestLetIsLazyUnderCase(t *testing.T) {
	boom := &plan.LetExpr{Slots: []plan.Expr{bin("/", lit(1), lit(0))}, Body: in(0)}
	// A slot reads the let's input row as outer row 0: the let pushed it.
	ok := &plan.LetExpr{Slots: []plan.Expr{bin("+", outer(0, 0), lit(1))}, Body: in(0)}
	v, err := evalLet(t, NewCtx(), when(bin("<", in(0), lit(0)), boom, ok), sqltypes.NewInt(41))
	if err != nil || v.Int() != 42 {
		t.Errorf("untaken arm ran its slots? value %v, error %v", v, err)
	}
	if _, err := evalLet(t, NewCtx(), when(bin(">", in(0), lit(0)), boom, ok), sqltypes.NewInt(41)); err == nil {
		t.Error("the taken arm's slot must evaluate (and here divide by zero)")
	}
}

// TestLetNestedShadowing: an inner let's slot 0 shadows the outer let's
// slot 0 as input column 0 while the outer one stays reachable one row
// up — positional scoping, no names to capture.
func TestLetNestedShadowing(t *testing.T) {
	inner := &plan.LetExpr{
		Slots: []plan.Expr{
			bin("+", outer(0, 0), lit(1)),                             // outer slot + 1 = 11
			bin("+", bin("*", outer(0, 0), lit(2)), outer(1, 0)),      // 11*2 + 10 = 32
			bin("+", bin("+", outer(0, 0), outer(0, 1)), outer(2, 0)), // 11 + 32 + input 100
		},
		Body: row(in(0), in(1), in(2), outer(0, 0)),
	}
	let := &plan.LetExpr{Slots: []plan.Expr{lit(10)}, Body: inner}
	v, err := evalLet(t, NewCtx(), let, sqltypes.NewInt(100))
	if err != nil {
		t.Fatal(err)
	}
	if got := fmt.Sprint(v); got != "(11,32,143,10)" {
		t.Errorf("nested let = %s, want (11,32,143,10)", got)
	}
}

// TestLetInBatchEvaluation: a let is impure (it pushes its row), so batch
// evaluation must take the row-at-a-time path and see each row.
func TestLetInBatchEvaluation(t *testing.T) {
	let := &plan.LetExpr{Slots: []plan.Expr{bin("*", outer(0, 0), lit(2))}, Body: bin("+", in(0), outer(0, 0))}
	rows := &plan.ValuesNode{Wid: 1, Rows: [][]plan.Expr{{lit(1)}, {lit(2)}, {lit(3)}}}
	got, err := runPlan(t, &plan.Project{Child: rows, Exprs: []plan.Expr{let}}, NewCtx())
	if err != nil || got != "[[3] [6] [9]]" {
		t.Errorf("rows %s (%v)", got, err)
	}
}
