package exec

import (
	"math"
	"slices"
	"testing"

	"plsqlaway/internal/catalog"
	"plsqlaway/internal/plan"
	"plsqlaway/internal/sqlparser"
	"plsqlaway/internal/sqltypes"
	"plsqlaway/internal/storage"
)

func TestBatchLimitAndFill(t *testing.T) {
	b := NewBatch(3)
	if b.Cap() != 3 || b.Len() != 0 || b.Full() {
		t.Fatalf("fresh batch: cap=%d len=%d full=%v", b.Cap(), b.Len(), b.Full())
	}
	for i := 0; i < 3; i++ {
		b.Add(storage.Tuple{sqltypes.NewInt(int64(i))})
	}
	if !b.Full() || b.Len() != 3 {
		t.Fatalf("filled batch: len=%d full=%v", b.Len(), b.Full())
	}
	if b.Row(2)[0].Int() != 2 {
		t.Errorf("Row(2) = %v", b.Row(2))
	}
	b.SetLimit(1)
	if !b.Full() {
		t.Error("shrinking the limit below len must report full")
	}
	b.begin()
	if b.Len() != 0 || b.Cap() != 1 {
		t.Errorf("begin: len=%d cap=%d", b.Len(), b.Cap())
	}
	b.SetLimit(0)
	if b.Cap() != 1 {
		t.Errorf("SetLimit clamps to ≥ 1, got %d", b.Cap())
	}
}

// countingNode emits total single-int rows, recording the largest batch
// limit it was asked for.
type countingNode struct {
	total    int
	pos      int
	maxLimit int
}

func (n *countingNode) Open(ctx *Ctx) error   { n.pos = 0; return nil }
func (n *countingNode) Rescan(ctx *Ctx) error { n.pos = 0; return nil }
func (n *countingNode) Close(ctx *Ctx) error  { return nil }
func (n *countingNode) NextBatch(ctx *Ctx, out *Batch) error {
	out.begin()
	if out.Cap() > n.maxLimit {
		n.maxLimit = out.Cap()
	}
	for !out.Full() && n.pos < n.total {
		out.Add(storage.Tuple{sqltypes.NewInt(int64(n.pos))})
		n.pos++
	}
	return nil
}

func TestRowIterBoundsPulls(t *testing.T) {
	ctx := NewCtx()
	src := &countingNode{total: 5}
	it := newRowIter(src, 2)
	if err := src.Open(ctx); err != nil {
		t.Fatal(err)
	}
	var got []int64
	for {
		row, err := it.next(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if row == nil {
			break
		}
		got = append(got, row[0].Int())
	}
	if len(got) != 5 {
		t.Fatalf("rowIter drained %d rows, want 5", len(got))
	}
	for i, v := range got {
		if v != int64(i) {
			t.Fatalf("row %d = %d", i, v)
		}
	}
	if src.maxLimit != 2 {
		t.Errorf("rowIter pulled batches of %d, want its limit 2", src.maxLimit)
	}
	// Further pulls at EOF stay nil.
	if row, _ := it.next(ctx); row != nil {
		t.Error("post-EOF next must stay nil")
	}
}

func TestDrainNodeVisitsEveryRow(t *testing.T) {
	ctx := NewCtx()
	src := &countingNode{total: 10}
	if err := src.Open(ctx); err != nil {
		t.Fatal(err)
	}
	b := NewBatch(3)
	var sum int64
	if err := drainNode(ctx, src, b, func(tu storage.Tuple) error {
		sum += tu[0].Int()
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if sum != 45 {
		t.Errorf("drain sum = %d, want 45", sum)
	}
}

func TestTupleSetIntFastPathMatchesEncodedPath(t *testing.T) {
	s := newTupleSet()
	if !s.add(storage.Tuple{sqltypes.NewInt(3)}) {
		t.Fatal("first insert must be new")
	}
	// Float 3.0 normalizes onto the same int — tupleKey semantics.
	if s.add(storage.Tuple{sqltypes.NewFloat(3)}) {
		t.Error("3.0 must collide with 3 (Identical semantics)")
	}
	if s.add(storage.Tuple{sqltypes.NewInt(3)}) {
		t.Error("re-insert must report duplicate")
	}
	if !s.add(storage.Tuple{sqltypes.NewFloat(3.5)}) {
		t.Error("3.5 is distinct from 3")
	}
	if !s.add(storage.Tuple{sqltypes.Null}) {
		t.Error("NULL singleton tuple is its own key")
	}
	if s.add(storage.Tuple{sqltypes.Null}) {
		t.Error("NULL must dedup against NULL (tupleKey semantics)")
	}
	// Wider tuples take the encoded path.
	two := storage.Tuple{sqltypes.NewInt(1), sqltypes.NewInt(2)}
	if !s.add(two) || s.add(two) {
		t.Error("two-column tuples must dedup through the encoded path")
	}
	// Coord and its row twin are Identical and must collide.
	if !s.add(storage.Tuple{sqltypes.NewCoord(1, 2)}) {
		t.Fatal("coord insert")
	}
	if s.add(storage.Tuple{sqltypes.NewRow([]sqltypes.Value{sqltypes.NewInt(1), sqltypes.NewInt(2)})}) {
		t.Error("coord(1,2) and row(1,2) are Identical and must collide")
	}
}

func TestRowTableIntAndEncodedPartitionsAgree(t *testing.T) {
	r1 := storage.Tuple{sqltypes.NewText("r1")}
	r2 := storage.Tuple{sqltypes.NewText("r2")}
	mustProbe := func(rt *rowTable, keys ...sqltypes.Value) []storage.Tuple {
		t.Helper()
		got, err := rt.probe(keys)
		if err != nil {
			t.Fatalf("probe(%v): %v", keys, err)
		}
		return got
	}

	var rt rowTable
	rt.insert([]sqltypes.Value{sqltypes.NewInt(7)}, r1)
	rt.insert([]sqltypes.Value{sqltypes.NewFloat(7)}, r2)
	if got := mustProbe(&rt, sqltypes.NewFloat(7.0)); len(got) != 2 {
		t.Errorf("numeric-normalized probe found %d rows, want 2", len(got))
	}
	// Large numerics: int 2^53+1 and float 2^53 share a bucket (Compare
	// calls them equal via the float image); exactness tracking reports it.
	rt.insert([]sqltypes.Value{sqltypes.NewInt(1<<53 + 1)}, r1)
	if got := mustProbe(&rt, sqltypes.NewFloat(1<<53)); len(got) != 1 {
		t.Errorf("2^53 float probe found %d rows, want the 2^53+1 int bucket-mate", len(got))
	}
	if rt.exact() {
		t.Error("table with a >=2^53 int key must not report exact buckets")
	}
	// NULL keys neither build nor probe.
	rt.insert([]sqltypes.Value{sqltypes.Null}, r1)
	if got := mustProbe(&rt, sqltypes.Null); got != nil {
		t.Errorf("NULL probe must find nothing, got %d rows", len(got))
	}
	// Probing with a kind the build keys cannot be compared with errors,
	// exactly as the nest-loop plan errored on such a pair.
	if _, err := rt.probe([]sqltypes.Value{sqltypes.NewText("seven")}); err == nil {
		t.Error("text probe against numeric build keys must error like Compare")
	}

	// Text keys take the encoded path.
	var rs rowTable
	rs.insert([]sqltypes.Value{sqltypes.NewText("k")}, r2)
	if got := mustProbe(&rs, sqltypes.NewText("k")); len(got) != 1 {
		t.Errorf("text probe found %d rows, want 1", len(got))
	}
	if got := mustProbe(&rs, sqltypes.NewText("absent")); got != nil {
		t.Errorf("absent probe must find nothing")
	}
	if !rs.exact() {
		t.Error("pure text keys are exact buckets")
	}

	// Multi-column keys.
	var rm rowTable
	rm.insert([]sqltypes.Value{sqltypes.NewInt(1), sqltypes.NewInt(2)}, r1)
	if got := mustProbe(&rm, sqltypes.NewInt(1), sqltypes.NewInt(2)); len(got) != 1 {
		t.Errorf("multi-column probe found %d rows, want 1", len(got))
	}
	if got := mustProbe(&rm, sqltypes.NewInt(1), sqltypes.NewInt(3)); got != nil {
		t.Errorf("multi-column mismatch must find nothing")
	}
}

// evalBatchRows are the rows of t(a int, b int, x float, y float, s text,
// u text, p bool) that TestEvalBatchPureMatchesEval evaluates over: int64
// extremes, zero divisors, signed zeros, empty text and NULLs.
var evalBatchRows = []storage.Tuple{
	evalRow(7, 2, 1.5, -2.5, "abc", "abd", true),
	evalRow(int64(math.MaxInt64), 1, math.Copysign(0, -1), 0.0, "", "b", false),
	evalRow(int64(math.MinInt64), -1, 0.0, math.Copysign(0, -1), "z", "", true),
	evalRow(5, 0, 2.0, 0.0, "10", "x", nil),
	evalRow(nil, nil, nil, nil, nil, nil, nil),
	evalRow(-3, nil, nil, 3.0, nil, "q", false),
	evalRow(3, 3, 3.0, 3.5, "3", "3", true),
	evalRow(0, -4, -1e300, 1e300, "a", "A", nil),
}

// evalRow builds one row of t; a nil argument is NULL.
func evalRow(vals ...any) storage.Tuple {
	t := make(storage.Tuple, len(vals))
	for i, v := range vals {
		switch v := v.(type) {
		case nil:
			t[i] = sqltypes.Null
		case int:
			t[i] = sqltypes.NewInt(int64(v))
		case int64:
			t[i] = sqltypes.NewInt(v)
		case float64:
			t[i] = sqltypes.NewFloat(v)
		case string:
			t[i] = sqltypes.NewText(v)
		case bool:
			t[i] = sqltypes.NewBool(v)
		}
	}
	return t
}

// sameValue is strict identity: the same kind, and floats bit for bit
// (so -0.0 and 0.0 differ, as do 1 and 1.0).
func sameValue(a, b sqltypes.Value) bool {
	if a.Kind() != b.Kind() {
		return false
	}
	if a.Kind() == sqltypes.KindFloat {
		return math.Float64bits(a.Float()) == math.Float64bits(b.Float())
	}
	return sqltypes.Identical(a, b)
}

// errText renders an error for comparison ("" for none).
func errText(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// TestEvalBatchPureMatchesEval holds EvalBatch, the executor's batch
// evaluator, to Eval, its per-row reference, across the kernels: per row,
// a one-row EvalBatch must give Eval's value (strictly: kind and float
// bits) or Eval's error text; over the whole batch, EvalBatch must give
// every row's value when no row errs, and one of the rows' errors when
// some row does.
func TestEvalBatchPureMatchesEval(t *testing.T) {
	cat := catalog.New(&storage.Stats{})
	if _, err := cat.CreateTable("t", []catalog.Column{
		{Name: "a", Type: sqltypes.TypeInt}, {Name: "b", Type: sqltypes.TypeInt},
		{Name: "x", Type: sqltypes.TypeFloat}, {Name: "y", Type: sqltypes.TypeFloat},
		{Name: "s", Type: sqltypes.TypeText}, {Name: "u", Type: sqltypes.TypeText},
		{Name: "p", Type: sqltypes.TypeBool},
	}, false); err != nil {
		t.Fatal(err)
	}
	exprs := []string{
		// int64 arithmetic and its overflow.
		"a + b", "a - b", "a * b", "-a", "-(-9223372036854775808)", "(a + 2) * 3 >= 12",
		// Division and modulo by zero.
		"a / b", "a % b", "x / y",
		// Signed zeros.
		"x = y", "x < y", "-x", "x * -1.0",
		// Mixed int/float arithmetic and comparison.
		"a + x", "a * y", "x - a", "a = x", "a < y", "b >= x",
		// Text comparison and concatenation, NULL included.
		"s < u", "s = u", "s || u", "s || NULL",
		// Guards: AND and OR short-circuit past a division by zero.
		"b <> 0 AND a / b > 0", "b = 0 OR a / b > 0", "p AND a > 0", "p OR b IS NULL",
		// BETWEEN, IS [NOT] NULL, IN, casts, unary minus, CASE.
		"a BETWEEN b AND 10", "x NOT BETWEEN -1.0 AND 1.0", "a IS NULL", "s IS NOT NULL",
		"CAST(a AS float)", "CAST(x AS int)", "CAST(s AS int)", "-(a - b)",
		"CASE WHEN b = 0 THEN 0 ELSE a / b END",
	}
	ctx := NewCtx()
	for _, src := range exprs {
		t.Run(src, func(t *testing.T) {
			q, err := sqlparser.ParseQuery("SELECT " + src + " FROM t")
			if err != nil {
				t.Fatal(err)
			}
			p, err := plan.Build(cat, q, plan.Options{})
			if err != nil {
				t.Fatal(err)
			}
			proj, ok := p.Root.(*plan.Project)
			if !ok {
				t.Fatalf("plan root is %T, want a Project", p.Root)
			}
			es, err := instantiateExpr(proj.Exprs[0])
			if err != nil {
				t.Fatal(err)
			}
			if !es.pure {
				t.Fatal("expression is not pure")
			}
			want := make([]sqltypes.Value, len(evalBatchRows))
			var rowErrs []string
			one := make([]sqltypes.Value, 1)
			for i, r := range evalBatchRows {
				v, err := es.Eval(ctx, r)
				berr := es.EvalBatch(ctx, evalBatchRows[i:i+1], one)
				if errText(err) != errText(berr) {
					t.Errorf("row %d: Eval error %q, EvalBatch error %q", i, errText(err), errText(berr))
					continue
				}
				if err != nil {
					rowErrs = append(rowErrs, err.Error())
					continue
				}
				if !sameValue(v, one[0]) {
					t.Errorf("row %d: Eval %v (%s), EvalBatch %v (%s)", i, v, v.Kind(), one[0], one[0].Kind())
				}
				want[i] = v
			}
			out := make([]sqltypes.Value, len(evalBatchRows))
			err = es.EvalBatch(ctx, evalBatchRows, out)
			if len(rowErrs) > 0 {
				if err == nil || !slices.Contains(rowErrs, err.Error()) {
					t.Errorf("whole batch: error %q, want one of %q", errText(err), rowErrs)
				}
				return
			}
			if err != nil {
				t.Fatalf("whole batch: %v", err)
			}
			for i := range out {
				if !sameValue(want[i], out[i]) {
					t.Errorf("whole batch row %d: EvalBatch %v, Eval %v", i, out[i], want[i])
				}
			}
		})
	}
}
