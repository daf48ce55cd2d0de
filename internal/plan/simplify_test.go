package plan

import (
	"testing"

	"plsqlaway/internal/catalog"
	"plsqlaway/internal/plast"
	"plsqlaway/internal/sqlparser"
	"plsqlaway/internal/sqltypes"
	"plsqlaway/internal/storage"
)

// simplifyTestCatalog builds t(a int, b text), u(a int, b text), and two
// SQL-bodied functions: a trivial increment and a correlated scalar lookup
// (the shape PL/SQL compilation emits for straight-line RETURN (SELECT …)).
func simplifyTestCatalog(t *testing.T) *catalog.Catalog {
	t.Helper()
	cat := catalog.New(&storage.Stats{})
	for _, name := range []string{"t", "u"} {
		if _, err := cat.CreateTable(name, []catalog.Column{
			{Name: "a", Type: sqltypes.TypeInt},
			{Name: "b", Type: sqltypes.TypeText},
		}, false); err != nil {
			t.Fatal(err)
		}
	}
	addFn := func(name, body string, params []plast.Param, ret sqltypes.Type) {
		q, err := sqlparser.ParseQuery(body)
		if err != nil {
			t.Fatal(err)
		}
		if err := cat.CreateFunction(&catalog.Function{
			Name: name, Params: params, ReturnType: ret,
			Kind: catalog.FuncSQL, SQLBody: q,
		}, false); err != nil {
			t.Fatal(err)
		}
	}
	addFn("incr", "SELECT $1 + 1",
		[]plast.Param{{Name: "x", Type: sqltypes.TypeInt}}, sqltypes.TypeInt)
	addFn("lookup", "SELECT (SELECT u.b FROM u WHERE u.a = $1)",
		[]plast.Param{{Name: "x", Type: sqltypes.TypeInt}}, sqltypes.TypeText)
	return cat
}

// TestInlineDecorrelatesToHashJoin pins the whole rewrite chain on the plan
// tree: the lookup call inlines, its correlated scalar subquery hoists to
// an Apply, decorrelation turns that into a left single-row hash join whose
// residual is exactly the key equalities, and the simplify pass leaves bare
// column references as join keys (no no-op casts) with no permutation
// Project stacked above the join.
func TestInlineDecorrelatesToHashJoin(t *testing.T) {
	cat := simplifyTestCatalog(t)
	p := buildPlan(t, cat, "SELECT count(lookup(a)) FROM t")
	if p.InlinedCalls != 1 {
		t.Errorf("InlinedCalls = %d, want 1", p.InlinedCalls)
	}
	agg, ok := p.Root.(*Project).Child.(*Agg)
	if !ok {
		t.Fatalf("below root: %T", p.Root.(*Project).Child)
	}
	hj, ok := agg.Child.(*HashJoin)
	if !ok {
		t.Fatalf("Agg child: %T (permutation Project not merged?)", agg.Child)
	}
	if hj.Kind != JoinLeft || !hj.SingleRow || !hj.RightStatic || !hj.ResidualAllKeys {
		t.Errorf("join flags: kind=%d single=%v static=%v allkeys=%v",
			hj.Kind, hj.SingleRow, hj.RightStatic, hj.ResidualAllKeys)
	}
	if _, ok := hj.LeftKeys[0].(*InputRef); !ok {
		t.Errorf("left key: %T, want bare InputRef (cast not elided)", hj.LeftKeys[0])
	}
	if _, ok := agg.Aggs[0].Arg.(*InputRef); !ok {
		t.Errorf("agg arg: %T, want bare InputRef (cast not elided)", agg.Aggs[0].Arg)
	}
}

// TestInlineLiftsBatchClamp pins the purity analysis through inlined
// bodies: a query calling only pure inlinable functions has no volatile
// parts left after inlining, so the executor's batch-1 clamp (which fires
// on HasVolatile) does not apply. The opaque plan keeps the per-row call
// and stays clamped.
func TestInlineLiftsBatchClamp(t *testing.T) {
	cat := simplifyTestCatalog(t)
	for _, sql := range []string{
		"SELECT incr(a) FROM t",
		"SELECT count(lookup(a)) FROM t",
	} {
		p := buildPlan(t, cat, sql)
		if p.HasVolatile() {
			t.Errorf("%s: inlined plan reports volatile — batch clamp not lifted", sql)
		}
		q, err := sqlparser.ParseQuery(sql)
		if err != nil {
			t.Fatal(err)
		}
		op, err := Build(cat, q, Options{Skip: PassInline})
		if err != nil {
			t.Fatal(err)
		}
		if !op.HasVolatile() {
			t.Errorf("%s: opaque plan must stay clamped (per-row call)", sql)
		}
	}
}

// TestSimplifyKeepsNeededCasts makes sure the cast elision only fires when
// the operand kind is statically known to match: a genuine conversion and a
// cast over an unknown-kind operand both survive.
func TestSimplifyKeepsNeededCasts(t *testing.T) {
	cat := simplifyTestCatalog(t)
	p := buildPlan(t, cat, "SELECT a::text FROM t")
	if _, ok := p.Root.(*Project).Exprs[0].(*CastExpr); !ok {
		t.Errorf("int→text cast removed: %T", p.Root.(*Project).Exprs[0])
	}
	p = buildPlan(t, cat, "SELECT a::int FROM t")
	if _, ok := p.Root.(*Project).Exprs[0].(*InputRef); !ok {
		t.Errorf("int→int cast kept: %T", p.Root.(*Project).Exprs[0])
	}
	// Parameters have no static kind — the cast must stay.
	p = buildPlan(t, cat, "SELECT $1::int FROM t")
	if _, ok := p.Root.(*Project).Exprs[0].(*CastExpr); !ok {
		t.Errorf("cast over parameter removed: %T", p.Root.(*Project).Exprs[0])
	}
}
