package plan

import (
	"reflect"
	"strings"
	"testing"

	"plsqlaway/internal/catalog"
	"plsqlaway/internal/sqlparser"
	"plsqlaway/internal/sqltypes"
	"plsqlaway/internal/storage"
)

func testCatalog(t *testing.T) *catalog.Catalog {
	t.Helper()
	cat := catalog.New(&storage.Stats{})
	_, err := cat.CreateTable("t", []catalog.Column{
		{Name: "a", Type: sqltypes.TypeInt},
		{Name: "b", Type: sqltypes.TypeText},
	}, false)
	if err != nil {
		t.Fatal(err)
	}
	return cat
}

func buildPlan(t *testing.T, cat *catalog.Catalog, sql string) *Plan {
	t.Helper()
	q, err := sqlparser.ParseQuery(sql)
	if err != nil {
		t.Fatal(err)
	}
	p, err := Build(cat, q, Options{})
	if err != nil {
		t.Fatalf("Build(%q): %v", sql, err)
	}
	return p
}

func TestPlanShapeAndColumns(t *testing.T) {
	cat := testCatalog(t)
	p := buildPlan(t, cat, "SELECT a + 1 AS next, b FROM t WHERE a > 0")
	if !reflect.DeepEqual(p.Cols, []string{"next", "b"}) {
		t.Errorf("cols: %v", p.Cols)
	}
	proj, ok := p.Root.(*Project)
	if !ok {
		t.Fatalf("root: %T", p.Root)
	}
	if _, ok := proj.Child.(*Filter); !ok {
		t.Fatalf("child: %T", proj.Child)
	}
	if p.NodeCount < 3 {
		t.Errorf("node count: %d", p.NodeCount)
	}
}

func TestIndexScanRewrite(t *testing.T) {
	cat := testCatalog(t)
	if err := cat.DeclareIndex("t", "a"); err != nil {
		t.Fatal(err)
	}
	p := buildPlan(t, cat, "SELECT b FROM t WHERE a = $1")
	proj := p.Root.(*Project)
	if _, ok := proj.Child.(*IndexScan); !ok {
		t.Errorf("expected IndexScan, got %T", proj.Child)
	}
	// Residual predicates survive as a filter.
	p2 := buildPlan(t, cat, "SELECT b FROM t WHERE a = $1 AND b <> 'x'")
	f, ok := p2.Root.(*Project).Child.(*Filter)
	if !ok {
		t.Fatalf("expected residual Filter, got %T", p2.Root.(*Project).Child)
	}
	if _, ok := f.Child.(*IndexScan); !ok {
		t.Errorf("expected IndexScan under filter, got %T", f.Child)
	}
	// No index declared on b: equality on b stays a seq scan.
	p3 := buildPlan(t, cat, "SELECT a FROM t WHERE b = 'x'")
	if _, ok := p3.Root.(*Project).Child.(*Filter); !ok {
		t.Errorf("unexpected rewrite without declared index: %T", p3.Root.(*Project).Child)
	}
}

func TestIndexScanNotUsedForVolatileKey(t *testing.T) {
	cat := testCatalog(t)
	if err := cat.DeclareIndex("t", "a"); err != nil {
		t.Fatal(err)
	}
	p := buildPlan(t, cat, "SELECT b FROM t WHERE a = random()")
	if _, ok := p.Root.(*Project).Child.(*IndexScan); ok {
		t.Error("volatile keys must not become index probes")
	}
}

func TestCloneIsDeepForExprs(t *testing.T) {
	cat := testCatalog(t)
	p := buildPlan(t, cat, "SELECT a + 1 FROM t WHERE a BETWEEN 1 AND (SELECT max(a) FROM t) AND a IN (2, a * 3)")
	orig := p.Root.(*Project).Child.(*Filter).Pred
	before := exprStr(orig)
	c := cloneExpr(orig)
	if exprStr(c) != before {
		t.Fatalf("clone renders %s, original %s", exprStr(c), before)
	}
	// Rewriting the copy in place — what the join-key passes do — must
	// leave the original alone, operand lists included.
	mapExpr(c, func(e Expr) Expr {
		switch x := e.(type) {
		case *InputRef:
			x.Idx += 7
		case *InListExpr:
			x.List[0] = &Const{Val: sqltypes.NewInt(99)}
		}
		return e
	})
	if exprStr(orig) != before {
		t.Errorf("rewriting the clone changed the original: %s, was %s", exprStr(orig), before)
	}
	if exprStr(c) == before {
		t.Error("the rewrite did not reach the clone")
	}
}

func TestCacheHitMissAndInvalidation(t *testing.T) {
	cat := testCatalog(t)
	cache := NewCache()
	q, _ := sqlparser.ParseQuery("SELECT a FROM t")
	if _, err := cache.Get(cat, q, Options{}); err != nil {
		t.Fatal(err)
	}
	if _, err := cache.Get(cat, q, Options{}); err != nil {
		t.Fatal(err)
	}
	h, m := cache.Stats()
	if h != 1 || m != 1 {
		t.Errorf("hits=%d misses=%d, want 1/1", h, m)
	}
	// DDL bumps the catalog version: cached plan goes stale.
	if _, err := cat.CreateTable("u", []catalog.Column{{Name: "x", Type: sqltypes.TypeInt}}, false); err != nil {
		t.Fatal(err)
	}
	if _, err := cache.Get(cat, q, Options{}); err != nil {
		t.Fatal(err)
	}
	_, m = cache.Stats()
	if m != 2 {
		t.Errorf("misses=%d, want 2 after invalidation", m)
	}
	// Disabled cache always replans.
	cache.SetEnabled(false)
	cache.Get(cat, q, Options{})
	cache.Get(cat, q, Options{})
	h2, m2 := cache.Stats()
	if h2 != 1 || m2 != 4 {
		t.Errorf("disabled cache: hits=%d misses=%d", h2, m2)
	}
}

func TestBuildScalarExprWithHook(t *testing.T) {
	cat := testCatalog(t)
	e, _ := sqlparser.ParseExpr("x + y * 2")
	hook := func(name string) (int, bool) {
		switch name {
		case "x":
			return 1, true
		case "y":
			return 2, true
		}
		return 0, false
	}
	ex, n, err := BuildScalarExpr(cat, e, Options{Hook: hook})
	if err != nil {
		t.Fatal(err)
	}
	if n != 2 {
		t.Errorf("param count: %d", n)
	}
	if _, ok := ex.(*BinOp); !ok {
		t.Errorf("expr: %T", ex)
	}
	// Unknown name fails.
	e2, _ := sqlparser.ParseExpr("nosuch + 1")
	if _, _, err := BuildScalarExpr(cat, e2, Options{Hook: hook}); err == nil {
		t.Error("unknown variable must fail binding")
	}
}

func TestHasSubquery(t *testing.T) {
	cases := map[string]bool{
		"1 + 2":                              false,
		"abs(x)":                             false,
		"(SELECT 1)":                         true,
		"1 + (SELECT a FROM t)":              true,
		"EXISTS (SELECT 1)":                  true,
		"x IN (SELECT a FROM t)":             true,
		"x IN (1, 2, 3)":                     false,
		"CASE WHEN (SELECT true) THEN 1 END": true,
	}
	for src, want := range cases {
		e, err := sqlparser.ParseExpr(src)
		if err != nil {
			t.Fatalf("%s: %v", src, err)
		}
		if got := HasSubquery(e); got != want {
			t.Errorf("HasSubquery(%s) = %v, want %v", src, got, want)
		}
	}
}

func TestBinderErrors(t *testing.T) {
	cat := testCatalog(t)
	bad := []string{
		"SELECT nosuch FROM t",
		"SELECT t.nosuch FROM t",
		"SELECT a FROM nosuch",
		"SELECT sum(a) FROM t WHERE sum(a) > 0",
		"SELECT row_number() FROM t",  // window-only without OVER
		"SELECT a FROM t, t",          // ambiguous a
		"SELECT abs(1, 2)",            // arity
		"SELECT (SELECT a, b FROM t)", // multi-col scalar subquery
	}
	for _, sql := range bad {
		q, err := sqlparser.ParseQuery(sql)
		if err != nil {
			t.Fatalf("parse %q: %v", sql, err)
		}
		if _, err := Build(cat, q, Options{}); err == nil {
			t.Errorf("Build(%q) should fail", sql)
		}
	}
}

func TestRecursiveCTEValidation(t *testing.T) {
	cat := testCatalog(t)
	bad := []string{
		// self-reference in the non-recursive term
		"WITH RECURSIVE r(n) AS (SELECT n FROM r UNION ALL SELECT 1) SELECT * FROM r",
		// not a UNION shape
		"WITH RECURSIVE r(n) AS (SELECT n + 1 FROM r) SELECT * FROM r",
		// column count mismatch
		"WITH RECURSIVE r(n) AS (SELECT 1 UNION ALL SELECT n, 2 FROM r) SELECT * FROM r",
	}
	for _, sql := range bad {
		q, err := sqlparser.ParseQuery(sql)
		if err != nil {
			t.Fatalf("parse %q: %v", sql, err)
		}
		if _, err := Build(cat, q, Options{}); err == nil {
			t.Errorf("Build(%q) should fail", sql)
		}
	}
}

func TestDisableLateral(t *testing.T) {
	cat := testCatalog(t)
	q, _ := sqlparser.ParseQuery("SELECT * FROM t, LATERAL (SELECT t.a) AS x")
	if _, err := Build(cat, q, Options{DisableLateral: true}); err == nil ||
		!strings.Contains(err.Error(), "LATERAL") {
		t.Errorf("want LATERAL rejection, got %v", err)
	}
}
