package plinterp

import (
	"strings"
	"testing"

	"plsqlaway/internal/catalog"
	"plsqlaway/internal/exec"
	"plsqlaway/internal/plan"
	"plsqlaway/internal/plparser"
	"plsqlaway/internal/profile"
	"plsqlaway/internal/sqlast"
	"plsqlaway/internal/sqlparser"
	"plsqlaway/internal/sqltypes"
	"plsqlaway/internal/storage"
)

// harness builds a bare interpreter over an empty (or seeded) catalog.
func harness(t *testing.T) (*Interpreter, *catalog.Catalog) {
	t.Helper()
	stats := &storage.Stats{}
	cat := catalog.New(stats)
	counters := &profile.Counters{}
	cache := plan.NewCache()
	var ip *Interpreter
	mkCtx := func() *exec.Ctx {
		ctx := exec.NewCtx()
		ctx.StorageStats = stats
		return ctx
	}
	ip = New(cat, cache, counters, mkCtx, &exec.Pool{})
	return ip, cat
}

func parseFn(t *testing.T, src string) *catalog.Function {
	t.Helper()
	stmt, err := sqlparser.ParseStatement(src)
	if err != nil {
		t.Fatal(err)
	}
	f, err := plparser.ParseFunction(stmt.(*sqlast.CreateFunction))
	if err != nil {
		t.Fatal(err)
	}
	return &catalog.Function{Name: f.Name, Params: f.Params, ReturnType: f.ReturnType, Kind: catalog.FuncPLpgSQL, PL: f}
}

func callInt(t *testing.T, ip *Interpreter, fn *catalog.Function, args ...int64) int64 {
	t.Helper()
	vals := make([]sqltypes.Value, len(args))
	for i, a := range args {
		vals[i] = sqltypes.NewInt(a)
	}
	v, err := ip.Call(fn.PL, vals)
	if err != nil {
		t.Fatalf("call: %v", err)
	}
	return v.Int()
}

func TestDirectCallArithmetic(t *testing.T) {
	ip, _ := harness(t)
	fn := parseFn(t, `CREATE FUNCTION tri(n int) RETURNS int AS $$
DECLARE s int = 0;
BEGIN
  FOR i IN 1..n LOOP s = s + i; END LOOP;
  RETURN s;
END;
$$ LANGUAGE plpgsql`)
	if got := callInt(t, ip, fn, 10); got != 55 {
		t.Errorf("tri(10) = %d", got)
	}
	if got := callInt(t, ip, fn, 0); got != 0 {
		t.Errorf("tri(0) = %d", got)
	}
}

func TestAssignmentCoercesToDeclaredType(t *testing.T) {
	ip, _ := harness(t)
	fn := parseFn(t, `CREATE FUNCTION f() RETURNS int AS $$
DECLARE x int;
BEGIN
  x = 2.6;  -- float assigned to int: rounds
  RETURN x;
END;
$$ LANGUAGE plpgsql`)
	if got := callInt(t, ip, fn); got != 3 {
		t.Errorf("x = %d, want 3 (banker's rounding of 2.6)", got)
	}
}

func TestForLoopVarAssignmentDoesNotAffectIteration(t *testing.T) {
	ip, _ := harness(t)
	fn := parseFn(t, `CREATE FUNCTION f() RETURNS int AS $$
DECLARE n int = 0;
BEGIN
  FOR i IN 1..4 LOOP
    i = 100;       -- PL/pgSQL: iteration sequence unaffected
    n = n + 1;
  END LOOP;
  RETURN n;
END;
$$ LANGUAGE plpgsql`)
	if got := callInt(t, ip, fn); got != 4 {
		t.Errorf("loop ran %d times, want 4", got)
	}
}

func TestMissingReturnErrors(t *testing.T) {
	ip, _ := harness(t)
	fn := parseFn(t, `CREATE FUNCTION f(n int) RETURNS int AS $$
BEGIN
  IF n > 0 THEN RETURN 1; END IF;
END;
$$ LANGUAGE plpgsql`)
	if _, err := ip.Call(fn.PL, []sqltypes.Value{sqltypes.NewInt(-1)}); err == nil ||
		!strings.Contains(err.Error(), "without RETURN") {
		t.Errorf("want missing-RETURN error, got %v", err)
	}
}

func TestWrongArgCount(t *testing.T) {
	ip, _ := harness(t)
	fn := parseFn(t, `CREATE FUNCTION f(n int) RETURNS int AS $$ BEGIN RETURN n; END; $$ LANGUAGE plpgsql`)
	if _, err := ip.Call(fn.PL, nil); err == nil {
		t.Error("want arity error")
	}
}

func TestEmbeddedQueryCounters(t *testing.T) {
	ip, cat := harness(t)
	tbl, err := cat.CreateTable("kv", []catalog.Column{
		{Name: "k", Type: sqltypes.TypeInt}, {Name: "v", Type: sqltypes.TypeInt}}, false)
	if err != nil {
		t.Fatal(err)
	}
	tbl.Heap.Insert(storage.Tuple{sqltypes.NewInt(1), sqltypes.NewInt(10)})
	tbl.Heap.Insert(storage.Tuple{sqltypes.NewInt(2), sqltypes.NewInt(20)})

	fn := parseFn(t, `CREATE FUNCTION lookup2() RETURNS int AS $$
DECLARE a int; b int;
BEGIN
  a = (SELECT t.v FROM kv AS t WHERE t.k = 1);
  b = (SELECT t.v FROM kv AS t WHERE t.k = 2);
  RETURN a + b;
END;
$$ LANGUAGE plpgsql`)
	if got := callInt(t, ip, fn); got != 30 {
		t.Errorf("lookup2 = %d", got)
	}
	if ip.Counters.CtxSwitchFQ != 2 {
		t.Errorf("f→Qi switches = %d, want 2", ip.Counters.CtxSwitchFQ)
	}
	if ip.Counters.ExecutorStarts != 2 {
		t.Errorf("executor starts = %d, want 2", ip.Counters.ExecutorStarts)
	}
	// Second call: plans cached, but starts still paid per evaluation.
	callInt(t, ip, fn)
	if ip.Counters.ExecutorStarts != 4 {
		t.Errorf("executor starts after 2nd call = %d, want 4", ip.Counters.ExecutorStarts)
	}
	hits, misses := ip.Cache.Stats()
	if hits != 2 || misses != 2 {
		t.Errorf("plan cache hits=%d misses=%d, want 2/2", hits, misses)
	}
}

func TestFastPathDisabledRoutesThroughExecutor(t *testing.T) {
	ip, _ := harness(t)
	ip.FastPath = false
	fn := parseFn(t, `CREATE FUNCTION f() RETURNS int AS $$
BEGIN
  RETURN 1 + 2;
END;
$$ LANGUAGE plpgsql`)
	if got := callInt(t, ip, fn); got != 3 {
		t.Errorf("f = %d", got)
	}
	if ip.Counters.ExecutorStarts == 0 {
		t.Error("fast path off must pay ExecutorStart")
	}
	if ip.Counters.FastPathEvals != 0 {
		t.Error("fast path evals should be 0 when disabled")
	}
}

func TestInterpPenaltyProfile(t *testing.T) {
	ip, _ := harness(t)
	ip.Profile = profile.Oracle
	fn := parseFn(t, `CREATE FUNCTION f(n int) RETURNS int AS $$
DECLARE s int = 0;
BEGIN
  FOR i IN 1..n LOOP s = s + i; END LOOP;
  RETURN s;
END;
$$ LANGUAGE plpgsql`)
	if got := callInt(t, ip, fn, 100); got != 5050 {
		t.Errorf("f(100) = %d", got)
	}
}

func TestNullBoundsError(t *testing.T) {
	ip, _ := harness(t)
	fn := parseFn(t, `CREATE FUNCTION f() RETURNS int AS $$
DECLARE z int;
BEGIN
  FOR i IN 1..z LOOP z = 1; END LOOP;
  RETURN 0;
END;
$$ LANGUAGE plpgsql`)
	if _, err := ip.Call(fn.PL, nil); err == nil || !strings.Contains(err.Error(), "NULL") {
		t.Errorf("want NULL-bounds error, got %v", err)
	}
}

func TestDuplicateVariableRejected(t *testing.T) {
	ip, _ := harness(t)
	fn := parseFn(t, `CREATE FUNCTION f(x int) RETURNS int AS $$
DECLARE x int = 1;
BEGIN
  RETURN x;
END;
$$ LANGUAGE plpgsql`)
	if _, err := ip.Call(fn.PL, []sqltypes.Value{sqltypes.NewInt(1)}); err == nil ||
		!strings.Contains(err.Error(), "duplicate") {
		t.Errorf("want duplicate-variable error, got %v", err)
	}
}
