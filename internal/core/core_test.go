package core

import (
	"fmt"
	"strings"
	"testing"

	"plsqlaway/internal/engine"
	"plsqlaway/internal/sqlast"
	"plsqlaway/internal/sqlparser"
	"plsqlaway/internal/sqltypes"
	"plsqlaway/internal/udf"
	"plsqlaway/internal/workload"
)

func sqlparserParse(sql string) (*sqlast.Query, error) { return sqlparser.ParseQuery(sql) }

// newWorldEngine builds an engine with every workload schema installed.
func newWorldEngine(t *testing.T) *engine.Engine {
	t.Helper()
	e := engine.New(engine.WithSeed(42))
	s := e.NewSession()
	world := workload.NewRobotWorld(5, 5, 7)
	if err := world.Install(s); err != nil {
		t.Fatal(err)
	}
	if err := workload.InstallFSM(s); err != nil {
		t.Fatal(err)
	}
	if err := workload.InstallGraph(s, 512, 3); err != nil {
		t.Fatal(err)
	}
	if err := workload.InstallFees(s); err != nil {
		t.Fatal(err)
	}
	return e
}

// install registers the interpreted original and the compiled variant under
// <name>_c.
func install(t *testing.T, s *engine.Session, src string, opt Options) *Result {
	t.Helper()
	if err := s.Exec(src); err != nil {
		t.Fatalf("install interpreted: %v", err)
	}
	res, err := Compile(src, opt)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	if err := s.InstallCompiled(res.Function.Name+"_c", res.Params, res.ReturnType, res.Query); err != nil {
		t.Fatalf("install compiled: %v", err)
	}
	return res
}

// differential runs both variants with identical seeds and compares.
func differential(t *testing.T, s *engine.Session, name, call string, args ...sqltypes.Value) {
	t.Helper()
	s.Seed(99)
	want, err := s.QueryValue(fmt.Sprintf(call, name), args...)
	if err != nil {
		t.Fatalf("%s interpreted: %v", name, err)
	}
	s.Seed(99)
	got, err := s.QueryValue(fmt.Sprintf(call, name+"_c"), args...)
	if err != nil {
		t.Fatalf("%s compiled: %v", name, err)
	}
	if !sqltypes.Identical(want, got) {
		t.Errorf("%s: interpreted=%v compiled=%v (call %q)", name, want, got, call)
	}
}

func TestCompileFibDifferential(t *testing.T) {
	s := engine.New().NewSession()
	install(t, s, workload.FibSrc, Options{})
	for _, n := range []int64{0, 1, 2, 3, 10, 20, 40} {
		differential(t, s, "fibonacci", "SELECT %s($1)", sqltypes.NewInt(n))
	}
}

func TestCompileCorpusDifferential(t *testing.T) {
	cases := []struct {
		src   string
		name  string
		calls [][]sqltypes.Value
		tmpl  string
	}{
		{workload.GcdSrc, "gcd", [][]sqltypes.Value{
			{sqltypes.NewInt(48), sqltypes.NewInt(36)},
			{sqltypes.NewInt(7), sqltypes.NewInt(13)},
			{sqltypes.NewInt(0), sqltypes.NewInt(5)},
			{sqltypes.NewInt(270), sqltypes.NewInt(192)},
		}, "SELECT %s($1, $2)"},
		{workload.CollatzSrc, "collatz", [][]sqltypes.Value{
			{sqltypes.NewInt(1)}, {sqltypes.NewInt(6)}, {sqltypes.NewInt(27)}, {sqltypes.NewInt(97)},
		}, "SELECT %s($1)"},
		{workload.SumSkipSrc, "sumskip", [][]sqltypes.Value{
			{sqltypes.NewInt(0)}, {sqltypes.NewInt(1)}, {sqltypes.NewInt(10)}, {sqltypes.NewInt(100)},
		}, "SELECT %s($1)"},
		{workload.NestedLoopSrc, "nestedloop", [][]sqltypes.Value{
			{sqltypes.NewInt(3)}, {sqltypes.NewInt(40)},
		}, "SELECT %s($1)"},
		{workload.ClampSrc, "clamp", [][]sqltypes.Value{
			{sqltypes.NewInt(5), sqltypes.NewInt(1), sqltypes.NewInt(10)},
			{sqltypes.NewInt(-5), sqltypes.NewInt(1), sqltypes.NewInt(10)},
			{sqltypes.NewInt(50), sqltypes.NewInt(1), sqltypes.NewInt(10)},
		}, "SELECT %s($1, $2, $3)"},
		{workload.PowSrc, "ipow", [][]sqltypes.Value{
			{sqltypes.NewInt(2), sqltypes.NewInt(10)},
			{sqltypes.NewInt(3), sqltypes.NewInt(0)},
			{sqltypes.NewInt(-2), sqltypes.NewInt(5)},
		}, "SELECT %s($1, $2)"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			s := engine.New().NewSession()
			install(t, s, c.src, Options{})
			for _, args := range c.calls {
				differential(t, s, c.name, c.tmpl, args...)
			}
		})
	}
}

func TestCompileQueryBearingCorpus(t *testing.T) {
	s := newWorldEngine(t).NewSession()
	install(t, s, workload.ParseSrc, Options{})
	install(t, s, workload.TraverseSrc, Options{})
	install(t, s, workload.AccountSrc, Options{})

	for _, input := range []string{"", "abc", "a1 22 bcd", workload.MakeParseInput(200, 5)} {
		differential(t, s, "parse", "SELECT %s($1)", sqltypes.NewText(input))
	}
	for _, start := range []int64{0, 3, 42} {
		differential(t, s, "traverse", "SELECT %s($1, $2)", sqltypes.NewInt(start), sqltypes.NewInt(300))
	}
	differential(t, s, "balance", "SELECT %s($1, $2)", sqltypes.NewFloat(500), sqltypes.NewInt(24))
	differential(t, s, "balance", "SELECT %s($1, $2)", sqltypes.NewFloat(5000), sqltypes.NewInt(60))
}

func TestCompileWalkDifferential(t *testing.T) {
	s := newWorldEngine(t).NewSession()
	res := install(t, s, workload.WalkSrc, Options{})
	if len(res.ANF.Funs) > 3 {
		t.Errorf("walk should collapse to ~2 label functions (paper's L1/L2), got %d:\n%s",
			len(res.ANF.Funs), res.ANF.Dump())
	}
	for _, c := range []struct{ x, y, win, loose, steps int64 }{
		{0, 0, 5, -5, 10},
		{2, 2, 3, -3, 50},
		{4, 4, 10, -10, 200},
		{1, 3, 2, -8, 500},
	} {
		differential(t, s, "walk", "SELECT %s($1, $2, $3, $4)",
			sqltypes.NewCoord(c.x, c.y), sqltypes.NewInt(c.win), sqltypes.NewInt(c.loose), sqltypes.NewInt(c.steps))
	}
}

func TestCompileWalkIterateAndSQLiteDialects(t *testing.T) {
	for _, mode := range []struct {
		name string
		opt  Options
	}{
		{"iterate", Options{Iterate: true}},
		{"sqlite", Options{Dialect: udf.DialectSQLite}},
		{"sqlite-iterate", Options{Dialect: udf.DialectSQLite, Iterate: true}},
		{"unoptimized", Options{NoOptimize: true}},
	} {
		t.Run(mode.name, func(t *testing.T) {
			s := newWorldEngine(t).NewSession()
			if err := s.Exec(workload.WalkSrc); err != nil {
				t.Fatal(err)
			}
			res, err := Compile(workload.WalkSrc, mode.opt)
			if err != nil {
				t.Fatal(err)
			}
			if err := s.InstallCompiled("walk_c", res.Params, res.ReturnType, res.Query); err != nil {
				t.Fatal(err)
			}
			if mode.opt.Dialect == udf.DialectSQLite && strings.Contains(res.SQL, "LATERAL") {
				t.Errorf("sqlite dialect must not emit LATERAL:\n%s", res.SQL)
			}
			differential(t, s, "walk", "SELECT %s($1, $2, $3, $4)",
				sqltypes.NewCoord(2, 2), sqltypes.NewInt(4), sqltypes.NewInt(-4), sqltypes.NewInt(100))
		})
	}
}

func TestLoopLessCompilesWithoutCTE(t *testing.T) {
	res, err := Compile(workload.ClampSrc, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(res.SQL, "WITH RECURSIVE") {
		t.Errorf("loop-less function should compile Froid-style:\n%s", res.SQL)
	}
	// ForceCTE still must give correct results.
	s := engine.New().NewSession()
	install(t, s, workload.ClampSrc, Options{ForceCTE: true})
	differential(t, s, "clamp", "SELECT %s($1, $2, $3)",
		sqltypes.NewInt(7), sqltypes.NewInt(0), sqltypes.NewInt(5))
}

func TestCompiledSQLReparses(t *testing.T) {
	for name, src := range workload.Corpus {
		res, err := Compile(src, Options{})
		if err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		if _, err := enginedParse(res.SQL); err != nil {
			t.Errorf("%s: emitted SQL does not reparse: %v\n%s", name, err, res.SQL)
		}
	}
}

func enginedParse(sql string) (*sqlast.Query, error) {
	return parseQueryHelper(sql)
}

func TestInlineCall(t *testing.T) {
	s := engine.New().NewSession()
	res := install(t, s, workload.GcdSrc, Options{})
	if err := s.Exec(`CREATE TABLE pairs (x int, y int);
		INSERT INTO pairs VALUES (48, 36), (7, 13), (100, 75)`); err != nil {
		t.Fatal(err)
	}
	outer, err := parseQueryHelper("SELECT gcd(p.x, p.y) FROM pairs AS p ORDER BY 1")
	if err != nil {
		t.Fatal(err)
	}
	inlined := res.Inline(outer)
	if strings.Contains(sqlast.DeparseQuery(inlined), "gcd(") {
		t.Fatalf("call site not inlined:\n%s", sqlast.DeparseQuery(inlined))
	}
	got, err := s.QueryPlanned(inlined)
	if err != nil {
		t.Fatalf("inlined query: %v", err)
	}
	want, err := s.Query("SELECT gcd(p.x, p.y) FROM pairs AS p ORDER BY 1")
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Rows) != len(want.Rows) {
		t.Fatalf("row counts differ: %d vs %d", len(got.Rows), len(want.Rows))
	}
	for i := range got.Rows {
		if !sqltypes.Identical(got.Rows[i][0], want.Rows[i][0]) {
			t.Errorf("row %d: inlined=%v interpreted=%v", i, got.Rows[i][0], want.Rows[i][0])
		}
	}
}

func TestUDFStatementsInstallAndRun(t *testing.T) {
	// The Figure 7 route: install wrapper + tail-recursive f_star as
	// LANGUAGE sql functions and evaluate directly (works, but the paper
	// notes stack limits and poor performance — we check the small case).
	s := engine.New().NewSession()
	res, err := Compile(workload.GcdSrc, Options{})
	if err != nil {
		t.Fatal(err)
	}
	sql, err := res.UDF.SQL()
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Exec(sql); err != nil {
		t.Fatalf("installing UDFs: %v\n%s", err, sql)
	}
	v, err := s.QueryValue("SELECT gcd($1, $2)", sqltypes.NewInt(48), sqltypes.NewInt(36))
	if err != nil {
		t.Fatal(err)
	}
	if v.Int() != 12 {
		t.Errorf("gcd via recursive UDF = %v, want 12", v)
	}
	// Deep recursion must hit the engine's call-depth guard, mirroring the
	// paper's "we quickly hit default stack depth limits".
	resF, err := Compile(workload.FibSrc, Options{})
	if err != nil {
		t.Fatal(err)
	}
	sqlF, err := resF.UDF.SQL()
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Exec(sqlF); err != nil {
		t.Fatalf("installing fib UDFs: %v", err)
	}
	_, err = s.QueryValue("SELECT fibonacci($1)", sqltypes.NewInt(10000))
	if err == nil || !strings.Contains(err.Error(), "depth") {
		t.Errorf("expected stack depth error from recursive UDF, got %v", err)
	}
}

func TestCompileRejectsRaiseException(t *testing.T) {
	_, err := Compile(`CREATE FUNCTION boom(n int) RETURNS int AS $$
BEGIN
  IF n < 0 THEN RAISE EXCEPTION 'no'; END IF;
  RETURN n;
END;
$$ LANGUAGE plpgsql`, Options{})
	if err == nil || !strings.Contains(err.Error(), "RAISE EXCEPTION") {
		t.Errorf("expected RAISE EXCEPTION rejection, got %v", err)
	}
}

func TestCompileWarnsOnRaiseNotice(t *testing.T) {
	res, err := Compile(`CREATE FUNCTION chatty(n int) RETURNS int AS $$
BEGIN
  RAISE NOTICE 'hello %', n;
  RETURN n + 1;
END;
$$ LANGUAGE plpgsql`, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Warnings) == 0 {
		t.Error("expected a warning about the dropped RAISE NOTICE")
	}
}

func TestStageDumpsRender(t *testing.T) {
	res, err := Compile(workload.WalkSrc, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if d := res.CFG.Dump(); !strings.Contains(d, "goto") {
		t.Errorf("CFG dump: %s", d)
	}
	if d := res.SSA.Dump(); !strings.Contains(d, "phi(") {
		t.Errorf("SSA dump: %s", d)
	}
	if d := res.ANF.Dump(); !strings.Contains(d, "letrec") {
		t.Errorf("ANF dump: %s", d)
	}
	usql, err := res.UDF.SQL()
	if err != nil || !strings.Contains(usql, "walk_star") {
		t.Errorf("UDF SQL: %v\n%s", err, usql)
	}
	for _, needle := range []string{"WITH RECURSIVE", `"call?"`, "UNION ALL", "NOT r"} {
		if !strings.Contains(res.SQL, needle) {
			t.Errorf("final SQL missing %q:\n%s", needle, res.SQL)
		}
	}
}

// parseQueryHelper avoids importing sqlparser at top level twice.
func parseQueryHelper(sql string) (*sqlast.Query, error) {
	return sqlparserParse(sql)
}
