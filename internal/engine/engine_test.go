package engine

import (
	"strings"
	"testing"

	"plsqlaway/internal/profile"
	"plsqlaway/internal/sqltypes"
)

// rowsOf renders a result compactly for comparison: rows joined by ";",
// values by ",".
func rowsOf(t *testing.T, s *Session, sql string, params ...sqltypes.Value) string {
	t.Helper()
	res, err := s.Query(sql, params...)
	if err != nil {
		t.Fatalf("Query(%q): %v", sql, err)
	}
	var rows []string
	for _, r := range res.Rows {
		var vals []string
		for _, v := range r {
			vals = append(vals, v.String())
		}
		rows = append(rows, strings.Join(vals, ","))
	}
	return strings.Join(rows, ";")
}

func TestScalarQueries(t *testing.T) {
	s := New().NewSession()
	cases := []struct {
		sql  string
		want string
	}{
		{"SELECT 1", "1"},
		{"SELECT 1 + 2 * 3", "7"},
		{"SELECT 'a' || 'b'", "ab"},
		{"SELECT 10 / 4, 10 % 4, 10.0 / 4", "2,2,2.5"},
		{"SELECT -(-5)", "5"},
		{"SELECT 1 < 2, 2 <= 2, 3 <> 4", "true,true,true"},
		{"SELECT NULL + 1", "NULL"},
		{"SELECT true AND NULL, false AND NULL, true OR NULL", "NULL,false,true"},
		{"SELECT NOT false", "true"},
		{"SELECT CASE WHEN 1 < 2 THEN 'yes' ELSE 'no' END", "yes"},
		{"SELECT CASE 3 WHEN 1 THEN 'a' WHEN 3 THEN 'c' END", "c"},
		{"SELECT CASE WHEN false THEN 1 END", "NULL"},
		{"SELECT CAST('42' AS int) + 1", "43"},
		{"SELECT CAST(NULL AS int)", "NULL"},
		{"SELECT 2.9::int, '3.5'::float", "3,3.5"},
		{"SELECT 5 BETWEEN 1 AND 10, 5 NOT BETWEEN 6 AND 10", "true,true"},
		{"SELECT 3 IN (1, 2, 3), 4 NOT IN (1, 2, 3)", "true,true"},
		{"SELECT NULL IN (1, 2)", "NULL"},
		{"SELECT 5 IN (1, NULL)", "NULL"},
		{"SELECT 1 IS NULL, NULL IS NULL, 1 IS NOT NULL", "false,true,true"},
		{"SELECT abs(-7), sign(-3), sign(0), sign(9)", "7,-1,0,1"},
		{"SELECT floor(2.7), ceil(2.1), round(2.5)", "2,3,3"},
		{"SELECT power(2, 10), mod(17, 5), sqrt(16)", "1024,2,4"},
		{"SELECT length('héllo'), upper('ab'), lower('AB')", "5,AB,ab"},
		{"SELECT substr('hello', 2, 3), substr('hello', 4)", "ell,lo"},
		{"SELECT left('hello', 2), right('hello', 2), reverse('abc')", "he,lo,cba"},
		{"SELECT strpos('hello', 'll'), replace('aaa', 'a', 'b')", "3,bbb"},
		{"SELECT coalesce(NULL, NULL, 3), nullif(1, 1), nullif(1, 2)", "3,NULL,1"},
		{"SELECT greatest(1, 5, 3), least(4, 2, 8)", "5,2"},
		{"SELECT concat('a', NULL, 1, 'b')", "a1b"},
		{"SELECT ascii('A'), chr(66)", "65,B"},
		{"SELECT repeat('ab', 3)", "ababab"},
		{"SELECT coord(3, 2)", "(3,2)"},
		{"SELECT coord(3, 2) = coord(3, 2), coord(1, 2) < coord(1, 3)", "true,true"},
		{"SELECT ROW(1, 'a', NULL)", "(1,a,NULL)"},
		{"SELECT (ROW(10, 20)).f2", "20"},
		{"SELECT (coord(7, 9)).x, (coord(7, 9)).y", "7,9"},
		{"SELECT $1 + $2", ""},
	}
	for _, c := range cases {
		if c.sql == "SELECT $1 + $2" {
			got := rowsOf(t, s, c.sql, sqltypes.NewInt(20), sqltypes.NewInt(22))
			if got != "42" {
				t.Errorf("%s = %q, want 42", c.sql, got)
			}
			continue
		}
		if got := rowsOf(t, s, c.sql); got != c.want {
			t.Errorf("%s = %q, want %q", c.sql, got, c.want)
		}
	}
}

func setupBasicTables(t *testing.T, s *Session) {
	t.Helper()
	err := s.Exec(`
		CREATE TABLE t (a int, b text);
		INSERT INTO t VALUES (1, 'one'), (2, 'two'), (3, 'three'), (2, 'zwei');
		CREATE TABLE u (a int, c float);
		INSERT INTO u VALUES (1, 1.5), (2, 2.5), (9, 9.5);
	`)
	if err != nil {
		t.Fatal(err)
	}
}

func TestBasicSelects(t *testing.T) {
	s := New().NewSession()
	setupBasicTables(t, s)
	cases := []struct{ sql, want string }{
		{"SELECT a, b FROM t WHERE a = 2 ORDER BY b", "2,two;2,zwei"},
		{"SELECT * FROM t ORDER BY a, b LIMIT 2", "1,one;2,two"},
		{"SELECT * FROM t ORDER BY a DESC, b LIMIT 2 OFFSET 1", "2,two;2,zwei"},
		{"SELECT DISTINCT a FROM t ORDER BY a", "1;2;3"},
		{"SELECT count(*), count(DISTINCT a), sum(a), min(b), max(a) FROM t", "4,3,8,one,3"},
		{"SELECT a, count(*) FROM t GROUP BY a ORDER BY a", "1,1;2,2;3,1"},
		{"SELECT a, count(*) AS n FROM t GROUP BY a HAVING count(*) > 1 ORDER BY a", "2,2"},
		{"SELECT avg(a) FROM u", "4"},
		{"SELECT avg(c) FROM u", "4.5"},
		{"SELECT sum(a) FROM t WHERE a > 100", "NULL"},
		{"SELECT count(*) FROM t WHERE a > 100", "0"},
		{"SELECT t.a, u.c FROM t JOIN u ON t.a = u.a ORDER BY t.a, u.c", "1,1.5;2,2.5;2,2.5"},
		{"SELECT t.a, u.c FROM t LEFT JOIN u ON t.a = u.a AND u.c > 2 ORDER BY t.a, t.b", "1,NULL;2,2.5;2,2.5;3,NULL"},
		{"SELECT count(*) FROM t, u", "12"},
		{"SELECT count(*) FROM t CROSS JOIN u", "12"},
		{"SELECT x.n FROM (SELECT a + 1 AS n FROM t) AS x ORDER BY n DESC LIMIT 1", "4"},
		{"SELECT a FROM t WHERE b IN (SELECT b FROM t WHERE a = 2) ORDER BY a, b", "2;2"},
		{"SELECT a FROM t WHERE EXISTS (SELECT 1 FROM u WHERE u.a = t.a) ORDER BY a, b", "1;2;2"},
		{"SELECT a FROM t WHERE NOT EXISTS (SELECT 1 FROM u WHERE u.a = t.a) ORDER BY a", "3"},
		{"SELECT (SELECT c FROM u WHERE u.a = t.a) FROM t ORDER BY a, b", "1.5;2.5;2.5;NULL"},
		{"SELECT a FROM t UNION SELECT a FROM u ORDER BY a", "1;2;3;9"},
		{"SELECT a FROM t UNION ALL SELECT a FROM u ORDER BY a LIMIT 3", "1;1;2"},
		{"SELECT a FROM t INTERSECT SELECT a FROM u ORDER BY a", "1;2"},
		{"SELECT a FROM t EXCEPT SELECT a FROM u ORDER BY a", "3"},
		{"SELECT column1, column2 FROM (VALUES (1, 'x'), (2, 'y')) AS v ORDER BY column1", "1,x;2,y"},
		{"SELECT t.* FROM t WHERE a = 3", "3,three"},
	}
	for _, c := range cases {
		if got := rowsOf(t, s, c.sql); got != c.want {
			t.Errorf("%s\n got: %q\nwant: %q", c.sql, got, c.want)
		}
	}
}

func TestLateralJoins(t *testing.T) {
	s := New().NewSession()
	setupBasicTables(t, s)
	cases := []struct{ sql, want string }{
		// The compiler's let-chain shape.
		{"SELECT v3 FROM (SELECT 1) AS _0(v1) LEFT JOIN LATERAL (SELECT v1 + 1) AS _1(v2) ON true LEFT JOIN LATERAL (SELECT v2 * 10) AS _2(v3) ON true", "20"},
		// Comma + LATERAL, correlated to a table.
		{"SELECT t.a, x.d FROM t, LATERAL (SELECT t.a * 2 AS d) AS x WHERE t.a < 3 ORDER BY t.a, t.b", "1,2;2,4;2,4"},
		// LATERAL subquery with FROM inside.
		{"SELECT t.a, m.mx FROM t, LATERAL (SELECT max(u.c) AS mx FROM u WHERE u.a = t.a) AS m ORDER BY t.a, t.b", "1,1.5;2,2.5;2,2.5;3,NULL"},
		// Three-level nesting with outer references crossing two scopes.
		{"SELECT (SELECT (SELECT t.a + u.a FROM u WHERE u.a = 9) FROM t WHERE t.a = 3)", "12"},
	}
	for _, c := range cases {
		if got := rowsOf(t, s, c.sql); got != c.want {
			t.Errorf("%s\n got: %q\nwant: %q", c.sql, got, c.want)
		}
	}
}

func TestMissingLateralError(t *testing.T) {
	s := New().NewSession()
	setupBasicTables(t, s)
	_, err := s.Query("SELECT * FROM t, (SELECT t.a) AS x")
	if err == nil || !strings.Contains(err.Error(), "LATERAL") {
		t.Errorf("expected missing-LATERAL error, got %v", err)
	}
}

func TestWindowFunctions(t *testing.T) {
	s := New().NewSession()
	err := s.Exec(`
		CREATE TABLE w (g text, o int, v float);
		INSERT INTO w VALUES ('a', 1, 10), ('a', 2, 20), ('a', 2, 5), ('a', 3, 40), ('b', 1, 100);
	`)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct{ sql, want string }{
		// Default frame: RANGE UNBOUNDED PRECEDING..CURRENT ROW with peers.
		{"SELECT o, SUM(v) OVER (PARTITION BY g ORDER BY o) FROM w WHERE g = 'a' ORDER BY o, v", "1,10;2,35;2,35;3,75"},
		// ROWS UNBOUNDED PRECEDING excludes later peers.
		{"SELECT row_number() OVER (PARTITION BY g ORDER BY o, v) FROM w WHERE g = 'a' ORDER BY 1", "1;2;3;4"},
		{"SELECT rank() OVER (PARTITION BY g ORDER BY o) FROM w WHERE g = 'a' ORDER BY 1", "1;2;2;4"},
		{"SELECT dense_rank() OVER (PARTITION BY g ORDER BY o) FROM w WHERE g = 'a' ORDER BY 1", "1;2;2;3"},
		{"SELECT count(*) OVER () FROM w ORDER BY 1 LIMIT 1", "5"},
		// The paper's walk() windows: cumulative probability lo/hi bounds.
		{`SELECT o, COALESCE(SUM(v) OVER lt, 0.0) AS lo, SUM(v) OVER leq AS hi
		  FROM w WHERE g = 'a' AND o <> 2
		  WINDOW leq AS (ORDER BY o),
		         lt AS (leq ROWS UNBOUNDED PRECEDING EXCLUDE CURRENT ROW)
		  ORDER BY o`, "1,0,10;3,10,50"},
	}
	for _, c := range cases {
		if got := rowsOf(t, s, c.sql); got != c.want {
			t.Errorf("%s\n got: %q\nwant: %q", c.sql, got, c.want)
		}
	}
}

func TestWalkMovementQueryShape(t *testing.T) {
	// The verbatim Q2 of the paper's Figure 3, with the PL/SQL variables as
	// parameters.
	s := New().NewSession()
	err := s.Exec(`
		CREATE TABLE actions (here coord, action text, there coord, prob float);
		INSERT INTO actions VALUES
			(coord(3,2), '→', coord(4,2), 0.8),
			(coord(3,2), '→', coord(3,3), 0.1),
			(coord(3,2), '→', coord(3,2), 0.1);
	`)
	if err != nil {
		t.Fatal(err)
	}
	q := `SELECT move.loc
	 FROM (SELECT a.there AS loc,
	              COALESCE(SUM(a.prob) OVER lt, 0.0) AS lo,
	              SUM(a.prob) OVER leq AS hi
	       FROM actions AS a
	       WHERE $1 = a.here AND $2 = a.action
	       WINDOW leq AS (ORDER BY a.there),
	              lt AS (leq ROWS UNBOUNDED PRECEDING EXCLUDE CURRENT ROW)
	      ) AS move(loc, lo, hi)
	 WHERE $3 BETWEEN move.lo AND move.hi`
	// Coord ordering: (3,2) < (3,3) < (4,2); cumulative windows are
	// [0,0.1), [0.1,0.2), [0.2,1.0].
	for _, c := range []struct {
		roll float64
		want string
	}{
		{0.05, "(3,2)"},
		{0.15, "(3,3)"},
		{0.5, "(4,2)"},
		{0.95, "(4,2)"},
	} {
		got := rowsOf(t, s, q, sqltypes.NewCoord(3, 2), sqltypes.NewText("→"), sqltypes.NewFloat(c.roll))
		if got != c.want {
			t.Errorf("roll %.2f: got %q, want %q", c.roll, got, c.want)
		}
	}
}

func TestCTEs(t *testing.T) {
	s := New().NewSession()
	setupBasicTables(t, s)
	cases := []struct{ sql, want string }{
		{"WITH x AS (SELECT a + 10 AS n FROM t) SELECT max(n) FROM x", "13"},
		{"WITH x(n) AS (SELECT 1), y(m) AS (SELECT n + 1 FROM x) SELECT m FROM y", "2"},
		// Recursive: factorial-style accumulation.
		{"WITH RECURSIVE f(n, acc) AS (SELECT 1, 1 UNION ALL SELECT n + 1, acc * (n + 1) FROM f WHERE n < 5) SELECT max(acc) FROM f", "120"},
		// Recursive UNION (distinct) terminates cycles.
		{"WITH RECURSIVE c(n) AS (SELECT 0 UNION SELECT (n + 1) % 3 FROM c) SELECT count(*) FROM c", "3"},
		// The paper's template shape: run("call?", …) with quoted column.
		{`WITH RECURSIVE run("call?", n, result) AS (
			SELECT true, 0, CAST(NULL AS int)
			UNION ALL
			SELECT iter.*
			FROM run AS r, LATERAL (
				SELECT CASE WHEN r.n < 3 THEN true ELSE false END,
				       r.n + 1,
				       CASE WHEN r.n < 3 THEN NULL ELSE r.n * 10 END
			) AS iter("call?", n, result)
			WHERE r."call?")
		  SELECT r.result FROM run AS r WHERE NOT r."call?"`, "30"},
		// WITH ITERATE keeps only the final working table.
		{"WITH ITERATE f(n, acc) AS (SELECT 1, 1 UNION ALL SELECT n + 1, acc * (n + 1) FROM f WHERE n < 5) SELECT n, acc FROM f", "5,120"},
	}
	for _, c := range cases {
		if got := rowsOf(t, s, c.sql); got != c.want {
			t.Errorf("%s\n got: %q\nwant: %q", c.sql, got, c.want)
		}
	}
}

func TestRecursionLimit(t *testing.T) {
	s := New(WithMaxRecursion(1000)).NewSession()
	_, err := s.Query("WITH RECURSIVE f(n) AS (SELECT 1 UNION ALL SELECT n FROM f) SELECT count(*) FROM f LIMIT 1")
	if err == nil {
		t.Skip("unbounded recursion unexpectedly completed") // guarded by MaxRecursion
	}
	if !strings.Contains(err.Error(), "recursion limit") {
		t.Errorf("want recursion limit error, got %v", err)
	}
}

func TestDML(t *testing.T) {
	s := New().NewSession()
	setupBasicTables(t, s)
	if err := s.Exec("UPDATE t SET a = a + 10 WHERE b = 'two'"); err != nil {
		t.Fatal(err)
	}
	if got := rowsOf(t, s, "SELECT a FROM t WHERE b = 'two'"); got != "12" {
		t.Errorf("update: %q", got)
	}
	if err := s.Exec("DELETE FROM t WHERE a >= 10"); err != nil {
		t.Fatal(err)
	}
	if got := rowsOf(t, s, "SELECT count(*) FROM t"); got != "3" {
		t.Errorf("delete: %q", got)
	}
	if err := s.Exec("INSERT INTO t (b, a) VALUES ('five', 5)"); err != nil {
		t.Fatal(err)
	}
	if got := rowsOf(t, s, "SELECT b FROM t WHERE a = 5"); got != "five" {
		t.Errorf("insert with column list: %q", got)
	}
	if err := s.Exec("INSERT INTO t SELECT a + 100, b FROM t WHERE a = 5"); err != nil {
		t.Fatal(err)
	}
	if got := rowsOf(t, s, "SELECT a FROM t WHERE a > 100"); got != "105" {
		t.Errorf("insert-select: %q", got)
	}
	if err := s.Exec("DROP TABLE u"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Query("SELECT * FROM u"); err == nil {
		t.Error("query after drop should fail")
	}
}

func TestPLpgSQLFunctionEndToEnd(t *testing.T) {
	s := New().NewSession()
	err := s.Exec(`
CREATE FUNCTION fib(n int) RETURNS int AS $$
DECLARE
  a int = 0;
  b int = 1;
  tmp int;
BEGIN
  FOR i IN 1..n LOOP
    tmp = a + b;
    a = b;
    b = tmp;
  END LOOP;
  RETURN a;
END;
$$ LANGUAGE plpgsql`)
	if err != nil {
		t.Fatal(err)
	}
	if got := rowsOf(t, s, "SELECT fib(10)"); got != "55" {
		t.Errorf("fib(10) = %q", got)
	}
	// Called per row from a query: Q→f context switches counted.
	s.Counters().Reset()
	if got := rowsOf(t, s, "SELECT fib(n) FROM (VALUES (1), (2), (3), (4), (5)) AS v(n) ORDER BY 1"); got != "1;1;2;3;5" {
		t.Errorf("fib over rows: %q", got)
	}
	if s.Counters().CtxSwitchQF != 5 {
		t.Errorf("Q→f switches = %d, want 5", s.Counters().CtxSwitchQF)
	}
	// fib is all fast-path: no executor starts from the interpreter.
	if s.Counters().CtxSwitchFQ != 0 {
		t.Errorf("f→Q switches = %d, want 0 (fast path only)", s.Counters().CtxSwitchFQ)
	}
}

func TestPLpgSQLWithEmbeddedQueries(t *testing.T) {
	e := New()
	s := e.NewSession()
	err := s.Exec(`
		CREATE TABLE scores (id int, pts int);
		INSERT INTO scores VALUES (1, 10), (2, 20), (3, 30);
		CREATE FUNCTION total_above(threshold int) RETURNS int AS $$
		DECLARE
		  total int = 0;
		  i int = 1;
		  v int;
		BEGIN
		  WHILE i <= 3 LOOP
		    v = (SELECT s.pts FROM scores AS s WHERE s.id = i);
		    IF v > threshold THEN
		      total = total + v;
		    END IF;
		    i = i + 1;
		  END LOOP;
		  RETURN total;
		END;
		$$ LANGUAGE plpgsql`)
	if err != nil {
		t.Fatal(err)
	}
	s.Counters().Reset()
	if got := rowsOf(t, s, "SELECT total_above(15)"); got != "50" {
		t.Errorf("total_above(15) = %q", got)
	}
	c := s.Counters()
	if c.CtxSwitchFQ != 3 {
		t.Errorf("f→Qi switches = %d, want 3 (one per embedded query eval)", c.CtxSwitchFQ)
	}
	// 3 interpreter starts plus the outer query's own start.
	if c.ExecutorStarts != 4 {
		t.Errorf("executor starts = %d, want 4", c.ExecutorStarts)
	}
	if c.ExecStartNS <= 0 || c.ExecEndNS <= 0 || c.InterpNS <= 0 {
		t.Errorf("phase buckets should be positive: %+v", c)
	}
	// Plan cache: 3 evaluations of the same statement = 1 miss + 2 hits.
	hits, misses := e.PlanCache().Stats()
	if misses == 0 || hits < 2 {
		t.Errorf("plan cache hits=%d misses=%d, expected reuse", hits, misses)
	}
}

func TestPLpgSQLControlFlow(t *testing.T) {
	s := New().NewSession()
	err := s.Exec(`
		CREATE FUNCTION collatz(n int) RETURNS int AS $$
		DECLARE steps int = 0;
		BEGIN
		  LOOP
		    EXIT WHEN n = 1;
		    IF n % 2 = 0 THEN n = n / 2; ELSE n = 3 * n + 1; END IF;
		    steps = steps + 1;
		  END LOOP;
		  RETURN steps;
		END;
		$$ LANGUAGE plpgsql;
		CREATE FUNCTION skipper() RETURNS int AS $$
		DECLARE s int = 0;
		BEGIN
		  FOR i IN 1..10 LOOP
		    CONTINUE WHEN i % 2 = 0;
		    s = s + i;
		  END LOOP;
		  RETURN s;
		END;
		$$ LANGUAGE plpgsql;
		CREATE FUNCTION rev() RETURNS int AS $$
		DECLARE s int = 0;
		BEGIN
		  FOR i IN REVERSE 5..1 LOOP
		    s = s * 10 + i;
		  END LOOP;
		  RETURN s;
		END;
		$$ LANGUAGE plpgsql`)
	if err != nil {
		t.Fatal(err)
	}
	if got := rowsOf(t, s, "SELECT collatz(27)"); got != "111" {
		t.Errorf("collatz(27) = %q, want 111", got)
	}
	if got := rowsOf(t, s, "SELECT skipper()"); got != "25" {
		t.Errorf("skipper() = %q, want 25", got)
	}
	if got := rowsOf(t, s, "SELECT rev()"); got != "54321" {
		t.Errorf("rev() = %q, want 54321", got)
	}
}

func TestPLpgSQLRecursiveCall(t *testing.T) {
	s := New().NewSession()
	err := s.Exec(`
		CREATE FUNCTION factr(n int) RETURNS int AS $$
		BEGIN
		  IF n <= 1 THEN RETURN 1; END IF;
		  RETURN n * factr(n - 1);
		END;
		$$ LANGUAGE plpgsql`)
	if err != nil {
		t.Fatal(err)
	}
	if got := rowsOf(t, s, "SELECT factr(6)"); got != "720" {
		t.Errorf("factr(6) = %q", got)
	}
}

func TestRaiseAndPerform(t *testing.T) {
	s := New().NewSession()
	err := s.Exec(`
		CREATE TABLE logt (x int);
		CREATE FUNCTION noisy(n int) RETURNS int AS $$
		BEGIN
		  RAISE NOTICE 'n is %', n;
		  PERFORM SELECT count(*) FROM logt;
		  IF n < 0 THEN RAISE EXCEPTION 'negative input %', n; END IF;
		  RETURN n;
		END;
		$$ LANGUAGE plpgsql`)
	if err != nil {
		t.Fatal(err)
	}
	if got := rowsOf(t, s, "SELECT noisy(7)"); got != "7" {
		t.Errorf("noisy(7) = %q", got)
	}
	if len(s.Counters().Notices) == 0 || !strings.Contains(s.Counters().Notices[0], "n is 7") {
		t.Errorf("notices: %v", s.Counters().Notices)
	}
	if _, err := s.Query("SELECT noisy(-1)"); err == nil || !strings.Contains(err.Error(), "negative input") {
		t.Errorf("raise exception: %v", err)
	}
}

func TestSQLLanguageFunction(t *testing.T) {
	s := New().NewSession()
	err := s.Exec(`
		CREATE FUNCTION add2(x int, y int) RETURNS int AS $$
		  SELECT x + y
		$$ LANGUAGE sql`)
	if err != nil {
		t.Fatal(err)
	}
	if got := rowsOf(t, s, "SELECT add2(40, 2)"); got != "42" {
		t.Errorf("add2 = %q", got)
	}
}

func TestSQLiteProfileRestrictions(t *testing.T) {
	s := New(WithProfile(profile.SQLite)).NewSession()
	err := s.Exec("CREATE FUNCTION f(n int) RETURNS int AS $$ BEGIN RETURN n; END; $$ LANGUAGE plpgsql")
	if err == nil || !strings.Contains(err.Error(), "no PL/SQL support") {
		t.Errorf("sqlite must reject plpgsql: %v", err)
	}
	if err := s.Exec("CREATE TABLE t (a int); INSERT INTO t VALUES (1)"); err != nil {
		t.Fatal(err)
	}
	_, err = s.Query("SELECT * FROM t, LATERAL (SELECT t.a + 1) AS x(b)")
	if err == nil || !strings.Contains(err.Error(), "LATERAL") {
		t.Errorf("sqlite must reject LATERAL: %v", err)
	}
	// The nested-derived-table rewrite shape works.
	if got := rowsOf(t, s, "SELECT b FROM (SELECT inner1.*, a + 1 AS b FROM (SELECT a FROM t) AS inner1) AS outer1"); got != "2" {
		t.Errorf("nested rewrite: %q", got)
	}
}

func TestDeterministicRandom(t *testing.T) {
	s := New(WithSeed(7)).NewSession()
	a := rowsOf(t, s, "SELECT random()")
	s.Seed(7)
	b := rowsOf(t, s, "SELECT random()")
	if a != b {
		t.Errorf("same seed must give same stream: %q vs %q", a, b)
	}
	c := rowsOf(t, s, "SELECT random()")
	if b == c {
		t.Errorf("stream must advance: %q vs %q", b, c)
	}
}

func TestQueryErrors(t *testing.T) {
	s := New().NewSession()
	setupBasicTables(t, s)
	bad := []string{
		"SELECT nosuch FROM t",
		"SELECT * FROM nosuch",
		"SELECT nosuchfn(1)",
		"SELECT a FROM t GROUP BY a HAVING b > 1", // b not grouped
		"SELECT sum(a) FROM t WHERE sum(a) > 1",   // agg in WHERE
		"SELECT (SELECT a, b FROM t)",             // 2-col scalar subquery
		"SELECT a FROM t ORDER BY nosuch",
		"SELECT 1/0",
		"SELECT a FROM t WHERE a = 'x'", // type mismatch in comparison
	}
	for _, sql := range bad {
		if _, err := s.Query(sql); err == nil {
			t.Errorf("Query(%q) should error", sql)
		}
	}
}

func TestResultFormat(t *testing.T) {
	s := New().NewSession()
	setupBasicTables(t, s)
	res, err := s.Query("SELECT a, b FROM t ORDER BY a, b LIMIT 2")
	if err != nil {
		t.Fatal(err)
	}
	out := res.Format()
	for _, want := range []string{"a", "b", "one", "two", "(2 rows)"} {
		if !strings.Contains(out, want) {
			t.Errorf("Format missing %q:\n%s", want, out)
		}
	}
}

// TestSubqueryKeepsEnclosingState: planning a subquery nested in a
// grouped or windowed SELECT leaves that SELECT's aggregate and window
// bindings in place. Each statement is one PostgreSQL answers.
func TestSubqueryKeepsEnclosingState(t *testing.T) {
	s := New().NewSession()
	mustExec(t, s, "CREATE TABLE u (id int, g int); INSERT INTO u VALUES (1, 1), (2, 1), (3, 2)")
	cases := []struct{ sql, want string }{
		{"SELECT id, row_number() OVER (PARTITION BY (SELECT 1)) FROM u", "1,1;2,2;3,3"},
		{"SELECT id, lag(id, (SELECT 1)) OVER (ORDER BY id) FROM u", "1,NULL;2,1;3,2"},
		{"SELECT id, row_number() OVER (ORDER BY (SELECT 1), id DESC) FROM u ORDER BY id", "1,3;2,2;3,1"},
		{"SELECT g, count(*) FROM u GROUP BY g HAVING count(*) > (SELECT 0) ORDER BY g", "1,2;2,1"},
		{"SELECT g, (SELECT 5), count(*) FROM u GROUP BY g ORDER BY g", "1,5,2;2,5,1"},
		{"SELECT id, (SELECT 7), row_number() OVER (ORDER BY id) FROM u", "1,7,1;2,7,2;3,7,3"},
	}
	for _, c := range cases {
		if got := rowsOf(t, s, c.sql); got != c.want {
			t.Errorf("%s\n got %s\nwant %s", c.sql, got, c.want)
		}
	}
}
