package engine

import (
	"testing"

	"plsqlaway/internal/sqltypes"
)

// TestSessionIsolation: sessions share the catalog but keep private
// random streams and counters.
func TestSessionIsolation(t *testing.T) {
	e := New(WithSeed(42))
	s1, s2 := e.NewSession(), e.NewSession()
	if err := s1.Exec("CREATE TABLE t (a int); INSERT INTO t VALUES (1), (2), (3)"); err != nil {
		t.Fatal(err)
	}

	// Shared schema: both sessions see s1's table.
	for i, s := range []*Session{s1, s2} {
		v, err := s.QueryValue("SELECT sum(a) FROM t")
		if err != nil || v.Int() != 6 {
			t.Fatalf("session %d: sum=%v err=%v", i, v, err)
		}
	}

	// Private random streams: identical seeds give identical draws, and
	// one session drawing does not disturb the other.
	s1.Seed(7)
	s2.Seed(7)
	a, _ := s1.QueryValue("SELECT random()")
	_, _ = s1.QueryValue("SELECT random()") // advance s1 only
	b, _ := s2.QueryValue("SELECT random()")
	if !sqltypes.Identical(a, b) {
		t.Errorf("same seed, different first draw: %v vs %v", a, b)
	}

	// Private counters.
	if s2.Counters().QueriesRun == s1.Counters().QueriesRun {
		t.Errorf("counters look shared: s1=%d s2=%d", s1.Counters().QueriesRun, s2.Counters().QueriesRun)
	}
}

// TestSessionDDLVisibility: DDL through one session is immediately
// visible to the others (single shared catalog, no snapshots across
// statements).
func TestSessionDDLVisibility(t *testing.T) {
	e := New()
	s1, s2 := e.NewSession(), e.NewSession()
	if err := s1.Exec("CREATE TABLE u (x int); INSERT INTO u VALUES (5)"); err != nil {
		t.Fatal(err)
	}
	v, err := s2.QueryValue("SELECT x FROM u")
	if err != nil || v.Int() != 5 {
		t.Fatalf("s2 does not see s1's DDL: %v %v", v, err)
	}
	if err := s2.Exec("DROP TABLE u"); err != nil {
		t.Fatal(err)
	}
	if _, err := s1.Query("SELECT * FROM u"); err == nil {
		t.Error("s1 still sees dropped table")
	}
}

// TestPreparedStatement covers the prepared path: reads, parameter
// binding, DML, and replanning after DDL invalidates the cached plan.
func TestPreparedStatement(t *testing.T) {
	s := New().NewSession()
	if err := s.Exec("CREATE TABLE kv (k int, v int); INSERT INTO kv VALUES (1, 10), (2, 20)"); err != nil {
		t.Fatal(err)
	}

	q, err := s.Prepare("SELECT v FROM kv WHERE k = $1")
	if err != nil {
		t.Fatal(err)
	}
	v, err := q.QueryValue(sqltypes.NewInt(2))
	if err != nil || v.Int() != 20 {
		t.Fatalf("prepared read: %v %v", v, err)
	}

	ins, err := s.Prepare("INSERT INTO kv VALUES (3, 30)")
	if err != nil {
		t.Fatal(err)
	}
	if err := ins.Exec(); err != nil {
		t.Fatal(err)
	}
	v, err = q.QueryValue(sqltypes.NewInt(3))
	if err != nil || v.Int() != 30 {
		t.Fatalf("prepared read after DML: %v %v", v, err)
	}

	// DDL bumps the catalog version; the prepared statement must replan.
	if err := s.Exec("CREATE TABLE other (z int)"); err != nil {
		t.Fatal(err)
	}
	v, err = q.QueryValue(sqltypes.NewInt(1))
	if err != nil || v.Int() != 10 {
		t.Fatalf("prepared read after DDL: %v %v", v, err)
	}
}

// TestInterpPlanCacheCrossSession is a regression test for the shared
// plan cache serving one session's plan for a different session's
// statement. The interpreter compiles embedded-query sites lazily in call
// order, so if cache keys encoded a per-session site counter, session A
// calling pick(1) first (compiling the THEN branch as site 1) and session
// B calling pick(0) first (compiling the ELSE branch as its site 1)
// would collide — B would silently get A's plan and return sum() instead
// of count(). Keys are content-addressed now; both branches must answer
// correctly regardless of which session compiled first.
func TestInterpPlanCacheCrossSession(t *testing.T) {
	e := New()
	s := e.NewSession()
	if err := s.Exec(`
		CREATE TABLE t (v int);
		INSERT INTO t VALUES (1), (2), (3);
		CREATE FUNCTION pick(b int) RETURNS int AS $$
		DECLARE r int;
		BEGIN
		  IF b = 1 THEN
		    r = (SELECT sum(v) FROM t);
		  ELSE
		    r = (SELECT count(*) FROM t);
		  END IF;
		  RETURN r;
		END;
		$$ LANGUAGE plpgsql`); err != nil {
		t.Fatal(err)
	}
	s1, s2 := e.NewSession(), e.NewSession()
	if v, err := s1.QueryValue("SELECT pick(1)"); err != nil || v.Int() != 6 {
		t.Fatalf("s1 pick(1) = %v, %v; want 6 (sum)", v, err)
	}
	if v, err := s2.QueryValue("SELECT pick(0)"); err != nil || v.Int() != 3 {
		t.Fatalf("s2 pick(0) = %v, %v; want 3 (count) — shared plan cache served the wrong branch's plan", v, err)
	}
	// And the other way round, on fresh sessions.
	s3, s4 := e.NewSession(), e.NewSession()
	if v, err := s3.QueryValue("SELECT pick(0)"); err != nil || v.Int() != 3 {
		t.Fatalf("s3 pick(0) = %v, %v; want 3", v, err)
	}
	if v, err := s4.QueryValue("SELECT pick(1)"); err != nil || v.Int() != 6 {
		t.Fatalf("s4 pick(1) = %v, %v; want 6", v, err)
	}
}
