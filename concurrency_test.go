// Concurrency stress tests for the session layer: many sessions execute
// compiled and interpreted UDFs against one shared engine while another
// goroutine interleaves DDL and DML. Run with -race (the CI race job does)
// to prove the locking discipline: shared catalog/storage/plan-cache reads
// under the read lock, DDL/DML exclusive, per-session mutable state
// unshared.
package plsqlaway_test

import (
	"fmt"
	"sync"
	"testing"

	"plsqlaway"
	"plsqlaway/internal/sqltypes"
	"plsqlaway/internal/workload"
)

// installCorpusTwins installs interpreted + compiled walk/parse/traverse.
func installCorpusTwins(t *testing.T, s *plsqlaway.Session) {
	t.Helper()
	for _, name := range []string{"walk", "parse", "traverse"} {
		src := workload.Corpus[name]
		if err := s.Exec(src); err != nil {
			t.Fatal(err)
		}
		res, err := plsqlaway.Compile(src, plsqlaway.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if err := plsqlaway.Install(s, name+"_c", res); err != nil {
			t.Fatal(err)
		}
	}
}

// TestConcurrentSessions runs ≥8 sessions of mixed compiled/interpreted
// UDF calls concurrently and checks every session computes the exact
// values a lone session computes.
func TestConcurrentSessions(t *testing.T) {
	const sessions = 8
	const rounds = 6

	e := newWorkloadEngine(t)
	ref := e.NewSession()
	installCorpusTwins(t, ref)
	parseInput := plsqlaway.Text(workload.MakeParseInput(200, 11))

	type call struct {
		name string
		sql  string
		args []plsqlaway.Value
	}
	calls := []call{
		{"walk_c", "SELECT walk_c($1, 1000000, -1000000, 80)", []plsqlaway.Value{plsqlaway.Coord(2, 2)}},
		{"walk", "SELECT walk($1, 1000000, -1000000, 80)", []plsqlaway.Value{plsqlaway.Coord(2, 2)}},
		{"parse_c", "SELECT parse_c($1)", []plsqlaway.Value{parseInput}},
		{"parse", "SELECT parse($1)", []plsqlaway.Value{parseInput}},
		{"traverse_c", "SELECT traverse_c(0, 400)", nil},
		{"traverse", "SELECT traverse(0, 400)", nil},
	}

	// Expected values from a quiet reference session, one seed per call.
	want := make([]plsqlaway.Value, len(calls))
	for i, c := range calls {
		ref.Seed(7)
		v, err := ref.QueryValue(c.sql, c.args...)
		if err != nil {
			t.Fatalf("reference %s: %v", c.name, err)
		}
		want[i] = v
	}

	var wg sync.WaitGroup
	errs := make(chan error, sessions*rounds*len(calls))
	for w := 0; w < sessions; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			s := e.NewSession()
			for r := 0; r < rounds; r++ {
				// Stagger the call order per session so different
				// statements contend at the same instant.
				for k := range calls {
					c := calls[(w+r+k)%len(calls)]
					i := (w + r + k) % len(calls)
					s.Seed(7)
					v, err := s.QueryValue(c.sql, c.args...)
					if err != nil {
						errs <- fmt.Errorf("session %d round %d %s: %w", w, r, c.name, err)
						return
					}
					if !sqltypes.Identical(v, want[i]) {
						errs <- fmt.Errorf("session %d round %d %s: got %v want %v", w, r, c.name, v, want[i])
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestConcurrentSessionsWithDDL adds writers: while 8 query sessions
// hammer compiled and interpreted UDFs, two DDL/DML sessions create, fill,
// query, and drop private scratch tables and repeatedly CREATE OR REPLACE
// a function. The readers-writer lock must keep every query on a
// consistent snapshot and invalidate cached plans as versions move.
func TestConcurrentSessionsWithDDL(t *testing.T) {
	const readers = 8
	const writers = 2
	const rounds = 5

	e := newWorkloadEngine(t)
	ref := e.NewSession()
	installCorpusTwins(t, ref)
	parseInput := plsqlaway.Text(workload.MakeParseInput(120, 11))

	ref.Seed(3)
	wantWalk, err := ref.QueryValue("SELECT walk_c($1, 1000000, -1000000, 60)", plsqlaway.Coord(1, 1))
	if err != nil {
		t.Fatal(err)
	}
	ref.Seed(3)
	wantParse, err := ref.QueryValue("SELECT parse($1)", parseInput)
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	errs := make(chan error, (readers+writers)*rounds*4)

	for w := 0; w < readers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			s := e.NewSession()
			for r := 0; r < rounds; r++ {
				s.Seed(3)
				v, err := s.QueryValue("SELECT walk_c($1, 1000000, -1000000, 60)", plsqlaway.Coord(1, 1))
				if err != nil {
					errs <- fmt.Errorf("reader %d: walk_c: %w", w, err)
					return
				}
				if !sqltypes.Identical(v, wantWalk) {
					errs <- fmt.Errorf("reader %d: walk_c got %v want %v", w, v, wantWalk)
					return
				}
				s.Seed(3)
				v, err = s.QueryValue("SELECT parse($1)", parseInput)
				if err != nil {
					errs <- fmt.Errorf("reader %d: parse: %w", w, err)
					return
				}
				if !sqltypes.Identical(v, wantParse) {
					errs <- fmt.Errorf("reader %d: parse got %v want %v", w, v, wantParse)
					return
				}
			}
		}(w)
	}

	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			s := e.NewSession()
			for r := 0; r < rounds; r++ {
				tbl := fmt.Sprintf("scratch_%d_%d", w, r)
				script := fmt.Sprintf(`
					CREATE TABLE %[1]s (a int, b text);
					INSERT INTO %[1]s VALUES (1, 'one'), (2, 'two'), (3, 'three');
					UPDATE %[1]s SET a = a * 10 WHERE b <> 'two';
					DELETE FROM %[1]s WHERE a = 2;
				`, tbl)
				if err := s.Exec(script); err != nil {
					errs <- fmt.Errorf("writer %d round %d: %w", w, r, err)
					return
				}
				v, err := s.QueryValue(fmt.Sprintf("SELECT sum(a) FROM %s", tbl))
				if err != nil {
					errs <- fmt.Errorf("writer %d round %d: sum: %w", w, r, err)
					return
				}
				if v.Int() != 40 { // 10 + 30; the (2, 'two') row was deleted
					errs <- fmt.Errorf("writer %d round %d: sum=%v want 40", w, r, v)
					return
				}
				fn := fmt.Sprintf("bump_%d", w)
				def := fmt.Sprintf(`CREATE OR REPLACE FUNCTION %s(x int) RETURNS int AS $$
					BEGIN RETURN x + %d; END; $$ LANGUAGE plpgsql`, fn, r)
				if err := s.Exec(def); err != nil {
					errs <- fmt.Errorf("writer %d round %d: create function: %w", w, r, err)
					return
				}
				v, err = s.QueryValue(fmt.Sprintf("SELECT %s(100)", fn))
				if err != nil {
					errs <- fmt.Errorf("writer %d round %d: call: %w", w, r, err)
					return
				}
				if v.Int() != int64(100+r) {
					errs <- fmt.Errorf("writer %d round %d: %s(100)=%v want %d", w, r, fn, v, 100+r)
					return
				}
				if err := s.Exec(fmt.Sprintf("DROP TABLE %s", tbl)); err != nil {
					errs <- fmt.Errorf("writer %d round %d: drop: %w", w, r, err)
					return
				}
			}
		}(w)
	}

	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestPreparedStatementsAcrossSessions checks per-session prepared
// statements running concurrently, including plan-cache invalidation when
// DDL moves the catalog version mid-stream.
func TestPreparedStatementsAcrossSessions(t *testing.T) {
	e := plsqlaway.NewEngine()
	if err := e.NewSession().Exec("CREATE TABLE kv (k int, v int); INSERT INTO kv VALUES (1, 10), (2, 20), (3, 30)"); err != nil {
		t.Fatal(err)
	}

	const sessions = 8
	var wg sync.WaitGroup
	errs := make(chan error, sessions)
	for w := 0; w < sessions; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			s := e.NewSession()
			p, err := s.Prepare("SELECT sum(v) FROM kv WHERE k <= $1")
			if err != nil {
				errs <- err
				return
			}
			for r := 0; r < 20; r++ {
				v, err := p.QueryValue(plsqlaway.Int(2))
				if err != nil {
					errs <- fmt.Errorf("session %d: %w", w, err)
					return
				}
				if v.Int() != 30 {
					errs <- fmt.Errorf("session %d: got %v want 30", w, v)
					return
				}
				if w == 0 && r%5 == 0 {
					// DDL from the same session between executions: the
					// shared plan cache must invalidate, the prepared
					// statement must replan transparently.
					tbl := fmt.Sprintf("pp_%d", r)
					if err := s.Exec(fmt.Sprintf("CREATE TABLE %[1]s (x int); DROP TABLE %[1]s", tbl)); err != nil {
						errs <- err
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
