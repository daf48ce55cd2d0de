// Snapshot-isolation semantics tests: readers pinned to a snapshot must
// never observe a concurrent writer's half-applied statement, repeated
// reads inside one statement must be stable, and DDL racing readers must
// produce clean errors, never torn state. Run with -race (the CI race job
// does) with ≥8 concurrent sessions.
package plsqlaway_test

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"plsqlaway"
)

// TestSnapshotReaderStability flips every row of a table back and forth
// in single UPDATE statements while 8 reader sessions aggregate the
// table. Each UPDATE commits atomically, so a consistent snapshot shows
// either all-zeros or all-ones — a mixed result means a reader saw a
// commit mid-statement.
func TestSnapshotReaderStability(t *testing.T) {
	const readers = 8
	const flips = 40
	const tableRows = 256

	e := plsqlaway.NewEngine()
	var sb strings.Builder
	sb.WriteString("CREATE TABLE flip (k int, v int); INSERT INTO flip VALUES ")
	for i := 0; i < tableRows; i++ {
		if i > 0 {
			sb.WriteString(", ")
		}
		fmt.Fprintf(&sb, "(%d, 0)", i)
	}
	if err := e.NewSession().Exec(sb.String()); err != nil {
		t.Fatal(err)
	}

	var stop atomic.Bool
	var wg sync.WaitGroup
	errs := make(chan error, readers+1)

	wg.Add(1)
	go func() {
		defer wg.Done()
		defer stop.Store(true)
		s := e.NewSession()
		for i := 0; i < flips; i++ {
			if err := s.Exec("UPDATE flip SET v = 1 - v"); err != nil {
				errs <- fmt.Errorf("writer flip %d: %w", i, err)
				return
			}
		}
	}()

	for w := 0; w < readers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			s := e.NewSession()
			for !stop.Load() {
				res, err := s.Query("SELECT min(v), max(v), count(*) FROM flip")
				if err != nil {
					errs <- fmt.Errorf("reader %d: %w", w, err)
					return
				}
				lo, hi, n := res.Rows[0][0].Int(), res.Rows[0][1].Int(), res.Rows[0][2].Int()
				if lo != hi {
					errs <- fmt.Errorf("reader %d: torn snapshot, min=%d max=%d", w, lo, hi)
					return
				}
				if n != tableRows {
					errs <- fmt.Errorf("reader %d: count=%d, want %d", w, n, tableRows)
					return
				}
				// Repeated reads inside ONE statement must agree even while
				// commits land between statements: both subqueries scan the
				// same pinned snapshot.
				v, err := s.QueryValue("SELECT (SELECT sum(v) FROM flip) - (SELECT sum(v) FROM flip)")
				if err != nil {
					errs <- fmt.Errorf("reader %d: %w", w, err)
					return
				}
				if v.Int() != 0 {
					errs <- fmt.Errorf("reader %d: repeated read drifted by %d within one statement", w, v.Int())
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

// TestSnapshotInterleavedDDL drops and recreates a table while 8 reader
// sessions query it. A reader pinned to a snapshot from before a DROP
// keeps its table; a reader planning after the DROP gets a clean
// "does not exist" error. Anything else — a panic, a torn result, a
// strange error — fails the test.
func TestSnapshotInterleavedDDL(t *testing.T) {
	const readers = 8
	const churns = 30

	e := plsqlaway.NewEngine()
	if err := e.NewSession().Exec("CREATE TABLE phantom (x int); INSERT INTO phantom VALUES (1), (2), (3)"); err != nil {
		t.Fatal(err)
	}

	var stop atomic.Bool
	var wg sync.WaitGroup
	errs := make(chan error, readers+1)

	wg.Add(1)
	go func() {
		defer wg.Done()
		defer stop.Store(true)
		s := e.NewSession()
		for i := 0; i < churns; i++ {
			if err := s.Exec("DROP TABLE phantom"); err != nil {
				errs <- fmt.Errorf("drop %d: %w", i, err)
				return
			}
			if err := s.Exec("CREATE TABLE phantom (x int); INSERT INTO phantom VALUES (1), (2), (3)"); err != nil {
				errs <- fmt.Errorf("recreate %d: %w", i, err)
				return
			}
		}
	}()

	for w := 0; w < readers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			s := e.NewSession()
			for !stop.Load() {
				v, err := s.QueryValue("SELECT sum(x) FROM phantom")
				if err != nil {
					if strings.Contains(err.Error(), "does not exist") {
						continue // clean plan-time error: the snapshot has no phantom
					}
					errs <- fmt.Errorf("reader %d: unexpected error: %w", w, err)
					return
				}
				if v.Int() != 6 {
					errs <- fmt.Errorf("reader %d: sum=%d, want 6", w, v.Int())
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

// TestSnapshotWriterAtomicTransfer moves value between two rows in single
// UPDATE statements while readers check the conserved total — the classic
// bank-transfer anomaly test for snapshot reads.
func TestSnapshotWriterAtomicTransfer(t *testing.T) {
	const readers = 8
	const transfers = 60
	const accounts = 16
	const each = 1000

	e := plsqlaway.NewEngine()
	var sb strings.Builder
	sb.WriteString("CREATE TABLE acct (id int, bal int); INSERT INTO acct VALUES ")
	for i := 0; i < accounts; i++ {
		if i > 0 {
			sb.WriteString(", ")
		}
		fmt.Fprintf(&sb, "(%d, %d)", i, each)
	}
	if err := e.NewSession().Exec(sb.String()); err != nil {
		t.Fatal(err)
	}
	const total = accounts * each

	var stop atomic.Bool
	var wg sync.WaitGroup
	errs := make(chan error, readers+1)

	wg.Add(1)
	go func() {
		defer wg.Done()
		defer stop.Store(true)
		s := e.NewSession()
		for i := 0; i < transfers; i++ {
			from, to := i%accounts, (i*7+3)%accounts
			if from == to {
				continue
			}
			stmt := fmt.Sprintf(
				"UPDATE acct SET bal = bal + CASE id WHEN %d THEN -50 WHEN %d THEN 50 ELSE 0 END WHERE id = %d OR id = %d",
				from, to, from, to)
			if err := s.Exec(stmt); err != nil {
				errs <- fmt.Errorf("transfer %d: %w", i, err)
				return
			}
		}
	}()

	for w := 0; w < readers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			s := e.NewSession()
			for !stop.Load() {
				v, err := s.QueryValue("SELECT sum(bal) FROM acct")
				if err != nil {
					errs <- fmt.Errorf("reader %d: %w", w, err)
					return
				}
				if v.Int() != total {
					errs <- fmt.Errorf("reader %d: total=%d, want %d (saw a half-applied transfer)", w, v.Int(), total)
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
