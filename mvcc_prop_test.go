// Property-style MVCC test: randomized interleavings of INSERT, UPDATE,
// and DELETE across concurrent writer sessions, with reader sessions
// asserting that every scan equals the state after some serial prefix of
// the commit history. Each writer maintains invariants that hold after
// every one of its commits — its rows' sequence numbers form a contiguous
// range and its generation column is uniform — so any snapshot that is a
// prefix of the (totally ordered) commit history satisfies them, and any
// torn or non-prefix view violates one.
package plsqlaway_test

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"plsqlaway"
)

func TestMVCCRandomInterleavings(t *testing.T) {
	const writers = 4
	const readers = 8
	const opsPerWriter = 50

	e := plsqlaway.NewEngine()
	setup := e.NewSession()
	if err := setup.Exec("CREATE TABLE prop (wid int, seq int, gen int)"); err != nil {
		t.Fatal(err)
	}

	var stop atomic.Bool
	var wg sync.WaitGroup
	errs := make(chan error, writers+readers)

	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			s := e.NewSession()
			ins, err := s.Prepare("INSERT INTO prop VALUES ($1, $2, $3)")
			if err != nil {
				errs <- err
				return
			}
			del, err := s.Prepare("DELETE FROM prop WHERE wid = $1 AND seq = $2")
			if err != nil {
				errs <- err
				return
			}
			upd, err := s.Prepare("UPDATE prop SET gen = $2 WHERE wid = $1")
			if err != nil {
				errs <- err
				return
			}
			rng := rand.New(rand.NewSource(int64(1000 + w)))
			lo, hi, gen := 0, 0, 0
			for i := 0; i < opsPerWriter; i++ {
				var err error
				switch op := rng.Intn(10); {
				case op < 5: // append the next sequence number
					err = ins.Exec(plsqlaway.Int(int64(w)), plsqlaway.Int(int64(hi)), plsqlaway.Int(int64(gen)))
					hi++
				case op < 8 && lo < hi: // trim the lowest sequence number
					err = del.Exec(plsqlaway.Int(int64(w)), plsqlaway.Int(int64(lo)))
					lo++
				default: // bump every row to a fresh generation
					gen++
					err = upd.Exec(plsqlaway.Int(int64(w)), plsqlaway.Int(int64(gen)))
				}
				if err != nil {
					errs <- fmt.Errorf("writer %d op %d: %w", w, i, err)
					return
				}
			}
		}(w)
	}

	go func() {
		// Readers run until every writer finished.
		wg.Wait()
		stop.Store(true)
	}()

	var rg sync.WaitGroup
	for r := 0; r < readers; r++ {
		rg.Add(1)
		go func(r int) {
			defer rg.Done()
			s := e.NewSession()
			scan, err := s.Prepare("SELECT wid, seq, gen FROM prop")
			if err != nil {
				errs <- err
				return
			}
			for !stop.Load() {
				res, err := scan.Query()
				if err != nil {
					errs <- fmt.Errorf("reader %d: %w", r, err)
					return
				}
				seqs := make(map[int64][]int64)
				gens := make(map[int64]map[int64]bool)
				for _, row := range res.Rows {
					w, seq, gen := row[0].Int(), row[1].Int(), row[2].Int()
					seqs[w] = append(seqs[w], seq)
					if gens[w] == nil {
						gens[w] = map[int64]bool{}
					}
					gens[w][gen] = true
				}
				for w, ss := range seqs {
					// Contiguous range: min..max with no gaps and no dupes.
					min, max := ss[0], ss[0]
					seen := make(map[int64]bool, len(ss))
					for _, v := range ss {
						if v < min {
							min = v
						}
						if v > max {
							max = v
						}
						if seen[v] {
							errs <- fmt.Errorf("reader %d: writer %d: duplicate seq %d", r, w, v)
							return
						}
						seen[v] = true
					}
					if int(max-min)+1 != len(ss) {
						errs <- fmt.Errorf("reader %d: writer %d: non-contiguous seqs %v — not a prefix of its commit history", r, w, ss)
						return
					}
					if len(gens[w]) != 1 {
						errs <- fmt.Errorf("reader %d: writer %d: mixed generations %v — UPDATE observed half-applied", r, w, gens[w])
						return
					}
				}
			}
		}(r)
	}

	rg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	// Final state must equal the full commit history replayed serially:
	// recompute each writer's (lo, hi, gen) from its deterministic op
	// stream and compare.
	for w := 0; w < writers; w++ {
		rng := rand.New(rand.NewSource(int64(1000 + w)))
		lo, hi, gen := 0, 0, 0
		for i := 0; i < opsPerWriter; i++ {
			switch op := rng.Intn(10); {
			case op < 5:
				hi++
			case op < 8 && lo < hi:
				lo++
			default:
				gen++
			}
		}
		res, err := setup.Query("SELECT count(*), min(seq), max(seq), min(gen), max(gen) FROM prop WHERE wid = $1", plsqlaway.Int(int64(w)))
		if err != nil {
			t.Fatal(err)
		}
		row := res.Rows[0]
		if row[0].Int() != int64(hi-lo) {
			t.Errorf("writer %d: final count %d, want %d", w, row[0].Int(), hi-lo)
			continue
		}
		if hi-lo > 0 {
			if row[1].Int() != int64(lo) || row[2].Int() != int64(hi-1) {
				t.Errorf("writer %d: final range [%d,%d], want [%d,%d]", w, row[1].Int(), row[2].Int(), lo, hi-1)
			}
			if row[3].Int() != row[4].Int() {
				t.Errorf("writer %d: final generations mixed: %d..%d", w, row[3].Int(), row[4].Int())
			}
		}
	}
}

// TestMVCCFirstUpdaterWins runs rounds of deliberately overlapping
// explicit transactions — every writer buffers its UPDATE before any
// writer commits, enforced by a barrier — and checks the optimistic
// write path's core properties: (1) every commit conflict surfaces as
// ErrSerialization and nothing else; (2) per contended key, at least
// one writer wins each round (first updater) and later committers of
// the same key lose; (3) the final state equals the serial replay of
// the successful commits — each success incremented exactly one row
// once, so the table's sum must equal the number of successes.
func TestMVCCFirstUpdaterWins(t *testing.T) {
	const writers = 8
	const rounds = 40
	const rows = 4 // few rows + many writers = guaranteed overlap

	e := plsqlaway.NewEngine()
	setup := e.NewSession()
	if err := setup.Exec("CREATE TABLE acc (k int, v int)"); err != nil {
		t.Fatal(err)
	}
	for k := 0; k < rows; k++ {
		if err := setup.Exec(fmt.Sprintf("INSERT INTO acc VALUES (%d, 0)", k)); err != nil {
			t.Fatal(err)
		}
	}

	sessions := make([]*plsqlaway.Session, writers)
	for w := range sessions {
		sessions[w] = e.NewSession()
	}
	rng := rand.New(rand.NewSource(7001))

	var successes, conflicts int64
	for r := 0; r < rounds; r++ {
		keys := make([]int, writers)
		for w := range keys {
			keys[w] = rng.Intn(rows)
		}

		// Phase 1: every writer opens a block and buffers its update.
		// All snapshots are pinned before any commit, so two writers on
		// the same key MUST conflict at commit time.
		for w, s := range sessions {
			if err := s.Exec("BEGIN"); err != nil {
				t.Fatalf("round %d writer %d: BEGIN: %v", r, w, err)
			}
			if err := s.Exec(fmt.Sprintf("UPDATE acc SET v = v + 1 WHERE k = %d", keys[w])); err != nil {
				t.Fatalf("round %d writer %d: UPDATE: %v", r, w, err)
			}
		}

		// Phase 2: commit concurrently; tally outcomes per key.
		outcome := make([]error, writers)
		var wg sync.WaitGroup
		for w, s := range sessions {
			wg.Add(1)
			go func(w int, s *plsqlaway.Session) {
				defer wg.Done()
				outcome[w] = s.Exec("COMMIT")
			}(w, s)
		}
		wg.Wait()

		wonKey := make(map[int]int)
		for w, err := range outcome {
			switch {
			case err == nil:
				successes++
				wonKey[keys[w]]++
			case errors.Is(err, plsqlaway.ErrSerialization):
				conflicts++
			default:
				t.Fatalf("round %d writer %d: COMMIT failed with non-serialization error: %v", r, w, err)
			}
			if sessions[w].InTxn() {
				t.Fatalf("round %d writer %d: still in a block after COMMIT returned", r, w)
			}
		}
		// First-updater-wins, not all-updaters-lose: exactly one winner
		// per contended key each round.
		for _, k := range keys {
			if wonKey[k] != 1 {
				t.Fatalf("round %d: key %d had %d winning commits, want exactly 1", r, k, wonKey[k])
			}
		}
	}

	res, err := setup.Query("SELECT sum(v) FROM acc")
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Rows[0][0].Int(); got != successes {
		t.Errorf("sum(v) = %d, want %d (the number of successful commits): lost or duplicated an update",
			got, successes)
	}
	// 8 writers on 4 keys overlap every round by pigeonhole, so losers
	// must exist; zero conflicts would mean validation never fired.
	if conflicts == 0 {
		t.Errorf("no serialization conflicts across %d overlapping rounds — first-updater-wins validation never fired", rounds)
	}
	t.Logf("commits=%d conflicts=%d", successes, conflicts)
}

// TestMVCCVacuumSavepoint pins a snapshot with a long-lived transaction
// block (holding a savepoint), churns other rows hard enough to generate
// many dead versions and vacuum passes, and asserts the pinned block
// keeps reading its original snapshot throughout — including across a
// ROLLBACK TO that unwinds part of its own buffered writes.
func TestMVCCVacuumSavepoint(t *testing.T) {
	const churners = 4
	const churnOps = 60

	e := plsqlaway.NewEngine()
	setup := e.NewSession()
	for _, stmt := range []string{
		"CREATE TABLE pin (k int, v int)",
		"CREATE TABLE churn (k int, v int)",
	} {
		if err := setup.Exec(stmt); err != nil {
			t.Fatal(err)
		}
	}
	for k := 0; k < 8; k++ {
		if err := setup.Exec(fmt.Sprintf("INSERT INTO pin VALUES (%d, 0)", k)); err != nil {
			t.Fatal(err)
		}
	}
	for k := 0; k < churners; k++ {
		if err := setup.Exec(fmt.Sprintf("INSERT INTO churn VALUES (%d, 0)", k)); err != nil {
			t.Fatal(err)
		}
	}

	a := e.NewSession()
	sumOf := func(table string) int64 {
		t.Helper()
		res, err := a.Query("SELECT sum(v) FROM " + table)
		if err != nil {
			t.Fatal(err)
		}
		return res.Rows[0][0].Int()
	}

	for _, stmt := range []string{
		"BEGIN",
		"UPDATE pin SET v = 1",
		"SAVEPOINT sp",
		"UPDATE pin SET v = 2",
	} {
		if err := a.Exec(stmt); err != nil {
			t.Fatalf("%s: %v", stmt, err)
		}
	}

	// Churn: each goroutine repeatedly rewrites its own churn row in
	// autocommit mode, piling up dead versions that invite vacuum while
	// a's block pins an old snapshot.
	var wg sync.WaitGroup
	errs := make(chan error, churners)
	for c := 0; c < churners; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			s := e.NewSession()
			for i := 0; i < churnOps; i++ {
				if err := s.Exec(fmt.Sprintf("UPDATE churn SET v = v + 1 WHERE k = %d", c)); err != nil {
					errs <- fmt.Errorf("churner %d: %w", c, err)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	// The pinned block must still see churn as it was at BEGIN — vacuum
	// may not have reclaimed versions its snapshot can reach.
	if got := sumOf("churn"); got != 0 {
		t.Errorf("pinned snapshot read churn sum %d, want 0: vacuum or churn leaked into an old snapshot", got)
	}
	if got := sumOf("pin"); got != 16 {
		t.Errorf("in-block read of pin sum = %d, want 16 (v=2 on 8 rows)", got)
	}
	if err := a.Exec("ROLLBACK TO sp"); err != nil {
		t.Fatal(err)
	}
	if got := sumOf("pin"); got != 8 {
		t.Errorf("after ROLLBACK TO sp, pin sum = %d, want 8 (v=1 on 8 rows)", got)
	}
	if got := sumOf("churn"); got != 0 {
		t.Errorf("after ROLLBACK TO sp, churn sum = %d, want 0", got)
	}
	if err := a.Exec("COMMIT"); err != nil {
		t.Fatalf("COMMIT of disjoint-key block should not conflict: %v", err)
	}

	// Fresh snapshot: a's surviving writes plus everything the churners did.
	if got := sumOf("pin"); got != 8 {
		t.Errorf("final pin sum = %d, want 8", got)
	}
	if got := sumOf("churn"); got != churners*churnOps {
		t.Errorf("final churn sum = %d, want %d", got, churners*churnOps)
	}
}
