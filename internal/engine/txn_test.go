package engine

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"

	"plsqlaway/internal/sqlparser"
	"plsqlaway/internal/sqltypes"
)

// intOf runs a single-value query on s and returns it as an int64.
func intOf(t *testing.T, s *Session, sql string) int64 {
	t.Helper()
	v, err := s.QueryValue(sql)
	if err != nil {
		t.Fatalf("%s: %v", sql, err)
	}
	i, err := sqltypes.Cast(v, sqltypes.TypeInt)
	if err != nil {
		t.Fatalf("%s: %v", sql, err)
	}
	return i.Int()
}

func mustExec(t *testing.T, s *Session, sql string) {
	t.Helper()
	if err := s.Exec(sql); err != nil {
		t.Fatalf("%s: %v", sql, err)
	}
}

// TestTxnCommitPublishesAtomically: statements in a block are invisible
// to other sessions until COMMIT publishes them all at once.
func TestTxnCommitPublishesAtomically(t *testing.T) {
	e := New()
	mustExec(t, e.NewSession(), "CREATE TABLE acct (id int, bal int); INSERT INTO acct VALUES (1, 100), (2, 100)")
	s, other := e.NewSession(), e.NewSession()

	mustExec(t, s, "BEGIN")
	mustExec(t, s, "UPDATE acct SET bal = bal - 40 WHERE id = 1")
	mustExec(t, s, "UPDATE acct SET bal = bal + 40 WHERE id = 2")
	// The writer sees its own uncommitted transfer; others see none of it.
	if got := intOf(t, s, "SELECT bal FROM acct WHERE id = 1"); got != 60 {
		t.Errorf("txn sees own write: bal = %d, want 60", got)
	}
	if got := intOf(t, other, "SELECT bal FROM acct WHERE id = 1"); got != 100 {
		t.Errorf("uncommitted write leaked: bal = %d, want 100", got)
	}
	mustExec(t, s, "COMMIT")
	if got := intOf(t, other, "SELECT bal FROM acct WHERE id = 1"); got != 60 {
		t.Errorf("committed write invisible: bal = %d, want 60", got)
	}
	if got := intOf(t, other, "SELECT sum(bal) FROM acct"); got != 200 {
		t.Errorf("sum after transfer = %d, want 200", got)
	}
}

// TestTxnRollbackLeavesNoTrace: a rolled-back block must leave storage
// byte-identical — no heap commit, no version churn, no catalog change,
// no storage-counter movement.
func TestTxnRollbackLeavesNoTrace(t *testing.T) {
	e := New()
	s := e.NewSession()
	mustExec(t, s, "CREATE TABLE kv (k int, v int); INSERT INTO kv VALUES (1, 10), (2, 20)")
	tbl, _ := e.Catalog().Table("kv")

	before := e.StorageStats().Snapshot()
	genBefore := tbl.Heap.Gen()
	catBefore := e.Catalog()

	mustExec(t, s, "BEGIN")
	mustExec(t, s, "INSERT INTO kv VALUES (3, 30)")
	mustExec(t, s, "UPDATE kv SET v = v * 10 WHERE k = 1")
	mustExec(t, s, "DELETE FROM kv WHERE k = 2")
	mustExec(t, s, "CREATE TABLE scratch (x int)")
	mustExec(t, s, "INSERT INTO scratch VALUES (1)")
	if got := intOf(t, s, "SELECT count(*) FROM kv"); got != 2 {
		t.Errorf("inside txn count = %d, want 2", got)
	}
	mustExec(t, s, "ROLLBACK")

	after := e.StorageStats().Snapshot()
	if before != after {
		t.Errorf("storage stats moved across rollback:\n before %+v\n after  %+v", before, after)
	}
	if got := tbl.Heap.Gen(); got != genBefore {
		t.Errorf("heap generation moved across rollback: %d -> %d", genBefore, got)
	}
	if e.Catalog() != catBefore {
		t.Errorf("catalog pointer moved across rollback")
	}
	if _, ok := e.Catalog().Table("scratch"); ok {
		t.Errorf("rolled-back CREATE TABLE is visible")
	}
	if got := intOf(t, s, "SELECT count(*) FROM kv"); got != 2 {
		t.Errorf("after rollback count = %d, want 2", got)
	}
	if got := intOf(t, s, "SELECT v FROM kv WHERE k = 1"); got != 10 {
		t.Errorf("after rollback v = %d, want 10", got)
	}
}

// TestTxnReadYourOwnWrites covers the overlay read path: inserts,
// updates of snapshot rows, updates of rows the block itself inserted,
// deletes, and index-probe reads must all see the buffered state.
func TestTxnReadYourOwnWrites(t *testing.T) {
	e := New()
	s := e.NewSession()
	mustExec(t, s, "CREATE TABLE kv (k int, v int); CREATE INDEX ON kv (k); INSERT INTO kv VALUES (1, 10), (2, 20)")

	mustExec(t, s, "BEGIN")
	mustExec(t, s, "INSERT INTO kv VALUES (3, 30)")
	if got := intOf(t, s, "SELECT count(*) FROM kv"); got != 3 {
		t.Errorf("after insert count = %d, want 3", got)
	}
	// Update a row the block inserted (buffered → buffered).
	mustExec(t, s, "UPDATE kv SET v = 33 WHERE k = 3")
	if got := intOf(t, s, "SELECT v FROM kv WHERE k = 3"); got != 33 {
		t.Errorf("update of txn-inserted row: v = %d, want 33", got)
	}
	// Update a snapshot row (base version dead + buffered replacement).
	mustExec(t, s, "UPDATE kv SET v = 11 WHERE k = 1")
	if got := intOf(t, s, "SELECT v FROM kv WHERE k = 1"); got != 11 {
		t.Errorf("update of snapshot row: v = %d, want 11", got)
	}
	// Delete a snapshot row and a txn-inserted row.
	mustExec(t, s, "DELETE FROM kv WHERE k = 2")
	if got := intOf(t, s, "SELECT count(*) FROM kv"); got != 2 {
		t.Errorf("after delete count = %d, want 2", got)
	}
	mustExec(t, s, "DELETE FROM kv WHERE k = 3")
	if got := intOf(t, s, "SELECT count(*) FROM kv"); got != 1 {
		t.Errorf("after second delete count = %d, want 1", got)
	}
	mustExec(t, s, "COMMIT")
	if got := intOf(t, s, "SELECT sum(v) FROM kv"); got != 11 {
		t.Errorf("committed sum = %d, want 11", got)
	}
}

// TestTxnAbortedUntilRollback: any failed statement poisons the block;
// only COMMIT/ROLLBACK are accepted, and COMMIT acts as ROLLBACK.
func TestTxnAbortedUntilRollback(t *testing.T) {
	e := New()
	s := e.NewSession()
	mustExec(t, s, "CREATE TABLE kv (k int, v int)")

	mustExec(t, s, "BEGIN")
	mustExec(t, s, "INSERT INTO kv VALUES (1, 10)")
	if err := s.Exec("SELECT * FROM no_such_table"); err == nil {
		t.Fatal("statement on missing table succeeded")
	}
	if err := s.Exec("SELECT 1"); err == nil || !strings.Contains(err.Error(), "aborted") {
		t.Errorf("aborted txn accepted a statement: %v", err)
	}
	// COMMIT on an aborted block rolls back: the insert must be gone.
	mustExec(t, s, "COMMIT")
	if s.InTxn() {
		t.Error("still in txn after COMMIT of aborted block")
	}
	if got := intOf(t, s, "SELECT count(*) FROM kv"); got != 0 {
		t.Errorf("aborted block leaked rows: count = %d", got)
	}

	// Same, ending with ROLLBACK.
	mustExec(t, s, "BEGIN")
	if err := s.Exec("SELECT * FROM still_missing"); err == nil {
		t.Fatal("statement on missing table succeeded")
	}
	mustExec(t, s, "ROLLBACK")
	if got := intOf(t, s, "SELECT count(*) FROM kv"); got != 0 {
		t.Errorf("count after rollback = %d, want 0", got)
	}
}

// TestTxnSerializationFailure: first-updater-wins. Two transactions
// update the same row; the one that commits second must fail its COMMIT
// with ErrSerialization (the write statement itself buffers fine), and
// the failed COMMIT ends the block. A retry on a fresh snapshot wins.
func TestTxnSerializationFailure(t *testing.T) {
	e := New()
	setup := e.NewSession()
	mustExec(t, setup, "CREATE TABLE kv (k int, v int); INSERT INTO kv VALUES (1, 10)")

	s1, s2 := e.NewSession(), e.NewSession()
	mustExec(t, s2, "BEGIN")
	if got := intOf(t, s2, "SELECT v FROM kv WHERE k = 1"); got != 10 {
		t.Fatalf("s2 read v = %d, want 10", got)
	}
	// s1 commits a write to the same row after s2's snapshot. s2's own
	// write still buffers — conflicts are detected at commit, per row.
	mustExec(t, s1, "UPDATE kv SET v = 99 WHERE k = 1")
	mustExec(t, s2, "UPDATE kv SET v = v + 1 WHERE k = 1")
	err := s2.Exec("COMMIT")
	if !errors.Is(err, ErrSerialization) {
		t.Fatalf("conflicting COMMIT: got %v, want ErrSerialization", err)
	}
	if s2.InTxn() {
		t.Fatal("still in txn after failed COMMIT")
	}
	// The loser's buffered write must not have leaked.
	if got := intOf(t, setup, "SELECT v FROM kv WHERE k = 1"); got != 99 {
		t.Fatalf("v after lost commit = %d, want 99", got)
	}
	// The retry (fresh snapshot) succeeds.
	mustExec(t, s2, "BEGIN")
	mustExec(t, s2, "UPDATE kv SET v = v + 1 WHERE k = 1")
	mustExec(t, s2, "COMMIT")
	if got := intOf(t, setup, "SELECT v FROM kv WHERE k = 1"); got != 100 {
		t.Errorf("v = %d, want 100", got)
	}
}

// TestTxnDisjointWritersCommit: transactions writing different rows both
// commit even though their snapshots overlap — the point of per-row
// validation over a whole-database stale-snapshot check.
func TestTxnDisjointWritersCommit(t *testing.T) {
	e := New()
	setup := e.NewSession()
	mustExec(t, setup, "CREATE TABLE kv (k int, v int); INSERT INTO kv VALUES (1, 10), (2, 20)")

	s1, s2 := e.NewSession(), e.NewSession()
	mustExec(t, s1, "BEGIN")
	mustExec(t, s2, "BEGIN")
	mustExec(t, s1, "UPDATE kv SET v = 11 WHERE k = 1")
	mustExec(t, s2, "UPDATE kv SET v = 22 WHERE k = 2")
	mustExec(t, s1, "COMMIT")
	mustExec(t, s2, "COMMIT") // disjoint rows: no conflict despite the overlap
	if got := intOf(t, setup, "SELECT v FROM kv WHERE k = 1"); got != 11 {
		t.Errorf("k=1: v = %d, want 11", got)
	}
	if got := intOf(t, setup, "SELECT v FROM kv WHERE k = 2"); got != 22 {
		t.Errorf("k=2: v = %d, want 22", got)
	}
}

// TestTxnInsertNeverConflicts: pure inserts touch no existing rows, so
// concurrent transactions inserting into the same table both commit.
func TestTxnInsertNeverConflicts(t *testing.T) {
	e := New()
	setup := e.NewSession()
	mustExec(t, setup, "CREATE TABLE t (a int)")

	s1, s2 := e.NewSession(), e.NewSession()
	mustExec(t, s1, "BEGIN")
	mustExec(t, s2, "BEGIN")
	mustExec(t, s1, "INSERT INTO t VALUES (1)")
	mustExec(t, s2, "INSERT INTO t VALUES (2)")
	mustExec(t, s1, "COMMIT")
	mustExec(t, s2, "COMMIT")
	if got := intOf(t, setup, "SELECT count(*) FROM t"); got != 2 {
		t.Errorf("count = %d, want 2", got)
	}
}

// TestTxnConcurrentTransfers is the atomicity stress: 8 sessions move
// money between accounts in explicit transactions while a reader
// verifies the invariant total; retries absorb serialization failures.
func TestTxnConcurrentTransfers(t *testing.T) {
	const (
		sessions  = 8
		accounts  = 16
		transfers = 50
		total     = accounts * 100
	)
	e := New()
	setup := e.NewSession()
	mustExec(t, setup, "CREATE TABLE acct (id int, bal int)")
	var sb strings.Builder
	sb.WriteString("INSERT INTO acct VALUES ")
	for i := 0; i < accounts; i++ {
		if i > 0 {
			sb.WriteString(", ")
		}
		fmt.Fprintf(&sb, "(%d, 100)", i)
	}
	mustExec(t, setup, sb.String())

	stop := make(chan struct{})
	var readerWG sync.WaitGroup
	readerWG.Add(1)
	go func() {
		defer readerWG.Done()
		r := e.NewSession()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if got := intOf(t, r, "SELECT sum(bal) FROM acct"); got != total {
				t.Errorf("reader saw partial transfer: sum = %d, want %d", got, total)
				return
			}
		}
	}()

	var wg sync.WaitGroup
	for w := 0; w < sessions; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			s := e.NewSession()
			for i := 0; i < transfers; i++ {
				from := (w*transfers + i) % accounts
				to := (from + 1 + i%3) % accounts
				for {
					err := s.Exec(fmt.Sprintf(`
						BEGIN;
						UPDATE acct SET bal = bal - 1 WHERE id = %d;
						UPDATE acct SET bal = bal + 1 WHERE id = %d;
						COMMIT`, from, to))
					if err == nil {
						break
					}
					if !errors.Is(err, ErrSerialization) {
						t.Errorf("transfer: %v", err)
						return
					}
					if err := s.Rollback(); err != nil {
						t.Errorf("rollback: %v", err)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	readerWG.Wait()

	if got := intOf(t, setup, "SELECT sum(bal) FROM acct"); got != total {
		t.Errorf("final sum = %d, want %d", got, total)
	}
}

// TestTxnPinBlocksVacuum: versions a transaction's snapshot can still
// see must survive any vacuum triggered by later commits.
func TestTxnPinBlocksVacuum(t *testing.T) {
	e := New()
	s := e.NewSession()
	setup := e.NewSession()
	fillTable(t, s, "kv", 256)

	reader := e.NewSession()
	mustExec(t, reader, "BEGIN")
	if got := intOf(t, reader, "SELECT sum(v) FROM kv"); got != 255*256/2 {
		t.Fatalf("pre sum = %d", got)
	}

	// Hammer updates from another session: every one supersedes 256
	// versions, far past the vacuum threshold.
	for i := 0; i < 20; i++ {
		mustExec(t, setup, "UPDATE kv SET v = v + 1000")
	}

	// The reader's snapshot must still see the original values — if
	// vacuum had reclaimed its pinned versions this would misread or
	// error.
	if got := intOf(t, reader, "SELECT sum(v) FROM kv"); got != 255*256/2 {
		t.Errorf("txn snapshot disturbed by vacuum: sum = %d, want %d", got, 255*256/2)
	}
	mustExec(t, reader, "COMMIT")
	if got := intOf(t, reader, "SELECT sum(v) FROM kv"); got != 255*256/2+20*1000*256 {
		t.Errorf("post-txn sum = %d", got)
	}
}

// TestTxnControlNotices: BEGIN inside a block and COMMIT/ROLLBACK outside
// one are warning no-ops that surface as notices (Postgres semantics).
func TestTxnControlNotices(t *testing.T) {
	e := New()
	s := e.NewSession()
	mustExec(t, s, "COMMIT")
	if n := s.DrainNotices(); len(n) != 1 || !strings.Contains(n[0], "no transaction") {
		t.Errorf("COMMIT outside block: notices %v", n)
	}
	mustExec(t, s, "ROLLBACK")
	if n := s.DrainNotices(); len(n) != 1 || !strings.Contains(n[0], "no transaction") {
		t.Errorf("ROLLBACK outside block: notices %v", n)
	}
	mustExec(t, s, "BEGIN")
	mustExec(t, s, "BEGIN")
	if n := s.DrainNotices(); len(n) != 1 || !strings.Contains(n[0], "already a transaction") {
		t.Errorf("nested BEGIN: notices %v", n)
	}
	mustExec(t, s, "ROLLBACK")
}

// TestTxnDDLVisibility: DDL inside a block is visible to the block's own
// later statements, atomic with its DML at COMMIT, and fully discarded
// at ROLLBACK (exercised in TestTxnRollbackLeavesNoTrace).
func TestTxnDDLVisibility(t *testing.T) {
	e := New()
	s, other := e.NewSession(), e.NewSession()
	mustExec(t, s, "BEGIN")
	mustExec(t, s, "CREATE TABLE fresh (x int)")
	mustExec(t, s, "INSERT INTO fresh VALUES (1), (2)")
	if got := intOf(t, s, "SELECT count(*) FROM fresh"); got != 2 {
		t.Errorf("inside txn count = %d, want 2", got)
	}
	if err := other.Exec("SELECT count(*) FROM fresh"); err == nil {
		t.Error("uncommitted CREATE TABLE visible to another session")
	}
	mustExec(t, s, "COMMIT")
	if got := intOf(t, other, "SELECT count(*) FROM fresh"); got != 2 {
		t.Errorf("after commit count = %d, want 2", got)
	}
}

// TestTxnSessionReset: Reset (the server's connection-teardown hook)
// rolls back an open block, releasing the commit lock so other writers
// make progress.
func TestTxnSessionReset(t *testing.T) {
	e := New()
	s := e.NewSession()
	mustExec(t, s, "CREATE TABLE kv (k int, v int)")
	mustExec(t, s, "BEGIN")
	mustExec(t, s, "INSERT INTO kv VALUES (1, 10)") // takes the commit lock
	s.Reset()
	if s.InTxn() {
		t.Error("still in txn after Reset")
	}
	// If Reset leaked the commit lock this write would deadlock.
	other := e.NewSession()
	mustExec(t, other, "INSERT INTO kv VALUES (2, 20)")
	if got := intOf(t, other, "SELECT count(*) FROM kv"); got != 1 {
		t.Errorf("count = %d, want 1 (reset insert rolled back)", got)
	}
}

// TestInterpCatalogTracksDDL pins the beginRead/commitWrap symmetry fix:
// after a writer statement the interpreter must bind against the
// *published* catalog (which includes that statement's DDL), not the
// stale commit-time pin. The direct Interp().Call path bypasses
// beginRead, so it sees exactly what the last statement left behind.
func TestInterpCatalogTracksDDL(t *testing.T) {
	e := New()
	s := e.NewSession()
	if err := s.Exec(`
		CREATE FUNCTION counts() RETURNS int AS $$
		DECLARE n int;
		BEGIN
		  n = (SELECT count(*) FROM late_table);
		  RETURN n;
		END;
		$$ LANGUAGE plpgsql`); err != nil {
		t.Fatal(err)
	}
	// The table arrives after the function, as the *last* writer
	// statement: its commit publishes a new catalog, but the statement's
	// own pinned snapshot predates the table. The old code left the
	// interpreter bound to that stale pin.
	if err := s.Exec("CREATE TABLE late_table (x int)"); err != nil {
		t.Fatal(err)
	}
	fn, ok := e.Catalog().Function("counts")
	if !ok {
		t.Fatal("function counts not found")
	}
	// Direct interpreter call — no beginRead re-pin on this path. With
	// the stale catalog this fails "relation late_table does not exist".
	v, err := s.Interp().Call(fn.PL, nil)
	if err != nil {
		t.Fatalf("interpreted call after DDL: %v", err)
	}
	i, _ := sqltypes.Cast(v, sqltypes.TypeInt)
	if i.Int() != 0 {
		t.Errorf("counts() = %v, want 0", v)
	}
}

// TestTxnAbortOnEveryEntryPoint: errors through the non-Run statement
// entry points (Prepared, QueryPlanned, QueryFresh) must poison an open
// block just like Session.Run does.
func TestTxnAbortOnEveryEntryPoint(t *testing.T) {
	q, err := sqlparser.ParseQuery("SELECT x FROM vanished")
	if err != nil {
		t.Fatal(err)
	}
	cases := map[string]func(s *Session) error{
		"prepared": func(s *Session) error {
			p, err := s.Prepare("SELECT x FROM vanished")
			if err != nil {
				return err
			}
			_, err = p.Query()
			return err
		},
		"queryplanned": func(s *Session) error { _, err := s.QueryPlanned(q); return err },
		"queryfresh":   func(s *Session) error { _, err := s.QueryFresh(q); return err },
	}
	for name, fail := range cases {
		t.Run(name, func(t *testing.T) {
			e := New()
			s := e.NewSession()
			mustExec(t, s, "CREATE TABLE kv (k int, v int)")
			mustExec(t, s, "BEGIN")
			mustExec(t, s, "INSERT INTO kv VALUES (1, 10)")
			if err := fail(s); err == nil {
				t.Fatal("statement on missing table succeeded")
			}
			if err := s.Exec("SELECT 1"); err == nil || !strings.Contains(err.Error(), "aborted") {
				t.Errorf("block not poisoned after %s error: %v", name, err)
			}
			mustExec(t, s, "COMMIT") // acts as ROLLBACK
			if got := intOf(t, s, "SELECT count(*) FROM kv"); got != 0 {
				t.Errorf("aborted block leaked rows: count = %d", got)
			}
		})
	}
}

// TestTxnRollbackNoGhostPlans: a plan built inside a block against the
// private catalog clone must never be served from the shared plan cache
// after ROLLBACK. (Catalog versions were once reused — a later DDL on
// the published catalog reached the same version number and the cached
// plan for the rolled-back table answered 0 rows instead of erroring.)
func TestTxnRollbackNoGhostPlans(t *testing.T) {
	e := New()
	s := e.NewSession()
	mustExec(t, s, "BEGIN")
	mustExec(t, s, "CREATE TABLE scratch (x int)")
	mustExec(t, s, "INSERT INTO scratch VALUES (1)")
	if got := intOf(t, s, "SELECT count(*) FROM scratch"); got != 1 {
		t.Fatalf("inside txn count = %d", got)
	}
	mustExec(t, s, "ROLLBACK")
	// One unrelated DDL: the published catalog mutates as many times as
	// the rolled-back clone did.
	mustExec(t, s, "CREATE TABLE other (y int)")
	if _, err := s.Query("SELECT count(*) FROM scratch"); err == nil || !strings.Contains(err.Error(), "does not exist") {
		t.Errorf("ghost plan for rolled-back table served: err = %v", err)
	}
}

// TestScriptImplicitBlock pins how a multi-statement script maps onto
// transaction blocks: one implicit block by default, explicit control
// statements inside it honoured, an already open block joined.
func TestScriptImplicitBlock(t *testing.T) {
	cases := []struct {
		name    string
		before  string // run first, as its own call
		script  string
		wantErr string
		want    int64 // count(*) another session sees afterwards
		inTxn   bool  // the script leaves a block open
	}{
		{name: "commits together", script: "INSERT INTO t VALUES (1); INSERT INTO t VALUES (2)", want: 2},
		{name: "error rolls all back", script: "INSERT INTO t VALUES (1); INSERT INTO missing VALUES (2)", wantErr: "does not exist"},
		{name: "commit ends the block so far", script: "INSERT INTO t VALUES (1); COMMIT; INSERT INTO t VALUES (2); INSERT INTO missing VALUES (3)",
			wantErr: "does not exist", want: 1},
		{name: "rollback ends the block so far", script: "INSERT INTO t VALUES (1); ROLLBACK; INSERT INTO t VALUES (2)", want: 1},
		{name: "begin adopts and stays open", script: "INSERT INTO t VALUES (1); BEGIN; INSERT INTO t VALUES (2)", inTxn: true},
		{name: "begin commit inside", script: "BEGIN; INSERT INTO t VALUES (1); COMMIT; INSERT INTO t VALUES (2)", want: 2},
		{name: "joins an open block", before: "BEGIN", script: "INSERT INTO t VALUES (1); INSERT INTO t VALUES (2)", inTxn: true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			e := New()
			s, other := e.NewSession(), e.NewSession()
			mustExec(t, s, "CREATE TABLE t (x int)")
			if tc.before != "" {
				mustExec(t, s, tc.before)
			}
			err := s.Exec(tc.script)
			if tc.wantErr == "" && err != nil {
				t.Fatal(err)
			}
			if tc.wantErr != "" && (err == nil || !strings.Contains(err.Error(), tc.wantErr)) {
				t.Fatalf("err = %v, want %q", err, tc.wantErr)
			}
			if got := intOf(t, other, "SELECT count(*) FROM t"); got != tc.want {
				t.Errorf("other session sees %d rows, want %d", got, tc.want)
			}
			if s.InTxn() != tc.inTxn {
				t.Errorf("InTxn = %v, want %v", s.InTxn(), tc.inTxn)
			}
		})
	}
}
