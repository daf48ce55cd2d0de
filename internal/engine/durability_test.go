package engine

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"plsqlaway/internal/plast"
	"plsqlaway/internal/sqlparser"
	"plsqlaway/internal/sqltypes"
	"plsqlaway/internal/wal"
)

// openT opens a durable engine on dir, failing the test on error.
func openT(t *testing.T, dir string, opts ...Option) *Engine {
	t.Helper()
	e, err := Open(dir, opts...)
	if err != nil {
		t.Fatalf("Open(%s): %v", dir, err)
	}
	return e
}

func queryInt(t *testing.T, s *Session, sql string) int64 {
	t.Helper()
	v, err := s.QueryValue(sql)
	if err != nil {
		t.Fatalf("%s: %v", sql, err)
	}
	return v.Int()
}

// TestDurableReopenAfterClose is the basic durability round trip:
// checkpoint on Close, restore on Open.
func TestDurableReopenAfterClose(t *testing.T) {
	dir := t.TempDir()
	e := openT(t, dir)
	s := e.NewSession()
	if err := s.Exec(`
		CREATE TABLE kv (k int, v text);
		CREATE INDEX kv_k ON kv (k);
		INSERT INTO kv VALUES (1, 'one'), (2, 'two'), (3, 'three');
		DELETE FROM kv WHERE k = 2;
		UPDATE kv SET v = 'ONE' WHERE k = 1;
	`); err != nil {
		t.Fatal(err)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}

	e2 := openT(t, dir)
	s2 := e2.NewSession()
	defer e2.Close()
	if n := queryInt(t, s2, "SELECT count(*) FROM kv"); n != 2 {
		t.Fatalf("recovered %d rows, want 2", n)
	}
	v, err := s2.QueryValue("SELECT v FROM kv WHERE k = 1")
	if err != nil {
		t.Fatal(err)
	}
	if v.Text() != "ONE" {
		t.Fatalf("recovered v = %q, want ONE (update lost)", v.Text())
	}
	// The index declaration must survive too: probe through it.
	if n := queryInt(t, s2, "SELECT count(*) FROM kv WHERE k = 3"); n != 1 {
		t.Fatalf("indexed probe found %d rows, want 1", n)
	}
}

// TestDurableReplayWithoutClose drops the engine without Close — the
// crash case: no final checkpoint, recovery must come from the WAL.
func TestDurableReplayWithoutClose(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, dir).NewSession()
	if err := s.Exec(`
		CREATE TABLE t (a int);
		INSERT INTO t VALUES (10), (20), (30);
	`); err != nil {
		t.Fatal(err)
	}
	// No Close: e's state lives only in its WAL now.

	e2 := openT(t, dir)
	s2 := e2.NewSession()
	defer e2.Close()
	if n := queryInt(t, s2, "SELECT sum(a) FROM t"); n != 60 {
		t.Fatalf("recovered sum %d, want 60", n)
	}
}

// TestDurableTxnCommitRollback checks that a committed transaction block
// is one WAL record (all or nothing) and a rolled-back one leaves none.
func TestDurableTxnCommitRollback(t *testing.T) {
	dir := t.TempDir()
	e := openT(t, dir)
	s := e.NewSession()
	mustExec := func(sql string) {
		t.Helper()
		if err := s.Exec(sql); err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
	}
	mustExec("CREATE TABLE acct (id int, bal int)")
	mustExec("INSERT INTO acct VALUES (1, 100), (2, 100)")
	mustExec("BEGIN")
	mustExec("UPDATE acct SET bal = bal - 40 WHERE id = 1")
	mustExec("UPDATE acct SET bal = bal + 40 WHERE id = 2")
	mustExec("COMMIT")
	mustExec("BEGIN")
	mustExec("UPDATE acct SET bal = 0 WHERE id = 1")
	mustExec("ROLLBACK")

	e2 := openT(t, dir)
	s2 := e2.NewSession()
	defer e2.Close()
	if bal := queryInt(t, s2, "SELECT bal FROM acct WHERE id = 1"); bal != 60 {
		t.Fatalf("recovered id=1 bal %d, want 60", bal)
	}
	if sum := queryInt(t, s2, "SELECT sum(bal) FROM acct"); sum != 200 {
		t.Fatalf("recovered total %d, want 200 (transaction atomicity broken)", sum)
	}
}

// TestDurableTxnDDLAndDrop: DDL inside a block replays, and writes to a
// table dropped in the same block are filtered out of the commit record.
func TestDurableTxnDDLAndDrop(t *testing.T) {
	dir := t.TempDir()
	e := openT(t, dir)
	s := e.NewSession()
	for _, sql := range []string{
		"CREATE TABLE keep (a int)",
		"BEGIN",
		"CREATE TABLE tmp (b int)",
		"INSERT INTO tmp VALUES (1), (2)",
		"INSERT INTO keep VALUES (7)",
		"DROP TABLE tmp",
		"COMMIT",
	} {
		if err := s.Exec(sql); err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
	}

	e2 := openT(t, dir)
	s2 := e2.NewSession()
	defer e2.Close()
	if n := queryInt(t, s2, "SELECT count(*) FROM keep"); n != 1 {
		t.Fatalf("recovered keep count %d, want 1", n)
	}
	if _, err := s2.Query("SELECT * FROM tmp"); err == nil {
		t.Fatal("tmp survived recovery; it was dropped in the committing block")
	}
}

// TestDurableVacuumReplay hammers one small table with enough updates to
// trigger opportunistic vacuums, then recovers from the WAL alone. If
// vacuum's version-index renumbering were not logged deterministically,
// the replayed commit records would resolve to the wrong rows.
func TestDurableVacuumReplay(t *testing.T) {
	dir := t.TempDir()
	e := openT(t, dir)
	s := e.NewSession()
	if err := s.Exec("CREATE TABLE ctr (k int, n int)"); err != nil {
		t.Fatal(err)
	}
	if err := s.Exec("INSERT INTO ctr VALUES (0, 0), (1, 0), (2, 0), (3, 0)"); err != nil {
		t.Fatal(err)
	}
	inc, err := s.Prepare("UPDATE ctr SET n = n + 1 WHERE k = $1")
	if err != nil {
		t.Fatal(err)
	}
	const rounds = 400 // well past the vacuum threshold on a 4-row table
	for i := 0; i < rounds; i++ {
		if err := inc.Exec(sqltypes.NewInt(int64(i % 4))); err != nil {
			t.Fatal(err)
		}
	}
	if vac := e.StorageStats().Snapshot().Vacuums; vac == 0 {
		t.Fatalf("test never triggered a vacuum (stats: %+v) — raise rounds", e.StorageStats().Snapshot())
	}
	// Crash (no Close): replay must walk every commit + vacuum record.
	e2 := openT(t, dir)
	s2 := e2.NewSession()
	defer e2.Close()
	if sum := queryInt(t, s2, "SELECT sum(n) FROM ctr"); sum != rounds {
		t.Fatalf("recovered sum %d, want %d (vacuum replay diverged)", sum, rounds)
	}
	if n := queryInt(t, s2, "SELECT count(*) FROM ctr"); n != 4 {
		t.Fatalf("recovered %d rows, want 4", n)
	}
}

// TestDurableFunctions persists all three function kinds — interpreted
// plpgsql, sql, and a compiled installation — across a reopen.
func TestDurableFunctions(t *testing.T) {
	dir := t.TempDir()
	e := openT(t, dir)
	s := e.NewSession()
	if err := s.Exec(`
		CREATE FUNCTION add_interp(a int, b int) RETURNS int AS $$
		BEGIN
			RETURN a + b;
		END;
		$$ LANGUAGE plpgsql;
	`); err != nil {
		t.Fatal(err)
	}
	if err := s.Exec("CREATE FUNCTION add_sql(a int, b int) RETURNS int AS $$ SELECT $1 + $2 $$ LANGUAGE sql"); err != nil {
		t.Fatal(err)
	}
	body, err := sqlparser.ParseQuery("SELECT $1 * $2")
	if err != nil {
		t.Fatal(err)
	}
	mulParams := []plast.Param{
		{Name: "a", Type: sqltypes.TypeInt},
		{Name: "b", Type: sqltypes.TypeInt},
	}
	if err := s.InstallCompiled("mul_c", mulParams, sqltypes.TypeInt, body); err != nil {
		t.Fatal(err)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}

	e2 := openT(t, dir)
	s2 := e2.NewSession()
	defer e2.Close()
	for sql, want := range map[string]int64{
		"SELECT add_interp(19, 23)": 42,
		"SELECT add_sql(40, 2)":     42,
		"SELECT mul_c(6, 7)":        42,
	} {
		if got := queryInt(t, s2, sql); got != want {
			t.Errorf("%s = %d, want %d", sql, got, want)
		}
	}
}

// TestDurableSyncModes runs the same round trip under each sync mode.
func TestDurableSyncModes(t *testing.T) {
	for _, mode := range []wal.SyncMode{wal.SyncOff, wal.SyncBatched, wal.SyncPerCommit} {
		t.Run(mode.String(), func(t *testing.T) {
			dir := t.TempDir()
			s := openT(t, dir, WithSyncMode(mode)).NewSession()
			if err := s.Exec("CREATE TABLE m (x int); INSERT INTO m VALUES (5), (6)"); err != nil {
				t.Fatal(err)
			}
			e2 := openT(t, dir, WithSyncMode(mode))
			s2 := e2.NewSession()
			defer e2.Close()
			if n := queryInt(t, s2, "SELECT sum(x) FROM m"); n != 11 {
				t.Fatalf("recovered sum %d, want 11", n)
			}
		})
	}
}

// TestDurableCheckpointTruncatesLog: an explicit checkpoint rotates to a
// fresh epoch log and deletes the old one, and recovery from just the
// checkpoint (empty log) is complete.
func TestDurableCheckpointTruncatesLog(t *testing.T) {
	dir := t.TempDir()
	e := openT(t, dir)
	s := e.NewSession()
	if err := s.Exec("CREATE TABLE t (a int); INSERT INTO t VALUES (1), (2)"); err != nil {
		t.Fatal(err)
	}
	if err := e.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	logs, err := filepath.Glob(filepath.Join(dir, "wal-*.log"))
	if err != nil {
		t.Fatal(err)
	}
	if len(logs) != 1 {
		t.Fatalf("after checkpoint: %d log files %v, want exactly 1", len(logs), logs)
	}
	if fi, err := os.Stat(logs[0]); err != nil || fi.Size() != 0 {
		t.Fatalf("post-checkpoint log %v size %d, want empty", err, fi.Size())
	}
	e2 := openT(t, dir)
	s2 := e2.NewSession()
	defer e2.Close()
	if n := queryInt(t, s2, "SELECT sum(a) FROM t"); n != 3 {
		t.Fatalf("recovered sum %d, want 3", n)
	}
}

// TestDurableCorruptCheckpointFailsLoudly: a corrupted checkpoint must
// refuse to load, not silently start empty.
func TestDurableCorruptCheckpointFailsLoudly(t *testing.T) {
	dir := t.TempDir()
	e := openT(t, dir)
	s := e.NewSession()
	if err := s.Exec("CREATE TABLE t (a int); INSERT INTO t VALUES (1)"); err != nil {
		t.Fatal(err)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, wal.CheckpointName)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)-1] ^= 0xFF
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir); err == nil {
		t.Fatal("Open loaded a corrupt checkpoint without error")
	} else if !strings.Contains(err.Error(), "checkpoint") {
		t.Fatalf("corrupt-checkpoint error does not mention the checkpoint: %v", err)
	}
}

// TestSentinelErrors pins errors.Is-matchability of the two retryable
// failures on the embedded engine (the wire tests cover the remote leg).
func TestSentinelErrors(t *testing.T) {
	e := New()
	s1, s2 := e.NewSession(), e.NewSession()
	if err := s1.Exec("CREATE TABLE t (a int); INSERT INTO t VALUES (1)"); err != nil {
		t.Fatal(err)
	}
	// Aborted block: a failed statement poisons it.
	if err := s1.Exec("BEGIN"); err != nil {
		t.Fatal(err)
	}
	if err := s1.Exec("SELECT * FROM missing"); err == nil {
		t.Fatal("query on missing table succeeded")
	}
	err := s1.Exec("INSERT INTO t VALUES (2)")
	if !errors.Is(err, ErrTxnAborted) {
		t.Fatalf("statement on aborted block: %v, want errors.Is ErrTxnAborted", err)
	}
	if err := s1.Exec("ROLLBACK"); err != nil {
		t.Fatal(err)
	}
	// Serialization failure: both sessions update the same row; the loser's
	// COMMIT fails (first-updater-wins is validated per row at commit).
	if err := s1.Exec("BEGIN"); err != nil {
		t.Fatal(err)
	}
	if err := s1.Exec("UPDATE t SET a = 10 WHERE a = 1"); err != nil {
		t.Fatal(err)
	}
	if err := s2.Exec("UPDATE t SET a = 20 WHERE a = 1"); err != nil {
		t.Fatal(err)
	}
	err = s1.Exec("COMMIT")
	if !errors.Is(err, ErrSerialization) {
		t.Fatalf("conflicting COMMIT: %v, want errors.Is ErrSerialization", err)
	}
}
