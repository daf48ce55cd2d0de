package client_test

import (
	"context"
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"plsqlaway/client"
	"plsqlaway/internal/engine"
	"plsqlaway/internal/server"
	"plsqlaway/internal/sqltypes"
)

// startServer serves a fresh engine on a loopback listener and returns
// its address plus the engine (for server-side assertions).
func startServer(t *testing.T) (string, *engine.Engine) {
	t.Helper()
	e := engine.New(engine.WithSeed(42))
	srv := server.New(e, server.Options{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		srv.Serve(ln)
	}()
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
		<-done
	})
	return ln.Addr().String(), e
}

func TestQueryRoundTrip(t *testing.T) {
	addr, _ := startServer(t)
	c, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	if err := c.Exec("CREATE TABLE t (a int, b text); INSERT INTO t VALUES (1, 'one'), (2, 'two')"); err != nil {
		t.Fatal(err)
	}
	res, err := c.Query("SELECT a, b FROM t ORDER BY a")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Cols) != 2 || res.Cols[0] != "a" {
		t.Fatalf("cols = %v", res.Cols)
	}
	if len(res.Rows) != 2 || res.Rows[0][0].Int() != 1 || res.Rows[1][1].Text() != "two" {
		t.Fatalf("rows = %v", res.Rows)
	}
	if !strings.Contains(res.Format(), "(2 rows)") {
		t.Fatalf("format: %q", res.Format())
	}
}

func TestQueryWithParams(t *testing.T) {
	addr, _ := startServer(t)
	c, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	v, err := c.QueryValue("SELECT $1 + $2", client.Int(20), client.Int(22))
	if err != nil {
		t.Fatal(err)
	}
	if v.Int() != 42 {
		t.Fatalf("got %v", v)
	}
	// Coord and row values survive the wire.
	v, err = c.QueryValue("SELECT $1", client.Coord(3, -4))
	if err != nil {
		t.Fatal(err)
	}
	x, y := v.Coord()
	if x != 3 || y != -4 {
		t.Fatalf("coord = (%d,%d)", x, y)
	}
}

func TestStatementErrorKeepsConnUsable(t *testing.T) {
	addr, _ := startServer(t)
	c, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	if _, err := c.Query("SELECT * FROM missing"); err == nil || !strings.Contains(err.Error(), "does not exist") {
		t.Fatalf("want relation error, got %v", err)
	}
	v, err := c.QueryValue("SELECT 7")
	if err != nil {
		t.Fatal(err)
	}
	if v.Int() != 7 {
		t.Fatalf("got %v", v)
	}
}

func TestPreparedStatements(t *testing.T) {
	addr, _ := startServer(t)
	c, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	if err := c.Exec("CREATE TABLE kv (k int, v int)"); err != nil {
		t.Fatal(err)
	}
	ins, err := c.Prepare("INSERT INTO kv VALUES ($1, $2)")
	if err != nil {
		t.Fatal(err)
	}
	if ins.NumParams() != 2 || ins.IsQuery() {
		t.Fatalf("metadata: params=%d isQuery=%v", ins.NumParams(), ins.IsQuery())
	}
	for i := int64(0); i < 10; i++ {
		if err := ins.Exec(client.Int(i), client.Int(i*i)); err != nil {
			t.Fatal(err)
		}
	}
	sel, err := c.Prepare("SELECT v FROM kv WHERE k = $1")
	if err != nil {
		t.Fatal(err)
	}
	if !sel.IsQuery() {
		t.Fatal("SELECT not flagged as query")
	}
	v, err := sel.QueryValue(client.Int(7))
	if err != nil {
		t.Fatal(err)
	}
	if v.Int() != 49 {
		t.Fatalf("got %v", v)
	}
	if err := sel.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := sel.Query(client.Int(1)); err == nil || !strings.Contains(err.Error(), "unknown prepared statement") {
		t.Fatalf("closed statement executed: %v", err)
	}
}

func TestPipelinedSends(t *testing.T) {
	addr, _ := startServer(t)
	c, err := client.Dial(addr, client.WithWindow(32))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	st, err := c.Prepare("SELECT $1 * 2")
	if err != nil {
		t.Fatal(err)
	}
	const n = 200
	pending := make([]*client.Pending, n)
	for i := 0; i < n; i++ {
		p, err := st.Send(client.Int(int64(i)))
		if err != nil {
			t.Fatal(err)
		}
		pending[i] = p
	}
	for i, p := range pending {
		res, err := p.Wait()
		if err != nil {
			t.Fatalf("call %d: %v", i, err)
		}
		if got := res.Rows[0][0].Int(); got != int64(2*i) {
			t.Fatalf("call %d: got %d (responses out of order?)", i, got)
		}
	}
}

func TestConcurrentCallersOneConn(t *testing.T) {
	addr, _ := startServer(t)
	c, err := client.Dial(addr, client.WithWindow(16))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	var wg sync.WaitGroup
	errs := make([]error, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				want := int64(g*1000 + i)
				v, err := c.QueryValue("SELECT $1", client.Int(want))
				if err != nil {
					errs[g] = err
					return
				}
				if v.Int() != want {
					errs[g] = &mismatchError{want, v.Int()}
					return
				}
			}
		}(g)
	}
	wg.Wait()
	for g, err := range errs {
		if err != nil {
			t.Fatalf("goroutine %d: %v", g, err)
		}
	}
}

type mismatchError struct{ want, got int64 }

func (e *mismatchError) Error() string {
	return "cross-talk: want " + sqltypes.NewInt(e.want).String() + " got " + sqltypes.NewInt(e.got).String()
}

func TestSeedDeterminism(t *testing.T) {
	addr, e := startServer(t)
	c, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	draw := func() float64 {
		if err := c.Seed(99); err != nil {
			t.Fatal(err)
		}
		v, err := c.QueryValue("SELECT random()")
		if err != nil {
			t.Fatal(err)
		}
		return v.Float()
	}
	a, b := draw(), draw()
	if a != b {
		t.Fatalf("reseeded draws differ: %v vs %v", a, b)
	}
	// And they match a local session of the same engine, same seed.
	s := e.NewSession()
	s.Seed(99)
	lv, err := s.QueryValue("SELECT random()")
	if err != nil {
		t.Fatal(err)
	}
	if lv.Float() != a {
		t.Fatalf("remote %v vs local %v", a, lv.Float())
	}
}

func TestStatsFrame(t *testing.T) {
	addr, _ := startServer(t)
	c, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	if err := c.Exec("CREATE TABLE s (x int)"); err != nil {
		t.Fatal(err)
	}
	before, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if err := c.Exec("INSERT INTO s VALUES (1)"); err != nil {
			t.Fatal(err)
		}
	}
	after, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if after.Commits-before.Commits != 5 {
		t.Fatalf("commit counter: before %d after %d, want +5", before.Commits, after.Commits)
	}
	// This very connection is counted.
	if after.ActiveConns < 1 {
		t.Errorf("ActiveConns = %d, want ≥ 1", after.ActiveConns)
	}
	if after.Plans.CacheMisses < 1 {
		t.Errorf("CacheMisses = %d, want ≥ 1 (statements were planned)", after.Plans.CacheMisses)
	}
}

// TestExplainAnalyzeOverWire pins that EXPLAIN ANALYZE travels the wire
// as an ordinary result: one QUERY PLAN column whose rows carry actuals.
func TestExplainAnalyzeOverWire(t *testing.T) {
	addr, _ := startServer(t)
	c, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Exec("CREATE TABLE w (n int); INSERT INTO w VALUES (1), (2), (3)"); err != nil {
		t.Fatal(err)
	}
	res, err := c.Query("EXPLAIN ANALYZE SELECT n FROM w WHERE n > 1")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Cols) != 1 || res.Cols[0] != "QUERY PLAN" {
		t.Fatalf("cols = %v, want [QUERY PLAN]", res.Cols)
	}
	var out strings.Builder
	for _, row := range res.Rows {
		out.WriteString(row[0].String())
		out.WriteByte('\n')
	}
	for _, want := range []string{"actual rows=2", "in=3", "Execution: rows=2"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("remote EXPLAIN ANALYZE missing %q:\n%s", want, out.String())
		}
	}
}

// TestStatsAfterClose pins the fast-fail: Stats on a closed connection
// returns ErrClosed without attempting a round-trip.
func TestStatsAfterClose(t *testing.T) {
	addr, _ := startServer(t)
	c, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Stats(); !errors.Is(err, client.ErrClosed) {
		t.Errorf("Stats after Close: %v, want ErrClosed", err)
	}
}

func TestPoolConcurrent(t *testing.T) {
	addr, _ := startServer(t)
	p, err := client.NewPool(addr, 4)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	if err := p.Exec("CREATE TABLE pt (x int)"); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make([]error, 16)
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				if err := p.Exec("INSERT INTO pt VALUES (1)"); err != nil {
					errs[g] = err
					return
				}
			}
		}(g)
	}
	wg.Wait()
	for g, err := range errs {
		if err != nil {
			t.Fatalf("goroutine %d: %v", g, err)
		}
	}
	v, err := p.QueryValue("SELECT count(*) FROM pt")
	if err != nil {
		t.Fatal(err)
	}
	if v.Int() != 16*25 {
		t.Fatalf("count = %v, want %d", v, 16*25)
	}
}

// TestShutdownDrainsInFlight pins the graceful-drain contract: statements
// already submitted when Shutdown begins still complete with answers.
func TestShutdownDrainsInFlight(t *testing.T) {
	e := engine.New(engine.WithSeed(42))
	srv := server.New(e, server.Options{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		srv.Serve(ln)
	}()

	c, err := client.Dial(ln.Addr().String(), client.WithWindow(64))
	if err != nil {
		t.Fatal(err)
	}
	st, err := c.Prepare("SELECT $1")
	if err != nil {
		t.Fatal(err)
	}
	const n = 50
	pending := make([]*client.Pending, n)
	for i := 0; i < n; i++ {
		p, err := st.Send(client.Int(int64(i)))
		if err != nil {
			t.Fatal(err)
		}
		pending[i] = p
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	<-done
	// Every request was flushed to the socket before Shutdown began, so
	// the drain must answer all of them — correctly and in order.
	for i, p := range pending {
		res, err := p.Wait()
		if err != nil {
			t.Fatalf("call %d dropped by drain: %v", i, err)
		}
		if res.Rows[0][0].Int() != int64(i) {
			t.Fatalf("call %d: wrong answer %v", i, res.Rows[0][0])
		}
	}
	c.Close()
}

// TestTxnOverWire drives a transaction block through the wire protocol:
// read-your-own-writes inside the block, invisibility to a second
// connection, atomic publication at COMMIT, and a clean ROLLBACK.
func TestTxnOverWire(t *testing.T) {
	addr, _ := startServer(t)
	c, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	other, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer other.Close()

	if err := c.Exec("CREATE TABLE kv (k int, v int); INSERT INTO kv VALUES (1, 10)"); err != nil {
		t.Fatal(err)
	}
	if err := c.Begin(); err != nil {
		t.Fatal(err)
	}
	if err := c.Exec("UPDATE kv SET v = 99 WHERE k = 1; INSERT INTO kv VALUES (2, 20)"); err != nil {
		t.Fatal(err)
	}
	v, err := c.QueryValue("SELECT sum(v) FROM kv")
	if err != nil || v.Int() != 119 {
		t.Fatalf("inside txn sum = %v (%v), want 119", v, err)
	}
	v, err = other.QueryValue("SELECT sum(v) FROM kv")
	if err != nil || v.Int() != 10 {
		t.Fatalf("uncommitted txn leaked: other conn sum = %v (%v), want 10", v, err)
	}
	if err := c.Commit(); err != nil {
		t.Fatal(err)
	}
	v, err = other.QueryValue("SELECT sum(v) FROM kv")
	if err != nil || v.Int() != 119 {
		t.Fatalf("after commit sum = %v (%v), want 119", v, err)
	}

	// ROLLBACK leaves no trace.
	if err := c.Begin(); err != nil {
		t.Fatal(err)
	}
	if err := c.Exec("DELETE FROM kv"); err != nil {
		t.Fatal(err)
	}
	if err := c.Rollback(); err != nil {
		t.Fatal(err)
	}
	v, err = other.QueryValue("SELECT sum(v) FROM kv")
	if err != nil || v.Int() != 119 {
		t.Fatalf("after rollback sum = %v (%v), want 119", v, err)
	}
}

// TestTxnErrorAbortsUntilRollback: a failed statement mid-block leaves
// the server session aborted; further statements fail Postgres-style
// until ROLLBACK, and the connection stays usable throughout.
func TestTxnErrorAbortsUntilRollback(t *testing.T) {
	addr, _ := startServer(t)
	c, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	if err := c.Exec("CREATE TABLE kv (k int, v int)"); err != nil {
		t.Fatal(err)
	}
	if err := c.Begin(); err != nil {
		t.Fatal(err)
	}
	if err := c.Exec("INSERT INTO kv VALUES (1, 10)"); err != nil {
		t.Fatal(err)
	}
	if err := c.Exec("SELECT * FROM missing"); err == nil {
		t.Fatal("statement on missing table succeeded")
	}
	if err := c.Exec("SELECT 1"); err == nil || !strings.Contains(err.Error(), "aborted") {
		t.Fatalf("aborted block accepted a statement: %v", err)
	}
	if err := c.Rollback(); err != nil {
		t.Fatal(err)
	}
	v, err := c.QueryValue("SELECT count(*) FROM kv")
	if err != nil || v.Int() != 0 {
		t.Fatalf("aborted block leaked rows: count = %v (%v)", v, err)
	}
}

// TestNoticesTravelTheWire: RAISE NOTICE output and transaction-control
// warnings stream back attached to responses.
func TestNoticesTravelTheWire(t *testing.T) {
	addr, _ := startServer(t)
	c, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	if err := c.Exec(`CREATE FUNCTION noisy(n int) RETURNS int AS $$
		BEGIN
		  RAISE NOTICE 'n is %', n;
		  RETURN n;
		END;
		$$ LANGUAGE plpgsql`); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Query("SELECT noisy(7)"); err != nil {
		t.Fatal(err)
	}
	n := c.Notices()
	if len(n) != 1 || !strings.Contains(n[0], "n is 7") {
		t.Fatalf("notices = %v, want [... n is 7]", n)
	}
	if n := c.Notices(); len(n) != 0 {
		t.Fatalf("notices not drained: %v", n)
	}
	// Transaction-control warnings use the same channel.
	if err := c.Commit(); err != nil {
		t.Fatal(err)
	}
	n = c.Notices()
	if len(n) != 1 || !strings.Contains(n[0], "no transaction") {
		t.Fatalf("COMMIT warning = %v", n)
	}
}

// TestDisconnectRollsBackTxn: a client that vanishes mid-block must not
// wedge the engine — the server rolls the block back (releasing the
// commit lock) when the connection dies.
func TestDisconnectRollsBackTxn(t *testing.T) {
	addr, _ := startServer(t)
	setup, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer setup.Close()
	if err := setup.Exec("CREATE TABLE kv (k int, v int)"); err != nil {
		t.Fatal(err)
	}

	c, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Begin(); err != nil {
		t.Fatal(err)
	}
	if err := c.Exec("INSERT INTO kv VALUES (1, 10)"); err != nil {
		t.Fatal(err)
	}
	c.Close() // abandon the block — takes the commit lock with it

	// If the server leaked the block, this write would deadlock (the test
	// binary's timeout catches it) and the count would be 2.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if err := setup.Exec("INSERT INTO kv VALUES (2, 20)"); err == nil {
			break
		} else if time.Now().After(deadline) {
			t.Fatalf("write after abandoned txn: %v", err)
		}
		time.Sleep(10 * time.Millisecond)
	}
	v, err := setup.QueryValue("SELECT count(*) FROM kv")
	if err != nil || v.Int() != 1 {
		t.Fatalf("count = %v (%v), want 1 (abandoned insert rolled back)", v, err)
	}
}

// TestPoolBeginPinsConn: pool transactions run isolated from the shared
// round-robin connections — concurrent autocommit traffic never lands
// inside an open block.
func TestPoolBeginPinsConn(t *testing.T) {
	addr, _ := startServer(t)
	p, err := client.NewPool(addr, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	if err := p.Exec("CREATE TABLE kv (k int, v int)"); err != nil {
		t.Fatal(err)
	}

	tx, err := p.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if err := tx.Exec("INSERT INTO kv VALUES (1, 10)"); err != nil {
		t.Fatal(err)
	}
	// Autocommit traffic through the pool proceeds while the block is
	// open and must not see (or join) it.
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			v, err := p.QueryValue("SELECT count(*) FROM kv")
			if err != nil || v.Int() != 0 {
				t.Errorf("pool caller %d inside foreign txn: count = %v (%v)", i, v, err)
			}
		}(i)
	}
	wg.Wait()
	v, err := tx.QueryValue("SELECT count(*) FROM kv")
	if err != nil || v.Int() != 1 {
		t.Fatalf("tx lost its own write: %v (%v)", v, err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if v, err := p.QueryValue("SELECT count(*) FROM kv"); err != nil || v.Int() != 1 {
		t.Fatalf("after commit count = %v (%v)", v, err)
	}
	// Finished transactions refuse further use.
	if err := tx.Exec("SELECT 1"); err != client.ErrTxDone {
		t.Fatalf("tx after commit: %v, want ErrTxDone", err)
	}
	if err := tx.Commit(); err != client.ErrTxDone {
		t.Fatalf("double commit: %v, want ErrTxDone", err)
	}
	// A second Begin reuses the released pinned connection.
	tx2, err := p.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if err := tx2.Rollback(); err != nil {
		t.Fatal(err)
	}
}

// TestClosedPoolAndConn: operations on a closed pool (and double-close
// of pool or connection) report ErrClosed instead of hanging or
// panicking.
func TestClosedPoolAndConn(t *testing.T) {
	addr, _ := startServer(t)
	p, err := client.NewPool(addr, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	if err := p.Close(); err != client.ErrClosed {
		t.Errorf("double pool close: %v, want ErrClosed", err)
	}
	if err := p.Exec("SELECT 1"); err != client.ErrClosed {
		t.Errorf("Exec on closed pool: %v, want ErrClosed", err)
	}
	if _, err := p.Query("SELECT 1"); err != client.ErrClosed {
		t.Errorf("Query on closed pool: %v, want ErrClosed", err)
	}
	if _, err := p.QueryValue("SELECT 1"); err != client.ErrClosed {
		t.Errorf("QueryValue on closed pool: %v, want ErrClosed", err)
	}
	if _, err := p.Begin(); err != client.ErrClosed {
		t.Errorf("Begin on closed pool: %v, want ErrClosed", err)
	}
	// Conn() on a closed pool stays panic-free; the connection it returns
	// is closed and reports ErrClosed on use.
	if err := p.Conn().Exec("SELECT 1"); err != client.ErrClosed {
		t.Errorf("conn from closed pool: %v, want ErrClosed", err)
	}

	c, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != client.ErrClosed {
		t.Errorf("double conn close: %v, want ErrClosed", err)
	}
	if err := c.Exec("SELECT 1"); err != client.ErrClosed {
		t.Errorf("Exec on closed conn: %v, want ErrClosed", err)
	}
}

// TestTxNoticesDoNotLeakAcrossTx: a recycled pinned connection must not
// deliver the previous transaction's undrained notices to the next one.
func TestTxNoticesDoNotLeakAcrossTx(t *testing.T) {
	addr, _ := startServer(t)
	p, err := client.NewPool(addr, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	if err := p.Exec(`CREATE FUNCTION noisy(n int) RETURNS int AS $$
		BEGIN
		  RAISE NOTICE 'n is %', n;
		  RETURN n;
		END;
		$$ LANGUAGE plpgsql`); err != nil {
		t.Fatal(err)
	}
	tx1, err := p.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tx1.Query("SELECT noisy(1)"); err != nil {
		t.Fatal(err)
	}
	if err := tx1.Commit(); err != nil { // notices never drained
		t.Fatal(err)
	}
	tx2, err := p.Begin() // reuses the pinned connection
	if err != nil {
		t.Fatal(err)
	}
	defer tx2.Rollback()
	if n := tx2.Notices(); len(n) != 0 {
		t.Errorf("stale notices leaked into new tx: %v", n)
	}
}

// TestQueryStream exercises the end-to-end streaming path: rows arrive
// at the sink chunk by chunk in order, the shape announcement comes
// first, a sink error cancels cleanly, and the connection keeps serving
// afterwards.
func TestQueryStream(t *testing.T) {
	addr, _ := startServer(t)
	c, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	const gen = "WITH RECURSIVE g(i) AS (SELECT 1 UNION ALL SELECT i + 1 FROM g WHERE i < 5000) SELECT i, i * i FROM g"
	var streamed [][]client.Value
	var gotCols []string
	calls := 0
	err = c.QueryStream(gen, func(cols []string, rows [][]client.Value) error {
		calls++
		if calls == 1 {
			if rows != nil {
				t.Errorf("first sink call should announce shape only, got %d rows", len(rows))
			}
		}
		gotCols = cols
		streamed = append(streamed, rows...)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if calls < 3 {
		t.Fatalf("rows arrived in %d calls — not streamed in chunks", calls)
	}
	if len(gotCols) != 2 {
		t.Fatalf("cols = %v", gotCols)
	}
	if len(streamed) != 5000 {
		t.Fatalf("streamed %d rows, want 5000", len(streamed))
	}
	for i, r := range streamed {
		if r[0].Int() != int64(i+1) || r[1].Int() != int64(i+1)*int64(i+1) {
			t.Fatalf("row %d = %v", i, r)
		}
	}

	// Byte-identical to the buffered path in value terms.
	res, err := c.Query(gen)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != len(streamed) {
		t.Fatalf("buffered %d rows vs streamed %d", len(res.Rows), len(streamed))
	}
	for i := range res.Rows {
		for j := range res.Rows[i] {
			if !sqltypes.Identical(res.Rows[i][j], streamed[i][j]) {
				t.Fatalf("row %d col %d: buffered %v streamed %v", i, j, res.Rows[i][j], streamed[i][j])
			}
		}
	}

	// A sink error aborts the stream but not the connection.
	seen := 0
	err = c.QueryStream(gen, func(cols []string, rows [][]client.Value) error {
		seen += len(rows)
		if seen > 100 {
			return fmt.Errorf("sink gave up")
		}
		return nil
	})
	if err == nil || !strings.Contains(err.Error(), "sink gave up") {
		t.Fatalf("sink error not surfaced: %v", err)
	}
	if v, err := c.QueryValue("SELECT 41 + 1"); err != nil || v.Int() != 42 {
		t.Fatalf("connection unusable after sink error: %v %v", v, err)
	}

	// Server-side statement errors surface through the streaming API too.
	err = c.QueryStream("SELECT * FROM missing_table", func([]string, [][]client.Value) error { return nil })
	if err == nil || !strings.Contains(err.Error(), "does not exist") {
		t.Fatalf("server error not surfaced: %v", err)
	}
}

// TestQueryStreamNonQuery pins streaming of statements that return no
// rows: DDL and scripts answer without ever invoking the sink.
func TestQueryStreamNonQuery(t *testing.T) {
	addr, _ := startServer(t)
	c, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	called := false
	err = c.QueryStream("CREATE TABLE s (x int); INSERT INTO s VALUES (1)", func([]string, [][]client.Value) error {
		called = true
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if called {
		t.Fatal("sink invoked for a rowless script")
	}
	if v, err := c.QueryValue("SELECT count(*) FROM s"); err != nil || v.Int() != 1 {
		t.Fatalf("script did not run: %v %v", v, err)
	}
}
