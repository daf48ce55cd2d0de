// Package client is the Go client for a plsqlaway server (cmd/plsqld):
// it speaks the wire protocol over TCP and exposes the same
// Query/Exec/Prepare surface the embedded engine offers, plus explicit
// pipelining — many statements in flight on one connection, responses
// delivered in order — and a concurrent-safe connection pool.
//
// A Conn is safe for concurrent use: callers' requests interleave on the
// wire and each caller gets its own response. Synchronous helpers
// (Query, Exec) send one request and wait; the asynchronous Send
// variants return a Pending handle so a caller can keep a window of
// statements in flight:
//
//	st, _ := conn.Prepare("SELECT traverse_c($1, $2)")
//	var pending []*client.Pending
//	for i := 0; i < 100; i++ {
//		pending = append(pending, st.Send(client.Int(0), client.Int(50)))
//	}
//	for _, p := range pending {
//		if _, err := p.Wait(); err != nil { … }
//	}
package client

import (
	"bufio"
	"fmt"
	"net"
	"sync"
	"time"

	"plsqlaway/internal/engine"
	"plsqlaway/internal/sqltypes"
	"plsqlaway/internal/storage"
	"plsqlaway/internal/wire"
)

// Value is a dynamically typed SQL value (the engine's value type).
type Value = sqltypes.Value

// Convenience constructors mirroring the root package.
func Int(i int64) Value      { return sqltypes.NewInt(i) }
func Float(f float64) Value  { return sqltypes.NewFloat(f) }
func Text(s string) Value    { return sqltypes.NewText(s) }
func Bool(b bool) Value      { return sqltypes.NewBool(b) }
func Coord(x, y int64) Value { return sqltypes.NewCoord(x, y) }

// Null is the SQL NULL value.
var Null = sqltypes.Null

// Result is one query's rows, as received over the wire.
type Result struct {
	Cols []string
	Rows [][]Value
}

// Format renders the result as an aligned text table, identically to the
// embedded engine's Result.Format.
func (r *Result) Format() string { return sqltypes.FormatTable(r.Cols, r.Rows) }

// Config collects dial options.
type Config struct {
	// Seed seeds the server session's deterministic random() stream.
	Seed uint64
	// Window bounds how many requests this connection keeps in flight
	// before Send blocks (the pipelining window). Default 64.
	Window int
	// DialTimeout bounds the TCP connect. Default 5s.
	DialTimeout time.Duration
}

// Option configures Dial.
type Option func(*Config)

// WithSeed sets the session's initial random() seed.
func WithSeed(seed uint64) Option { return func(c *Config) { c.Seed = seed } }

// WithWindow sets the pipelining window (1 = fully synchronous: each
// request waits for the previous response's slot).
func WithWindow(n int) Option { return func(c *Config) { c.Window = n } }

// WithDialTimeout bounds the TCP connect.
func WithDialTimeout(d time.Duration) Option { return func(c *Config) { c.DialTimeout = d } }

// Stats is the server's counter snapshot: the storage counters (embedded,
// so st.Commits etc. read directly) plus the plan cache's counters and
// the live connection count.
type Stats struct {
	storage.StatsSnapshot
	Plans       wire.PlanStats
	ActiveConns int64 // open connections on the server
}

// outcome is one completed response.
type outcome struct {
	res     *Result
	parse   *wire.ParseOK
	stats   *Stats
	notices []string
	doneTag string
	err     error
}

// Pending is a request in flight. Wait blocks until its response arrives
// (responses are delivered in request order).
type Pending struct {
	ch chan outcome
	// release marks the last message of one send() call: completing it
	// frees the send's pipelining-window slot.
	release bool
	// sink, when set, streams this request's rows instead of buffering
	// them into a Result (see Conn.QueryStream). It runs on the read
	// loop.
	sink func(cols []string, rows [][]Value) error
}

// Wait returns the request's result (nil for statements that return no
// rows) or its error.
func (p *Pending) Wait() (*Result, error) {
	o := <-p.ch
	p.ch <- o // allow repeated Wait
	return o.res, o.err
}

func (p *Pending) wait() (outcome, error) {
	o := <-p.ch
	p.ch <- o
	return o, o.err
}

// Conn is one wire-protocol connection: a dedicated server session. Safe
// for concurrent use; concurrent requests pipeline on the wire.
type Conn struct {
	nc net.Conn
	bw *bufio.Writer

	// writeMu serializes frame writes and pending-queue pushes, so the
	// FIFO of pendings matches the order of requests on the wire.
	writeMu sync.Mutex
	pending chan *Pending
	// slots bounds requests in flight (the pipelining window).
	slots chan struct{}

	quit     chan struct{}
	quitOnce sync.Once
	errMu    sync.Mutex
	err      error // first fatal connection error

	// noticeMu guards the connection's pending NOTICE messages (RAISE
	// NOTICE output and transaction-control warnings the server streamed
	// ahead of response terminators).
	noticeMu sync.Mutex
	notices  []string

	stmtMu  sync.Mutex
	stmtSeq uint64

	// Server is the banner the server announced at startup.
	Server string
}

// Dial connects to a plsqlaway server.
func Dial(addr string, opts ...Option) (*Conn, error) {
	cfg := Config{Seed: 42, Window: 64, DialTimeout: 5 * time.Second}
	for _, o := range opts {
		o(&cfg)
	}
	if cfg.Window < 1 {
		cfg.Window = 1
	}
	nc, err := net.DialTimeout("tcp", addr, cfg.DialTimeout)
	if err != nil {
		return nil, err
	}
	c := &Conn{
		nc: nc,
		bw: bufio.NewWriterSize(nc, 64<<10),
		// One window slot per send() call; a send carries at most 3
		// messages (parse + execute + close), so the pending queue is
		// sized to keep pushes non-blocking under a full window.
		pending: make(chan *Pending, 3*cfg.Window),
		slots:   make(chan struct{}, cfg.Window),
		quit:    make(chan struct{}),
	}
	if err := wire.WriteMessage(c.bw, &wire.Startup{Version: wire.ProtocolVersion, Seed: cfg.Seed}); err != nil {
		nc.Close()
		return nil, err
	}
	if err := c.bw.Flush(); err != nil {
		nc.Close()
		return nil, err
	}
	br := bufio.NewReaderSize(nc, 64<<10)
	msg, err := wire.ReadMessage(br)
	if err != nil {
		nc.Close()
		return nil, fmt.Errorf("client: handshake: %w", err)
	}
	switch m := msg.(type) {
	case *wire.Ready:
		c.Server = m.Server
	case *wire.Error:
		nc.Close()
		return nil, fmt.Errorf("client: server rejected startup: %s", m.Message)
	default:
		nc.Close()
		return nil, fmt.Errorf("client: unexpected handshake frame %c", msg.Type())
	}
	go c.readLoop(br)
	return c, nil
}

// fail records the first fatal error and tears the connection down.
func (c *Conn) fail(err error) {
	c.errMu.Lock()
	if c.err == nil {
		c.err = err
	}
	c.errMu.Unlock()
	c.quitOnce.Do(func() { close(c.quit) })
	c.nc.Close()
}

func (c *Conn) fatalErr() error {
	c.errMu.Lock()
	defer c.errMu.Unlock()
	return c.err
}

// ErrClosed is the error pending requests receive when the connection
// goes away underneath them.
var ErrClosed = fmt.Errorf("client: connection closed")

// Retryable-failure sentinels, re-exported from the engine so remote
// callers match them without importing internal packages. The server
// classifies these on the wire (wire.Error.Code) and readResponse wraps
// the sentinel back in, so errors.Is works across the connection exactly
// as it does embedded.
var (
	// ErrSerialization: a concurrent commit invalidated the transaction's
	// snapshot — rollback and retry the whole transaction.
	ErrSerialization = engine.ErrSerialization
	// ErrTxnAborted: a prior statement failed inside the block — only
	// ROLLBACK (or COMMIT, which rolls back) is accepted.
	ErrTxnAborted = engine.ErrTxnAborted
)

// serverError is a statement failure reported by the server, carrying
// the sentinel its wire code classified it as (nil for generic errors).
type serverError struct {
	msg      string
	sentinel error
}

func (e *serverError) Error() string { return "server: " + e.msg }
func (e *serverError) Unwrap() error { return e.sentinel }

// decodeError turns a wire Error frame into the client-side error value.
func decodeError(m *wire.Error) error {
	var sentinel error
	switch m.Code {
	case wire.CodeSerialization:
		sentinel = ErrSerialization
	case wire.CodeTxnAborted:
		sentinel = ErrTxnAborted
	}
	return &serverError{msg: m.Message, sentinel: sentinel}
}

// Close terminates the connection. In-flight requests fail with
// ErrClosed (wait for them first for a graceful end). Closing an
// already-closed connection returns ErrClosed.
func (c *Conn) Close() error {
	select {
	case <-c.quit:
		return ErrClosed
	default:
	}
	c.writeMu.Lock()
	wire.WriteMessage(c.bw, &wire.Terminate{})
	c.bw.Flush()
	c.writeMu.Unlock()
	c.fail(ErrClosed)
	return nil
}

// maxBufferedNotices bounds the per-connection notice buffer: a caller
// that never drains loses the oldest messages, not memory.
const maxBufferedNotices = 1024

// Notices drains the NOTICE messages received so far (RAISE NOTICE
// output and transaction-control warnings). Notices arrive attached to
// responses, so after a synchronous Query/Exec the statement's notices
// are already here; with concurrent callers pipelining on one
// connection, their notices interleave in response order. At most the
// newest maxBufferedNotices are retained between drains.
func (c *Conn) Notices() []string {
	c.noticeMu.Lock()
	n := c.notices
	c.notices = nil
	c.noticeMu.Unlock()
	return n
}

// Begin opens a transaction block on this connection's server session.
// The block spans statements until Commit or Rollback; concurrent
// callers sharing this connection would land inside it, so either
// dedicate the connection to the transaction or use Pool.Begin, which
// pins one for you.
func (c *Conn) Begin() error { return c.Exec("BEGIN") }

// Commit commits the open transaction block.
func (c *Conn) Commit() error { return c.Exec("COMMIT") }

// Rollback rolls back the open transaction block.
func (c *Conn) Rollback() error { return c.Exec("ROLLBACK") }

// readLoop matches response sequences to pending requests in FIFO order.
func (c *Conn) readLoop(br *bufio.Reader) {
	defer c.drainPending()
	for {
		var p *Pending
		select {
		case p = <-c.pending:
		case <-c.quit:
			return
		}
		o := c.readResponse(br, p.sink)
		if len(o.notices) > 0 {
			c.noticeMu.Lock()
			c.notices = append(c.notices, o.notices...)
			// Notices are advisory: callers that never drain must not
			// leak memory, so the buffer keeps only the newest.
			if n := len(c.notices); n > maxBufferedNotices {
				c.notices = append(c.notices[:0], c.notices[n-maxBufferedNotices:]...)
			}
			c.noticeMu.Unlock()
		}
		release := p.release
		p.ch <- o
		if release {
			<-c.slots // free the send's window slot
		}
		if o.err != nil {
			if _, fatal := o.err.(*connError); fatal {
				c.fail(o.err)
				return
			}
		}
	}
}

// connError marks errors that kill the connection (as opposed to
// statement errors, after which the connection keeps serving).
type connError struct{ err error }

func (e *connError) Error() string { return e.err.Error() }
func (e *connError) Unwrap() error { return e.err }

// readResponse consumes one response sequence: zero or more data frames
// (rows, notices) ended by a terminator. With a sink, row chunks are
// handed to it as they arrive instead of accumulating in a Result; a
// sink error stops deliveries but keeps draining the response (the
// stream must stay frame-synchronized) and surfaces on the terminator.
func (c *Conn) readResponse(br *bufio.Reader, sink func(cols []string, rows [][]Value) error) outcome {
	var res *Result
	var notices []string
	var cols []string
	var sawDesc bool
	var sinkErr error
	deliver := func(rows [][]Value) {
		if !sawDesc || sinkErr != nil {
			return
		}
		sinkErr = sink(cols, rows)
	}
	for {
		msg, err := wire.ReadMessage(br)
		if err != nil {
			return outcome{err: &connError{fmt.Errorf("client: read: %w", err)}}
		}
		switch m := msg.(type) {
		case *wire.RowDesc:
			sawDesc = true
			if sink != nil {
				// Announce the result shape before any rows: the sink sees
				// (cols, nil) once, then (cols, rows) per chunk.
				cols = m.Cols
				deliver(nil)
			} else {
				res = &Result{Cols: m.Cols}
			}
		case *wire.ColBatch:
			if !sawDesc && res == nil {
				return outcome{err: &connError{fmt.Errorf("client: row batch before row description")}}
			}
			rows := m.Rows()
			if sink != nil {
				if len(rows) > 0 {
					deliver(rows)
				}
			} else {
				res.Rows = append(res.Rows, rows...)
			}
		case *wire.Notice:
			notices = append(notices, m.Message)
		case *wire.Done:
			if sinkErr != nil {
				return outcome{notices: notices, err: sinkErr}
			}
			return outcome{res: res, notices: notices, doneTag: m.Tag}
		case *wire.Error:
			if sinkErr != nil {
				return outcome{notices: notices, err: sinkErr}
			}
			return outcome{notices: notices, err: decodeError(m)}
		case *wire.ParseOK:
			return outcome{parse: m}
		case *wire.StatsReply:
			return outcome{stats: &Stats{StatsSnapshot: m.Stats, Plans: m.Plans, ActiveConns: m.ActiveConns}}
		default:
			return outcome{err: &connError{fmt.Errorf("client: unexpected frame %c", msg.Type())}}
		}
	}
}

// drainPending fails every queued request after the connection dies.
func (c *Conn) drainPending() {
	err := c.fatalErr()
	if err == nil {
		err = ErrClosed
	}
	for {
		select {
		case p := <-c.pending:
			release := p.release
			p.ch <- outcome{err: err}
			if release {
				<-c.slots
			}
		default:
			return
		}
	}
}

// send writes msgs as one atomic run of frames (one request) and returns
// one Pending per message, in order. It blocks while the pipelining
// window is full; the whole run occupies one window slot. The frames are
// encoded and size-checked before any protocol state changes, so an
// oversized request fails as a plain per-call error — the connection
// (and everyone pipelining on it) survives.
func (c *Conn) send(msgs ...wire.Message) ([]*Pending, error) {
	return c.sendSink(nil, msgs...)
}

// sendSink is send with a row sink attached to the first message's
// response (the others, if any, buffer normally).
func (c *Conn) sendSink(sink func(cols []string, rows [][]Value) error, msgs ...wire.Message) ([]*Pending, error) {
	type frame struct {
		typ     byte
		payload []byte
	}
	frames := make([]frame, len(msgs))
	for i, m := range msgs {
		typ, payload, err := wire.EncodeMessage(m)
		if err != nil {
			return nil, err
		}
		frames[i] = frame{typ: typ, payload: payload}
	}
	ps := make([]*Pending, len(msgs))
	for i := range ps {
		ps[i] = &Pending{ch: make(chan outcome, 1)}
	}
	ps[0].sink = sink
	ps[len(ps)-1].release = true
	// Acquire the window slot first (outside writeMu, so a blocked window
	// doesn't serialize unrelated senders' slot waits behind the lock).
	select {
	case c.slots <- struct{}{}:
	case <-c.quit:
		return nil, c.closedErr()
	}
	c.writeMu.Lock()
	defer c.writeMu.Unlock()
	select {
	case <-c.quit:
		<-c.slots
		return nil, c.closedErr()
	default:
	}
	for i, f := range frames {
		c.pending <- ps[i]
		if err := wire.WriteFrame(c.bw, f.typ, f.payload); err != nil {
			c.fail(&connError{err})
			return nil, err
		}
	}
	if err := c.bw.Flush(); err != nil {
		c.fail(&connError{err})
		return nil, err
	}
	return ps, nil
}

func (c *Conn) closedErr() error {
	if err := c.fatalErr(); err != nil {
		return err
	}
	return ErrClosed
}

// Exec runs a SQL statement or semicolon-separated script, discarding
// any rows.
func (c *Conn) Exec(sql string) error {
	ps, err := c.send(&wire.Query{SQL: sql})
	if err != nil {
		return err
	}
	_, err = ps[0].Wait()
	return err
}

// Query runs a single SQL statement. With parameters it transparently
// uses an anonymous prepared statement (parse + execute + close,
// pipelined in one write).
func (c *Conn) Query(sql string, params ...Value) (*Result, error) {
	if len(params) == 0 {
		ps, err := c.send(&wire.Query{SQL: sql})
		if err != nil {
			return nil, err
		}
		return ps[0].Wait()
	}
	name := c.nextStmtName()
	ps, err := c.send(
		&wire.Parse{Name: name, SQL: sql},
		&wire.Execute{Name: name, Params: params},
		&wire.CloseStmt{Name: name},
	)
	if err != nil {
		return nil, err
	}
	if _, err := ps[0].wait(); err != nil {
		// Parse failed; the server answered Error for the dangling
		// execute/close too — collect them so the conn stays in sync.
		ps[1].Wait()
		ps[2].Wait()
		return nil, err
	}
	res, execErr := ps[1].Wait()
	ps[2].Wait()
	return res, execErr
}

// QueryStream runs a single row-returning statement, delivering rows to
// fn chunk by chunk as frames arrive instead of materializing the whole
// result: peak client memory is one wire batch. fn is first called once
// with (cols, nil) to announce the result shape, then with (cols, rows)
// per chunk; it runs on the connection's read loop, so a slow fn slows
// the read side, TCP backpressure reaches the server, and the server's
// executor pull stalls — end-to-end flow control with roughly one batch
// in flight. Avoid issuing requests on the same connection from inside
// fn. If fn returns an error, remaining chunks are discarded and the
// error is returned; fn may have observed a prefix of the rows when an
// error (its own or the server's) terminates the stream.
func (c *Conn) QueryStream(sql string, fn func(cols []string, rows [][]Value) error) error {
	ps, err := c.sendSink(fn, &wire.Query{SQL: sql})
	if err != nil {
		return err
	}
	_, err = ps[0].Wait()
	return err
}

// QueryValue runs a query expected to return a single value.
func (c *Conn) QueryValue(sql string, params ...Value) (Value, error) {
	res, err := c.Query(sql, params...)
	if err != nil {
		return Null, err
	}
	return singleValue(res)
}

func singleValue(res *Result) (Value, error) {
	if res == nil || len(res.Rows) != 1 || len(res.Rows[0]) != 1 {
		n := 0
		if res != nil {
			n = len(res.Rows)
		}
		return Null, fmt.Errorf("client: expected a single value, got %d rows", n)
	}
	return res.Rows[0][0], nil
}

// Seed reseeds the connection's server-side random() stream.
func (c *Conn) Seed(seed uint64) error {
	ps, err := c.send(&wire.Seed{Seed: seed})
	if err != nil {
		return err
	}
	_, err = ps[0].Wait()
	return err
}

// SeedAsync is Seed without waiting — pair it with Stmt.Send to keep a
// reseed+execute sequence pipelined.
func (c *Conn) SeedAsync(seed uint64) (*Pending, error) {
	ps, err := c.send(&wire.Seed{Seed: seed})
	if err != nil {
		return nil, err
	}
	return ps[0], nil
}

// Stats fetches the server engine's counters: storage (page writes plus
// MVCC commit/vacuum counts — remote benchmarks assert storage behaviour
// through this) and the plan cache's UDF-inlining counters.
func (c *Conn) Stats() (Stats, error) {
	// Fast-fail on a dead connection so shutdown paths (a shell printing
	// its exit stats, say) never block on a round-trip that cannot answer.
	select {
	case <-c.quit:
		return Stats{}, c.closedErr()
	default:
	}
	ps, err := c.send(&wire.StatsRequest{})
	if err != nil {
		return Stats{}, err
	}
	o, err := ps[0].wait()
	if err != nil {
		return Stats{}, err
	}
	if o.stats == nil {
		return Stats{}, fmt.Errorf("client: stats request answered with %+v", o)
	}
	return *o.stats, nil
}

func (c *Conn) nextStmtName() string {
	c.stmtMu.Lock()
	c.stmtSeq++
	n := c.stmtSeq
	c.stmtMu.Unlock()
	return fmt.Sprintf("s%d", n)
}

// Stmt is a statement prepared on the server, executable many times.
type Stmt struct {
	c         *Conn
	name      string
	numParams int
	isQuery   bool
}

// Prepare parses sql on the server and returns a reusable statement.
func (c *Conn) Prepare(sql string) (*Stmt, error) {
	name := c.nextStmtName()
	ps, err := c.send(&wire.Parse{Name: name, SQL: sql})
	if err != nil {
		return nil, err
	}
	o, err := ps[0].wait()
	if err != nil {
		return nil, err
	}
	if o.parse == nil {
		return nil, fmt.Errorf("client: parse answered with %+v", o)
	}
	return &Stmt{c: c, name: name, numParams: int(o.parse.NumParams), isQuery: o.parse.IsQuery}, nil
}

// NumParams reports how many $n parameters the statement takes.
func (s *Stmt) NumParams() int { return s.numParams }

// IsQuery reports whether executions return rows.
func (s *Stmt) IsQuery() bool { return s.isQuery }

// Send executes the statement asynchronously: it returns as soon as the
// request is on the wire, letting the caller pipeline.
func (s *Stmt) Send(params ...Value) (*Pending, error) {
	ps, err := s.c.send(&wire.Execute{Name: s.name, Params: params})
	if err != nil {
		return nil, err
	}
	return ps[0], nil
}

// Query executes the statement and waits for its rows.
func (s *Stmt) Query(params ...Value) (*Result, error) {
	p, err := s.Send(params...)
	if err != nil {
		return nil, err
	}
	return p.Wait()
}

// QueryValue executes the statement, expecting a single value.
func (s *Stmt) QueryValue(params ...Value) (Value, error) {
	res, err := s.Query(params...)
	if err != nil {
		return Null, err
	}
	return singleValue(res)
}

// Exec executes the statement, discarding rows.
func (s *Stmt) Exec(params ...Value) error {
	_, err := s.Query(params...)
	return err
}

// Close releases the server-side statement.
func (s *Stmt) Close() error {
	ps, err := s.c.send(&wire.CloseStmt{Name: s.name})
	if err != nil {
		return err
	}
	_, err = ps[0].Wait()
	return err
}
