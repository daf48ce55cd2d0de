package server

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"net"
	"sync/atomic"
	"time"

	"plsqlaway/internal/engine"
	"plsqlaway/internal/wire"
)

// request is one decoded client frame queued for execution. A payload
// that failed to decode travels as err, so the executor reports it in
// request order like any other response.
type request struct {
	msg wire.Message
	err error
}

// conn is one client connection: a session, a prepared-statement
// namespace, and the read-ahead queue that implements pipelining.
type conn struct {
	srv  *Server
	nc   net.Conn
	br   *bufio.Reader
	bw   *bufio.Writer
	sess *engine.Session

	stmts map[string]*engine.Prepared
	reqs  chan request
	// enc is the executor goroutine's scratch payload buffer, reused
	// across response frames.
	enc wire.Encoder
	// cb and part are the scratch ColBatches reused across result frames:
	// cb holds the current executor batch transposed into lanes, part is
	// the sub-range of cb a halved frame ships.
	cb, part wire.ColBatch

	// draining tells the reader to stop pulling new requests; the
	// executor finishes what is queued and closes the connection.
	draining atomic.Bool
}

func newConn(s *Server, nc net.Conn) *conn {
	return &conn{
		srv:   s,
		nc:    nc,
		br:    bufio.NewReaderSize(nc, 64<<10),
		bw:    bufio.NewWriterSize(nc, 64<<10),
		sess:  s.eng.NewSession(),
		stmts: map[string]*engine.Prepared{},
		reqs:  make(chan request, s.opts.QueueDepth),
	}
}

// beginDrain caps the connection's reads at one absolute deadline: the
// reader keeps accepting requests that were already submitted (in the
// socket or read buffer) until the grace window closes, the executor
// answers everything read, then the connection closes. The flag prevents
// deadline errors from being logged as failures.
func (c *conn) beginDrain() {
	c.draining.Store(true)
	c.nc.SetReadDeadline(time.Now().Add(c.srv.opts.DrainGrace))
}

// serve runs the connection to completion: handshake, then a reader
// goroutine feeding the executor loop.
func (c *conn) serve() {
	defer c.nc.Close()
	// Whatever ends the connection — client disconnect, Terminate, or a
	// server drain — an open transaction block must not outlive it: the
	// rollback releases the commit lock and the snapshot pin the session
	// may be holding.
	defer c.sess.Reset()
	if err := c.handshake(); err != nil {
		c.srv.opts.Logf("server: %s handshake: %v", c.nc.RemoteAddr(), err)
		return
	}

	go c.readLoop()

	for req := range c.reqs {
		c.respond(req)
		// Flush when no request is waiting: under pipelining pressure the
		// responses batch up in the buffered writer; a lone synchronous
		// caller gets its reply immediately.
		if len(c.reqs) == 0 {
			if err := c.bw.Flush(); err != nil {
				c.discard()
				return
			}
		}
	}
	c.bw.Flush()
}

// discard drains the queue after a dead write side so the reader can
// finish and close the channel.
func (c *conn) discard() {
	c.draining.Store(true)
	c.nc.SetReadDeadline(time.Now())
	for range c.reqs {
	}
}

// handshake expects Startup and answers Ready.
func (c *conn) handshake() error {
	msg, err := wire.ReadMessage(c.br)
	if err != nil {
		return err
	}
	st, ok := msg.(*wire.Startup)
	if !ok {
		wire.WriteMessage(c.bw, &wire.Error{Message: "expected startup frame"})
		c.bw.Flush()
		return fmt.Errorf("first frame %c, want startup", msg.Type())
	}
	if st.Version != wire.ProtocolVersion {
		msg := fmt.Sprintf("protocol version %d not supported (server speaks %d)", st.Version, wire.ProtocolVersion)
		wire.WriteMessage(c.bw, &wire.Error{Message: msg})
		c.bw.Flush()
		return fmt.Errorf("version mismatch: client %d", st.Version)
	}
	c.sess.Seed(st.Seed)
	if err := wire.WriteMessage(c.bw, &wire.Ready{Server: c.srv.opts.Banner}); err != nil {
		return err
	}
	return c.bw.Flush()
}

// readLoop decodes frames ahead of execution. It closes the request
// channel when the client disconnects, sends Terminate, or the server
// drains — the executor loop then finishes the queued tail.
func (c *conn) readLoop() {
	defer close(c.reqs)
	for {
		typ, payload, err := wire.ReadFrame(c.br)
		if err != nil {
			if !isExpectedClose(err) && !c.draining.Load() {
				c.srv.opts.Logf("server: %s read: %v", c.nc.RemoteAddr(), err)
			}
			return
		}
		c.srv.metrics.noteIn(typ, len(payload))
		msg, err := wire.Decode(typ, payload)
		if err != nil {
			// The frame boundary is intact — report the malformed payload
			// in order and keep serving.
			c.reqs <- request{err: err}
			continue
		}
		if _, ok := msg.(*wire.Terminate); ok {
			return
		}
		c.reqs <- request{msg: msg}
	}
}

func isExpectedClose(err error) bool {
	if err == io.EOF || err == io.ErrUnexpectedEOF {
		return true
	}
	var ne net.Error
	if errors.As(err, &ne) && ne.Timeout() {
		return true // drain deadline
	}
	return false
}

// respond executes one request and writes its response frames.
func (c *conn) respond(req request) {
	if req.err != nil {
		c.writeError(fmt.Errorf("malformed frame: %w", req.err))
		return
	}
	switch m := req.msg.(type) {
	case *wire.Query:
		c.respondRows(c.sess.RunStream(m.SQL, c.writeDesc, c.writeBatch))
	case *wire.Parse:
		c.handleParse(m)
	case *wire.Execute:
		p, ok := c.stmts[m.Name]
		if !ok {
			c.writeError(fmt.Errorf("unknown prepared statement %q", m.Name))
			return
		}
		c.respondRows(p.QueryStream(c.writeDesc, c.writeBatch, m.Params...))
	case *wire.CloseStmt:
		delete(c.stmts, m.Name)
		c.writeDone()
	case *wire.Seed:
		c.sess.Seed(m.Seed)
		c.writeDone()
	case *wire.StatsRequest:
		inlined, specialized, evicted := c.sess.PlanStats()
		hits, misses := c.sess.PlanCacheStats()
		c.write(&wire.StatsReply{
			Stats: c.sess.StorageStats().Snapshot(),
			Plans: wire.PlanStats{
				PlansInlined: inlined, SpecializedPlans: specialized, CacheEvictions: evicted,
				CacheHits: hits, CacheMisses: misses,
			},
			ActiveConns: c.srv.ConnCount(),
		})
	default:
		c.writeError(fmt.Errorf("unexpected frame %c from client", req.msg.Type()))
	}
}

// respondRows finishes a Query or Execute response. Both ran through the
// same engine path with writeDesc/writeBatch as the sink, so whatever
// rows the statement had — a SELECT's, EXPLAIN text — already went out,
// one frame per executor batch the moment it was produced: a wide scan's
// peak server memory is one batch, never the whole result, and a slow
// client throttles the executor through TCP backpressure. Statements
// without rows (DDL, DML, scripts) wrote nothing. What remains is the
// notices and the terminator; an execution error mid-stream ends the
// response with an Error frame after whatever batches already went out,
// and the client discards the partial result.
func (c *conn) respondRows(err error) {
	c.writeNotices()
	if err != nil {
		c.writeError(err)
		return
	}
	c.writeDone()
}

func (c *conn) writeDesc(cols []string) error { return c.write(&wire.RowDesc{Cols: cols}) }

// writeNotices streams the session's pending NOTICE messages (RAISE
// NOTICE output, transaction-control warnings) ahead of the response
// terminator, Postgres NoticeResponse style.
func (c *conn) writeNotices() {
	for _, n := range c.sess.DrainNotices() {
		c.write(&wire.Notice{Message: n})
	}
}

func (c *conn) handleParse(m *wire.Parse) {
	p, err := c.sess.Prepare(m.SQL)
	if err != nil {
		c.writeError(err)
		return
	}
	c.stmts[m.Name] = p
	c.write(&wire.ParseOK{Name: m.Name, NumParams: uint32(p.NumParams()), IsQuery: p.IsQuery()})
}

// write emits one frame; failures are logged and returned so response
// writers can terminate with an Error frame instead of dropping frames
// silently.
func (c *conn) write(m wire.Message) error {
	if err := wire.WriteMessageBuf(c.bw, m, &c.enc); err != nil {
		c.srv.opts.Logf("server: %s write: %v", c.nc.RemoteAddr(), err)
		return err
	}
	// c.enc still holds the frame's payload after the buffered write.
	c.srv.metrics.noteOut(m.Type(), len(c.enc.Bytes()))
	return nil
}

func (c *conn) writeDone() { c.write(&wire.Done{Tag: "OK"}) }

// writeError terminates a response with an Error frame, classifying the
// engine's retryable sentinels so remote callers can errors.Is them
// (the client package re-wraps the code back onto the sentinel).
func (c *conn) writeError(err error) {
	code := wire.CodeGeneric
	switch {
	case errors.Is(err, engine.ErrSerialization):
		code = wire.CodeSerialization
	case errors.Is(err, engine.ErrTxnAborted):
		code = wire.CodeTxnAborted
	}
	c.write(&wire.Error{Code: code, Message: err.Error()})
}
