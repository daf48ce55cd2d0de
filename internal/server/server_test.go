package server

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"regexp"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"plsqlaway/internal/engine"
	"plsqlaway/internal/sqltypes"
	"plsqlaway/internal/wire"
)

// msgRows extracts the rows of a result frame.
func msgRows(t *testing.T, msg wire.Message) [][]sqltypes.Value {
	t.Helper()
	cb, ok := msg.(*wire.ColBatch)
	if !ok {
		t.Fatalf("want a result frame, got %#v", msg)
	}
	return cb.Rows()
}

// start returns a served listener plus a cleanup-registered shutdown.
func start(t *testing.T) string {
	t.Helper()
	e := engine.New(engine.WithSeed(42))
	srv := New(e, Options{})
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
		srv.Shutdown(ctx)
		<-done
	})
	return ln.Addr().String()
}

// rawConn dials and completes the handshake, returning buffered ends.
func rawConn(t *testing.T, addr string) (net.Conn, *bufio.Reader, *bufio.Writer) {
	t.Helper()
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { nc.Close() })
	br, bw := bufio.NewReader(nc), bufio.NewWriter(nc)
	if err := wire.WriteMessage(bw, &wire.Startup{Version: wire.ProtocolVersion, Seed: 42}); err != nil {
		t.Fatal(err)
	}
	bw.Flush()
	msg, err := wire.ReadMessage(br)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := msg.(*wire.Ready); !ok {
		t.Fatalf("handshake answered %T", msg)
	}
	return nc, br, bw
}

// TestStreamedErrorTerminates pins mid-stream failure framing: when a
// query dies after batches already went out, the response must end with
// an Error frame (not Done), and the connection must keep serving. It also
// pins that the server streams rather than materialises: the query's
// 3 000 rows at the default batch size of 256 are 11 full batches ahead of
// the one that fails, and all 11 must be on the wire before the Error. A
// server that collected a result's batches and wrote them only once the
// statement succeeded would send none. Query and Parse/Execute alike.
func TestStreamedErrorTerminates(t *testing.T) {
	addr := start(t)
	_, br, bw := rawConn(t, addr)
	// Division by zero on the last row only: earlier batches stream out
	// before the error surfaces.
	const sql = "WITH RECURSIVE g(i) AS (SELECT 1 UNION ALL SELECT i + 1 FROM g WHERE i < 3000) SELECT i / (3000 - i) FROM g"
	for _, via := range []string{"Query", "Execute"} {
		if via == "Query" {
			wire.WriteMessage(bw, &wire.Query{SQL: sql})
		} else {
			wire.WriteMessage(bw, &wire.Parse{Name: "s", SQL: sql})
			bw.Flush()
			if m, ok := mustRead(t, br).(*wire.ParseOK); !ok {
				t.Fatalf("Parse answered %#v", m)
			}
			wire.WriteMessage(bw, &wire.Execute{Name: "s"})
		}
		bw.Flush()
		r := drain(t, br)
		if !r.hasDesc || !strings.Contains(r.err, "division by zero") {
			t.Fatalf("%s: response %+v, want RowDesc … Error(division by zero)", via, r)
		}
		if r.batches < 11 {
			t.Fatalf("%s: %d ColBatch frames before the Error, want ≥ 11", via, r.batches)
		}
		// The connection keeps serving after the failed stream.
		wire.WriteMessage(bw, &wire.Query{SQL: "SELECT 7"})
		bw.Flush()
		if r := drain(t, br); r.err != "" || len(r.rows) != 2 || r.rows[1] != "7" {
			t.Fatalf("%s: next query answered %+v", via, r)
		}
	}
}

func mustRead(t *testing.T, br *bufio.Reader) wire.Message {
	t.Helper()
	m, err := wire.ReadMessage(br)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestVersionMismatchRejected: there is one protocol version; every other
// startup — the three retired versions and the next one — is refused
// with a version Error.
func TestVersionMismatchRejected(t *testing.T) {
	addr := start(t)
	for _, v := range []uint32{3, 4, 5, 7} {
		nc, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		bw := bufio.NewWriter(nc)
		wire.WriteMessage(bw, &wire.Startup{Version: v, Seed: 1})
		bw.Flush()
		msg, err := wire.ReadMessage(bufio.NewReader(nc))
		nc.Close()
		if err != nil {
			t.Fatal(err)
		}
		e, ok := msg.(*wire.Error)
		if !ok || !strings.Contains(e.Message, "version") {
			t.Fatalf("startup v%d got %#v", v, msg)
		}
	}
}

func TestMalformedPayloadAnsweredInOrder(t *testing.T) {
	addr := start(t)
	_, br, bw := rawConn(t, addr)

	// Pipeline: good query, malformed execute payload, good query. The
	// malformed frame must get an Error response in position 2 and the
	// connection must keep serving.
	wire.WriteMessage(bw, &wire.Query{SQL: "SELECT 1"})
	wire.WriteFrame(bw, wire.TypeExecute, []byte{0xFF, 0xFF}) // lying length
	wire.WriteMessage(bw, &wire.Query{SQL: "SELECT 2"})
	bw.Flush()

	read := func() wire.Message {
		t.Helper()
		m, err := wire.ReadMessage(br)
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	// Response 1: RowDesc, ColBatch, Done.
	if _, ok := read().(*wire.RowDesc); !ok {
		t.Fatal("want row desc")
	}
	if rows := msgRows(t, read()); rows[0][0].Int() != 1 {
		t.Fatalf("want SELECT 1 rows, got %v", rows)
	}
	if _, ok := read().(*wire.Done); !ok {
		t.Fatal("want done")
	}
	// Response 2: the malformed frame's error.
	em, ok := read().(*wire.Error)
	if !ok || !strings.Contains(em.Message, "malformed") {
		t.Fatalf("want malformed-frame error, got %#v", em)
	}
	// Response 3: still served.
	if _, ok := read().(*wire.RowDesc); !ok {
		t.Fatal("connection died after malformed frame")
	}
	if rows := msgRows(t, read()); rows[0][0].Int() != 2 {
		t.Fatalf("want SELECT 2 rows, got %v", rows)
	}
	if _, ok := read().(*wire.Done); !ok {
		t.Fatal("want done")
	}
}

func TestServerRejectsServerFrames(t *testing.T) {
	addr := start(t)
	_, br, bw := rawConn(t, addr)
	wire.WriteMessage(bw, &wire.Done{Tag: "OK"}) // a server→client frame
	bw.Flush()
	msg, err := wire.ReadMessage(br)
	if err != nil {
		t.Fatal(err)
	}
	if e, ok := msg.(*wire.Error); !ok || !strings.Contains(e.Message, "unexpected frame") {
		t.Fatalf("got %#v", msg)
	}
}

func TestUnknownStatementName(t *testing.T) {
	addr := start(t)
	_, br, bw := rawConn(t, addr)
	wire.WriteMessage(bw, &wire.Execute{Name: "nope"})
	bw.Flush()
	msg, err := wire.ReadMessage(br)
	if err != nil {
		t.Fatal(err)
	}
	if e, ok := msg.(*wire.Error); !ok || !strings.Contains(e.Message, "unknown prepared statement") {
		t.Fatalf("got %#v", msg)
	}
}

func TestScriptVsQueryDispatch(t *testing.T) {
	addr := start(t)
	_, br, bw := rawConn(t, addr)

	// A multi-statement script answers plain Done.
	wire.WriteMessage(bw, &wire.Query{SQL: "CREATE TABLE t (x int); INSERT INTO t VALUES (1); INSERT INTO t VALUES (2)"})
	bw.Flush()
	msg, err := wire.ReadMessage(br)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := msg.(*wire.Done); !ok {
		t.Fatalf("script answered %#v", msg)
	}
	// A failing script reports its error once.
	wire.WriteMessage(bw, &wire.Query{SQL: "INSERT INTO t VALUES (3); INSERT INTO missing VALUES (4)"})
	bw.Flush()
	msg, err = wire.ReadMessage(br)
	if err != nil {
		t.Fatal(err)
	}
	if e, ok := msg.(*wire.Error); !ok || !strings.Contains(e.Message, "does not exist") {
		t.Fatalf("got %#v", msg)
	}
	// The failing script was one implicit transaction block: its first
	// statement rolled back with it.
	wire.WriteMessage(bw, &wire.Query{SQL: "SELECT count(*) FROM t"})
	bw.Flush()
	desc, err := wire.ReadMessage(br)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := desc.(*wire.RowDesc); !ok {
		t.Fatalf("want row desc, got %#v", desc)
	}
	rb, err := wire.ReadMessage(br)
	if err != nil {
		t.Fatal(err)
	}
	if got := msgRows(t, rb)[0][0].Int(); got != 2 {
		t.Fatalf("count = %d, want 2", got)
	}
}

// response is one drained Query or Execute response.
type response struct {
	hasDesc bool
	rows    []string // one rendered line per row
	batches int
	notices []string
	err     string // the Error frame's message; "" when the response ended with Done
}

// drain reads one response to its terminator. Only RowDesc, ColBatch,
// Notice, Done and Error may appear, and rows only after their RowDesc.
func drain(t *testing.T, br *bufio.Reader) response {
	t.Helper()
	var r response
	for {
		switch m := mustRead(t, br).(type) {
		case *wire.RowDesc:
			if r.hasDesc || r.batches > 0 {
				t.Fatalf("misplaced RowDesc %v", m.Cols)
			}
			r.hasDesc = true
			r.rows = append(r.rows, strings.Join(m.Cols, "|"))
		case *wire.ColBatch:
			if !r.hasDesc {
				t.Fatal("ColBatch before RowDesc")
			}
			r.batches++
			for _, row := range m.Rows() {
				vals := make([]string, len(row))
				for i, v := range row {
					vals[i] = v.String()
				}
				r.rows = append(r.rows, strings.Join(vals, "|"))
			}
		case *wire.Notice:
			r.notices = append(r.notices, m.Message)
		case *wire.Done:
			return r
		case *wire.Error:
			r.err = m.Message
			return r
		default:
			t.Fatalf("frame %T inside a response", m)
		}
	}
}

// TestEveryShapeOneResultPath drives every statement shape through both
// request kinds — a Query frame, and Parse + Execute — and demands the
// same answer from both: the same rows in the same order, the same
// notices, the same error, all of it in RowDesc/ColBatch/Notice/Done/Error
// frames only.
func TestEveryShapeOneResultPath(t *testing.T) {
	// Batch size 16 makes "wider than one batch" cheap to reach.
	e := engine.New(engine.WithSeed(42), engine.WithBatchSize(16))
	s := e.NewSession()
	var vals []string
	for i := 1; i <= 100; i++ {
		vals = append(vals, fmt.Sprintf("(%d)", i))
	}
	if err := s.Exec("CREATE TABLE seq (n int); CREATE TABLE sink (x int); INSERT INTO seq VALUES " + strings.Join(vals, ", ")); err != nil {
		t.Fatal(err)
	}
	_, addr := startEngine(t, e)
	_, br, bw := rawConn(t, addr)

	timeField := regexp.MustCompile(`time=\S+`)
	cases := []struct {
		name       string
		sql        string           // sent as a Query frame
		prep       string           // sent as Parse; defaults to sql
		params     []sqltypes.Value // sent with Execute
		wantRows   int              // data rows expected; -1 for a response without a result
		minBatches int
		wantErr    string // substring of the terminating Error
		wantNotice string
		parseFails bool // Parse must refuse the text (Execute is skipped)
	}{
		{name: "select", sql: "SELECT n, n * 2 FROM seq WHERE n <= 3 ORDER BY n", wantRows: 3},
		{name: "explain", sql: "EXPLAIN SELECT n FROM seq WHERE n = 3", wantRows: 4},
		{name: "explain analyze", sql: "EXPLAIN ANALYZE SELECT count(*) FROM seq", wantRows: 5},
		{name: "dml", sql: "UPDATE seq SET n = n WHERE n = 100", wantRows: -1},
		{name: "notice", sql: "COMMIT", wantRows: -1, wantNotice: "no transaction in progress"},
		{name: "script", sql: "INSERT INTO sink VALUES (1); INSERT INTO sink VALUES (2)", wantRows: -1, parseFails: true},
		{name: "prepared select", sql: "SELECT n FROM seq WHERE n < 5 ORDER BY n",
			prep: "SELECT n FROM seq WHERE n < $1 ORDER BY n", params: []sqltypes.Value{sqltypes.NewInt(5)}, wantRows: 4},
		{name: "prepared dml", sql: "INSERT INTO sink VALUES (7)",
			prep: "INSERT INTO sink VALUES ($1)", params: []sqltypes.Value{sqltypes.NewInt(7)}, wantRows: -1},
		{name: "mid-stream error", sql: "SELECT n / (50 - n) FROM seq", wantRows: 48, minBatches: 3, wantErr: "division by zero"},
		{name: "wider than one batch", sql: "SELECT n FROM seq", wantRows: 100, minBatches: 7},
		// 16 rows of 2 MB: one executor batch, twice the frame limit.
		{name: "batch halved to fit", sql: "SELECT n, repeat('x', 2000000) FROM seq WHERE n <= 16", wantRows: 16, minBatches: 2},
		{name: "single over-limit row", sql: "SELECT repeat('x', 17000000)", wantRows: 0, wantErr: "frame limit"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			check := func(via string, r response) {
				t.Helper()
				if tc.wantErr == "" && r.err != "" {
					t.Fatalf("%s: error %q", via, r.err)
				}
				if !strings.Contains(r.err, tc.wantErr) {
					t.Fatalf("%s: error %q, want %q", via, r.err, tc.wantErr)
				}
				if want := tc.wantRows >= 0; r.hasDesc != want {
					t.Fatalf("%s: RowDesc sent = %v, want %v", via, r.hasDesc, want)
				}
				if tc.wantRows >= 0 && len(r.rows)-1 != tc.wantRows {
					t.Fatalf("%s: %d rows, want %d", via, len(r.rows)-1, tc.wantRows)
				}
				if r.batches < tc.minBatches {
					t.Fatalf("%s: %d ColBatch frames, want ≥ %d", via, r.batches, tc.minBatches)
				}
				if tc.wantNotice != "" && (len(r.notices) != 1 || !strings.Contains(r.notices[0], tc.wantNotice)) {
					t.Fatalf("%s: notices %q, want one with %q", via, r.notices, tc.wantNotice)
				}
			}
			wire.WriteMessage(bw, &wire.Query{SQL: tc.sql})
			bw.Flush()
			simple := drain(t, br)
			check("Query", simple)

			prep := tc.prep
			if prep == "" {
				prep = tc.sql
			}
			wire.WriteMessage(bw, &wire.Parse{Name: "s", SQL: prep})
			bw.Flush()
			switch m := mustRead(t, br).(type) {
			case *wire.ParseOK:
				if tc.parseFails {
					t.Fatal("Parse accepted a multi-statement script")
				}
			case *wire.Error:
				if !tc.parseFails {
					t.Fatalf("Parse: %s", m.Message)
				}
				return
			default:
				t.Fatalf("Parse answered %T", m)
			}
			wire.WriteMessage(bw, &wire.Execute{Name: "s", Params: tc.params})
			bw.Flush()
			prepared := drain(t, br)
			check("Execute", prepared)

			a := timeField.ReplaceAllString(strings.Join(simple.rows, "\n"), "time=")
			b := timeField.ReplaceAllString(strings.Join(prepared.rows, "\n"), "time=")
			if a != b {
				t.Fatalf("Query and Execute disagree:\n%.2000s\n--- vs ---\n%.2000s", a, b)
			}
		})
	}
}

// TestScriptIsAtomicOverTheWire: statements sent as one Query frame form
// an implicit transaction block, so a concurrent reader never finds the
// table the script created without the rows the script inserted.
func TestScriptIsAtomicOverTheWire(t *testing.T) {
	addr := start(t)
	_, wbr, wbw := rawConn(t, addr)
	_, rbr, rbw := rawConn(t, addr)

	var stop atomic.Bool
	writerDone := make(chan error, 1)
	go func() {
		defer stop.Store(true)
		for i := 0; i < 40; i++ {
			for _, sql := range []string{
				"CREATE TABLE phantom (x int); INSERT INTO phantom VALUES (1), (2), (3)",
				"DROP TABLE phantom",
			} {
				if err := wire.WriteMessage(wbw, &wire.Query{SQL: sql}); err != nil {
					writerDone <- err
					return
				}
				wbw.Flush()
				msg, err := wire.ReadMessage(wbr)
				if err != nil {
					writerDone <- err
					return
				}
				if em, ok := msg.(*wire.Error); ok {
					writerDone <- errors.New(em.Message)
					return
				}
			}
		}
		writerDone <- nil
	}()
	for !stop.Load() {
		wire.WriteMessage(rbw, &wire.Query{SQL: "SELECT count(*) FROM phantom"})
		rbw.Flush()
		r := drain(t, rbr)
		if strings.Contains(r.err, "does not exist") {
			continue
		}
		if r.err != "" || len(r.rows) != 2 || r.rows[1] != "3" {
			t.Fatalf("reader saw %+v, want count 3 or no table", r)
		}
	}
	if err := <-writerDone; err != nil {
		t.Fatal(err)
	}
}

// TestSubqueryInWindowServed: a window whose PARTITION BY holds a
// subquery gets its rows over the wire, and the connection — and the
// server — go on serving.
func TestSubqueryInWindowServed(t *testing.T) {
	addr := start(t)
	_, br, bw := rawConn(t, addr)
	wire.WriteMessage(bw, &wire.Query{SQL: "CREATE TABLE u (id int); INSERT INTO u VALUES (1), (2), (3)"})
	bw.Flush()
	if r := drain(t, br); r.err != "" {
		t.Fatal(r.err)
	}
	wire.WriteMessage(bw, &wire.Query{SQL: "SELECT id, row_number() OVER (PARTITION BY (SELECT 1)) FROM u"})
	bw.Flush()
	if r := drain(t, br); r.err != "" || strings.Join(r.rows, ";") != "id|row_number;1|1;2|2;3|3" {
		t.Fatalf("window query answered %+v", r)
	}
	wire.WriteMessage(bw, &wire.Query{SQL: "SELECT 1"})
	bw.Flush()
	if r := drain(t, br); r.err != "" || len(r.rows) != 2 || r.rows[1] != "1" {
		t.Fatalf("next query answered %+v", r)
	}
}
