package server

// Wire-level observability tests: the StatsReply round trip and the
// server's traffic metrics.

import (
	"bufio"
	"context"
	"fmt"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"plsqlaway/internal/engine"
	"plsqlaway/internal/obs"
	"plsqlaway/internal/sqltypes"
	"plsqlaway/internal/wire"
)

// startEngine serves the given engine, returning the server and address.
func startEngine(t *testing.T, e *engine.Engine) (*Server, string) {
	t.Helper()
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
	return srv, ln.Addr().String()
}

func statsRoundTrip(t *testing.T, br *bufio.Reader, bw *bufio.Writer) *wire.StatsReply {
	t.Helper()
	if err := wire.WriteMessage(bw, &wire.StatsRequest{}); err != nil {
		t.Fatal(err)
	}
	bw.Flush()
	msg, err := wire.ReadMessage(br)
	if err != nil {
		t.Fatal(err)
	}
	st, ok := msg.(*wire.StatsReply)
	if !ok {
		t.Fatalf("stats request answered %T", msg)
	}
	return st
}

// TestStatsReplyCountsConnections: the stats frame carries the live
// connection count.
func TestStatsReplyCountsConnections(t *testing.T) {
	_, addr := startEngine(t, engine.New(engine.WithSeed(42)))
	rawConn(t, addr)
	_, br, bw := rawConn(t, addr)
	if st := statsRoundTrip(t, br, bw); st.ActiveConns < 2 {
		t.Errorf("ActiveConns = %d, want ≥ 2 (both test connections open)", st.ActiveConns)
	}
}

// TestServerTrafficMetrics runs a query through an instrumented server
// and asserts the connection gauge and per-frame traffic counters moved,
// and that the registry's text render stays Prometheus-parseable with
// the server families included.
func TestServerTrafficMetrics(t *testing.T) {
	reg := obs.NewRegistry()
	e := engine.New(engine.WithSeed(42), engine.WithMetricsRegistry(reg))
	if err := e.NewSession().Exec("CREATE TABLE t (n int); INSERT INTO t VALUES (1), (2), (3)"); err != nil {
		t.Fatal(err)
	}
	srv, addr := startEngine(t, e)

	_, br, bw := rawConn(t, addr)
	if err := wire.WriteMessage(bw, &wire.Query{SQL: "SELECT n FROM t ORDER BY n"}); err != nil {
		t.Fatal(err)
	}
	bw.Flush()
	for {
		msg, err := wire.ReadMessage(br)
		if err != nil {
			t.Fatal(err)
		}
		if _, ok := msg.(*wire.Done); ok {
			break
		}
		if em, ok := msg.(*wire.Error); ok {
			t.Fatalf("query failed: %s", em.Message)
		}
	}

	if n := srv.ConnCount(); n != 1 {
		t.Errorf("ConnCount = %d, want 1", n)
	}
	series := map[string]map[string]float64{}
	gauges := map[string]float64{}
	for _, m := range reg.Gather() {
		bylabel := map[string]float64{}
		for _, s := range m.Samples {
			if s.Value != nil {
				bylabel[s.Label] = *s.Value
				gauges[m.Name] = *s.Value
			}
		}
		series[m.Name] = bylabel
	}
	if v := series["plsql_server_frames_in_total"]["query"]; v < 1 {
		t.Errorf("frames_in{frame=query} = %v, want ≥ 1", v)
	}
	if v := series["plsql_server_frames_out_total"]["done"]; v < 1 {
		t.Errorf("frames_out{frame=done} = %v, want ≥ 1", v)
	}
	if v := series["plsql_server_bytes_out_total"]["row_desc"]; v < 6 {
		t.Errorf("bytes_out{frame=row_desc} = %v, want ≥ 6 (header + payload)", v)
	}
	if v := gauges["plsql_server_active_connections"]; v != 1 {
		t.Errorf("active_connections = %v, want 1", v)
	}
	if v := gauges["plsql_server_connections_total"]; v < 1 {
		t.Errorf("connections_total = %v, want ≥ 1", v)
	}

	var sb strings.Builder
	if err := reg.WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		`plsql_server_frames_in_total{frame="query"}`,
		`plsql_server_active_connections`,
	} {
		if !strings.Contains(sb.String(), want) {
			t.Errorf("text render missing %s:\n%s", want, sb.String())
		}
	}
}

// TestPreparedSelectIsObserved: a prepared SELECT executed over the wire
// goes through the same observed statement path as everything else — it
// counts as a statement and can trip the slow-query log.
func TestPreparedSelectIsObserved(t *testing.T) {
	reg := obs.NewRegistry()
	var mu sync.Mutex
	var slow []string
	e := engine.New(engine.WithSeed(42), engine.WithMetricsRegistry(reg),
		engine.WithSlowQuery(time.Nanosecond, func(format string, args ...any) {
			mu.Lock()
			slow = append(slow, fmt.Sprintf(format, args...))
			mu.Unlock()
		}))
	statements := func() float64 {
		for _, m := range reg.Gather() {
			if m.Name == "plsql_engine_statements_total" {
				return *m.Samples[0].Value
			}
		}
		t.Fatal("no statements_total series")
		return 0
	}
	_, addr := startEngine(t, e)
	_, br, bw := rawConn(t, addr)
	wire.WriteMessage(bw, &wire.Parse{Name: "p", SQL: "SELECT $1 + 41"})
	bw.Flush()
	if _, ok := mustRead(t, br).(*wire.ParseOK); !ok {
		t.Fatal("parse refused")
	}
	before := statements()
	wire.WriteMessage(bw, &wire.Execute{Name: "p", Params: []sqltypes.Value{sqltypes.NewInt(1)}})
	bw.Flush()
	if r := drain(t, br); r.err != "" || len(r.rows) != 2 || r.rows[1] != "42" {
		t.Fatalf("execute answered %+v", r)
	}
	if got := statements() - before; got != 1 {
		t.Errorf("statements_total moved by %v for one prepared SELECT, want 1", got)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(slow) != 1 || !strings.Contains(slow[0], "slow query:") || !strings.Contains(slow[0], "+ 41") {
		t.Errorf("slow-query log = %q, want one line naming the prepared SELECT", slow)
	}
}
