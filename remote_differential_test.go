// Remote-vs-local differential suite: every workload in the corpus must
// produce identical results through a loopback wire-protocol server. One
// engine hosts the interpreted originals and both compiled forms; each
// grid case is evaluated on a local session and through a client
// connection (each reseeded identically first), and the answers must be
// indistinguishable — the serving layer may add a process boundary, but
// never a semantic one.
package plsqlaway_test

import (
	"context"
	"fmt"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"plsqlaway"
	"plsqlaway/client"
	"plsqlaway/internal/server"
	"plsqlaway/internal/sqlast"
	"plsqlaway/internal/sqltypes"
	"plsqlaway/internal/workload"
)

// createFunctionSQL renders a compiled function as the CREATE FUNCTION …
// LANGUAGE sql statement that installs it over the wire — the textual
// twin of plsqlaway.Install.
func createFunctionSQL(name string, res *plsqlaway.Result) string {
	var params []string
	for _, p := range res.Params {
		params = append(params, fmt.Sprintf("%s %s", p.Name, p.Type))
	}
	return fmt.Sprintf("CREATE FUNCTION %s(%s) RETURNS %s AS $$ %s $$ LANGUAGE sql",
		name, strings.Join(params, ", "), res.ReturnType, sqlast.DeparseQuery(res.Query))
}

// startLoopbackServer serves e on 127.0.0.1 and returns the address.
func startLoopbackServer(t *testing.T, e *plsqlaway.Engine) string {
	t.Helper()
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
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
		<-done
	})
	return ln.Addr().String()
}

// TestRemoteDifferential runs the full differential grid through a
// loopback server: interpreted, compiled, and WITH ITERATE forms of
// every corpus function, remote answers diffed against local ones.
func TestRemoteDifferential(t *testing.T) {
	for name := range workload.Corpus {
		if _, ok := differentialGrid[name]; !ok {
			t.Errorf("corpus function %q has no differential grid — add cases", name)
		}
	}

	// One engine hosts the whole corpus; local sessions and remote
	// connections share it.
	e := newWorkloadEngine(t)
	s := e.NewSession()
	for name, src := range workload.Corpus {
		if err := s.Exec(src); err != nil {
			t.Fatalf("install interpreted %s: %v", name, err)
		}
		res, err := plsqlaway.Compile(src, plsqlaway.Options{})
		if err != nil {
			t.Fatalf("compile %s: %v", name, err)
		}
		if err := plsqlaway.Install(s, name+"_c", res); err != nil {
			t.Fatalf("install compiled %s: %v", name, err)
		}
		resIter, err := plsqlaway.Compile(src, plsqlaway.Options{Iterate: true})
		if err != nil {
			t.Fatalf("compile (iterate) %s: %v", name, err)
		}
		if err := plsqlaway.Install(s, name+"_ci", resIter); err != nil {
			t.Fatalf("install compiled (iterate) %s: %v", name, err)
		}
	}
	addr := startLoopbackServer(t, e)

	for name := range workload.Corpus {
		c, ok := differentialGrid[name]
		if !ok {
			continue
		}
		t.Run(name, func(t *testing.T) {
			conn, err := client.Dial(addr)
			if err != nil {
				t.Fatal(err)
			}
			defer conn.Close()
			local := e.NewSession()

			for i, args := range c.args {
				for _, fn := range []string{name, name + "_c", name + "_ci"} {
					sql := fmt.Sprintf(c.tmpl, fn)
					local.Seed(99)
					want, err := local.QueryValue(sql, args...)
					if err != nil {
						t.Fatalf("case %d: %s local: %v", i, fn, err)
					}
					if err := conn.Seed(99); err != nil {
						t.Fatal(err)
					}
					got, err := conn.QueryValue(sql, args...)
					if err != nil {
						t.Fatalf("case %d: %s remote: %v", i, fn, err)
					}
					if !sqltypes.Identical(want, got) {
						t.Errorf("case %d: %s: local=%v remote=%v (args %v)", i, fn, want, got, args)
					}
				}
			}
		})
	}
}

// TestRemoteWireInstalledFunction installs a compiled function purely
// over the wire — CREATE FUNCTION … LANGUAGE sql with the deparsed
// compiled body, the textual twin of plsqlaway.Install — and diffs it
// against the locally installed compiled form.
func TestRemoteWireInstalledFunction(t *testing.T) {
	e := newWorkloadEngine(t)
	s := e.NewSession()
	src := workload.Corpus["balance"]
	if err := s.Exec(src); err != nil {
		t.Fatal(err)
	}
	res, err := plsqlaway.Compile(src, plsqlaway.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := plsqlaway.Install(s, "balance_c", res); err != nil {
		t.Fatal(err)
	}
	addr := startLoopbackServer(t, e)
	conn, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	// Install the same compilation result through SQL text only.
	if err := conn.Exec(createFunctionSQL("balance_w", res)); err != nil {
		t.Fatalf("wire install: %v", err)
	}
	for _, args := range differentialGrid["balance"].args {
		want, err := conn.QueryValue("SELECT balance_c($1, $2)", args...)
		if err != nil {
			t.Fatal(err)
		}
		got, err := conn.QueryValue("SELECT balance_w($1, $2)", args...)
		if err != nil {
			t.Fatal(err)
		}
		if !sqltypes.Identical(want, got) {
			t.Errorf("args %v: api-installed=%v wire-installed=%v", args, want, got)
		}
	}
}

// TestRemoteConcurrentSessions stresses the serving path: 8 connections
// hammer compiled UDFs concurrently while a ninth runs DDL, mirroring
// the in-process concurrency suite across the process boundary.
func TestRemoteConcurrentSessions(t *testing.T) {
	e := newWorkloadEngine(t)
	s := e.NewSession()
	src := workload.Corpus["gcd"]
	if err := s.Exec(src); err != nil {
		t.Fatal(err)
	}
	res, err := plsqlaway.Compile(src, plsqlaway.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := plsqlaway.Install(s, "gcd_c", res); err != nil {
		t.Fatal(err)
	}
	addr := startLoopbackServer(t, e)

	const conns = 8
	const callsPerConn = 40
	var wg sync.WaitGroup
	errs := make([]error, conns+1)
	for g := 0; g < conns; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			c, err := client.Dial(addr, client.WithWindow(8))
			if err != nil {
				errs[g] = err
				return
			}
			defer c.Close()
			st, err := c.Prepare("SELECT gcd_c($1, $2)")
			if err != nil {
				errs[g] = err
				return
			}
			for i := 0; i < callsPerConn; i++ {
				v, err := st.QueryValue(client.Int(int64(270+g)), client.Int(int64(192+i)))
				if err != nil {
					errs[g] = err
					return
				}
				if v.IsNull() {
					errs[g] = fmt.Errorf("NULL gcd")
					return
				}
			}
		}(g)
	}
	// Concurrent DDL through its own connection.
	wg.Add(1)
	go func() {
		defer wg.Done()
		c, err := client.Dial(addr)
		if err != nil {
			errs[conns] = err
			return
		}
		defer c.Close()
		for i := 0; i < 10; i++ {
			tbl := fmt.Sprintf("ddl_t%d", i)
			if err := c.Exec("CREATE TABLE " + tbl + " (x int)"); err != nil {
				errs[conns] = err
				return
			}
			if err := c.Exec("DROP TABLE " + tbl); err != nil {
				errs[conns] = err
				return
			}
		}
	}()
	wg.Wait()
	for g, err := range errs {
		if err != nil {
			t.Fatalf("worker %d: %v", g, err)
		}
	}
}

// TestRemoteTxnDifferential runs the same transactional scripts
// statement by statement on an embedded session and through a loopback
// server, diffing every statement's rows, error, and notices, plus the
// final table state — the serving layer must not change transaction
// semantics (acceptance: identical results embedded vs over TCP).
func TestRemoteTxnDifferential(t *testing.T) {
	scripts := [][]string{
		{ // commit publishes everything at once
			"CREATE TABLE acct (id int, bal int)",
			"INSERT INTO acct VALUES (1, 100), (2, 100)",
			"BEGIN",
			"UPDATE acct SET bal = bal - 40 WHERE id = 1",
			"UPDATE acct SET bal = bal + 40 WHERE id = 2",
			"SELECT id, bal FROM acct ORDER BY id",
			"COMMIT",
			"SELECT id, bal FROM acct ORDER BY id",
		},
		{ // rollback leaves no trace, including DDL
			"CREATE TABLE kv (k int, v int)",
			"INSERT INTO kv VALUES (1, 10)",
			"BEGIN",
			"DELETE FROM kv",
			"CREATE TABLE scratch (x int)",
			"INSERT INTO scratch VALUES (1)",
			"SELECT count(*) FROM kv",
			"SELECT count(*) FROM scratch",
			"ROLLBACK",
			"SELECT count(*) FROM kv",
			"SELECT count(*) FROM scratch", // errors: table was never created
		},
		{ // error aborts the block until ROLLBACK; control warnings notice
			"COMMIT",
			"CREATE TABLE t3 (x int)",
			"BEGIN",
			"INSERT INTO t3 VALUES (1)",
			"SELECT * FROM missing",
			"SELECT 1",
			"COMMIT",
			"SELECT count(*) FROM t3",
		},
		{ // read-your-own-writes incl. updates of txn-inserted rows
			"CREATE TABLE rw (k int, v int)",
			"BEGIN",
			"INSERT INTO rw VALUES (1, 1), (2, 2)",
			"UPDATE rw SET v = v * 10 WHERE k = 2",
			"DELETE FROM rw WHERE k = 1",
			"SELECT k, v FROM rw ORDER BY k",
			"COMMIT",
			"SELECT k, v FROM rw ORDER BY k",
		},
	}

	for si, script := range scripts {
		t.Run(fmt.Sprintf("script%d", si), func(t *testing.T) {
			// Independent engines so embedded and remote runs cannot see
			// each other's state.
			local := plsqlaway.NewEngine(plsqlaway.WithSeed(7)).NewSession()
			re := plsqlaway.NewEngine(plsqlaway.WithSeed(7))
			addr := startLoopbackServer(t, re)
			conn, err := client.Dial(addr)
			if err != nil {
				t.Fatal(err)
			}
			defer conn.Close()

			for i, stmt := range script {
				lres, lerr := local.Run(stmt)
				lnotices := local.DrainNotices()
				rres, rerr := conn.Query(stmt)
				rnotices := conn.Notices()

				if (lerr == nil) != (rerr == nil) {
					t.Fatalf("stmt %d %q: local err %v, remote err %v", i, stmt, lerr, rerr)
				}
				if lerr != nil {
					if want, got := lerr.Error(), strings.TrimPrefix(rerr.Error(), "server: "); want != got {
						t.Errorf("stmt %d %q: error text diverged\n local: %s\nremote: %s", i, stmt, want, got)
					}
					continue
				}
				lout, rout := "", ""
				if lres != nil {
					lout = lres.Format()
				}
				if rres != nil {
					rout = rres.Format()
				}
				if lout != rout {
					t.Errorf("stmt %d %q: results diverged\n local:\n%s\nremote:\n%s", i, stmt, lout, rout)
				}
				if fmt.Sprint(lnotices) != fmt.Sprint(rnotices) {
					t.Errorf("stmt %d %q: notices diverged local %v remote %v", i, stmt, lnotices, rnotices)
				}
			}
		})
	}
}
