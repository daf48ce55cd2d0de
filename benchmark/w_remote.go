package main

import (
	"context"
	"fmt"
	"math/rand/v2"
	"net"
	"runtime"
	"sort"
	"sync"
	"time"

	"plsqlaway"
	"plsqlaway/client"
	"plsqlaway/internal/obs"
	"plsqlaway/internal/workload"
)

// The remote pair drives an in-process plsqlaway.NewServer over loopback
// TCP through the client package: remote_point with many tiny frames,
// remote_stream with few large results.
const (
	pointRows      = 50_000 // kv rows; half per connection, far more rows than clients
	pointQuickRows = 1_000
	pointOps       = 1_000 // per round over both connections
	pointWritePct  = 10

	streamRows      = 25_000
	streamQuickRows = 500
	streamOps       = 100
)

const (
	qKVRead   = "SELECT v FROM kv WHERE k = $1"
	qAction   = "SELECT action_of(coord($1, $2))"
	qKVUpdate = "UPDATE kv SET v = v + 1 WHERE k = $1"
	qWide     = "SELECT w.k, w.v, w.s FROM wide AS w"
)

var remotePoint = workloadDef{
	name: "remote_point", clients: 2, tailPct: 99, opsPerRound: pointOps, quickOps: 60,
	why:   "Statement round trips: 2 client.Conn, prepared, window 1, closed loop; 90% indexed/inlined reads, 10% autocommit UPDATE on own half of 50k rows; 1000 ops/round, p99. Fixed per-statement costs.",
	setup: setupPoint,
}

var remoteStream = workloadDef{
	name: "remote_stream", clients: 1, tailPct: 90, opsPerRound: streamOps, quickOps: 4,
	why:   "Bulk results: 1 client.Conn fetches all 25k rows of wide(k,v,s), alternating streamed QueryStream and buffered prepared Stmt.Query; closed loop, 100 fetches/round, p90. Same wire path, megabytes.",
	setup: setupStream,
}

// served is an engine behind a loopback wire server.
type served struct {
	e    *plsqlaway.Engine
	srv  *plsqlaway.Server
	addr string
	done chan error // Serve's return
}

func serve(e *plsqlaway.Engine) (*served, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	sv := &served{e: e, srv: plsqlaway.NewServer(e, plsqlaway.ServerOptions{}), addr: ln.Addr().String(), done: make(chan error, 1)}
	go func() { sv.done <- sv.srv.Serve(ln) }()
	return sv, nil
}

// stop drains the server and waits for its accept loop to return.
func (sv *served) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	sv.srv.Shutdown(ctx)
	<-sv.done
}

// ---------------------------------------------------------------------------
// remote_point
// ---------------------------------------------------------------------------

type pointOp struct {
	kind int // 0 kv read, 1 action_of, 2 update
	k    int64
	x, y int64
}

type pointClient struct {
	conn                *client.Conn
	read, action, write *client.Stmt
	ops                 []pointOp
	bumps               map[int64]int64 // acknowledged increments per key, this client's partition
	writeMs             []float64       // UPDATE latencies of the traced rounds
}

type pointInstance struct {
	c       *config
	sv      *served
	world   *workload.RobotWorld
	rows    int
	clients []*pointClient
}

func setupPoint(c *config, ops int, reg *obs.Registry) (instance, error) {
	e := plsqlaway.NewEngine(c.engineOpts(reg)...)
	s := e.NewSession()
	in := &pointInstance{c: c, world: workload.NewRobotWorld(5, 5, udfWorldSeed), rows: c.scale(pointRows, pointQuickRows)}
	if err := in.world.Install(s); err != nil {
		return nil, err
	}
	if err := installLookups(s, actionOfSrc); err != nil {
		return nil, err
	}
	if err := s.Exec("CREATE TABLE kv (k int, v int); CREATE INDEX kv_k ON kv (k)"); err != nil {
		return nil, err
	}
	if err := bulkInsert(s, "kv", in.rows, func(i int) string { return fmt.Sprintf("(%d, %d)", i, i) }); err != nil {
		return nil, err
	}
	sv, err := serve(e)
	if err != nil {
		return nil, err
	}
	in.sv = sv
	rng := rand.New(rand.NewPCG(c.seed, 0x706f696e74))
	half := int64(in.rows / 2)
	for ci := 0; ci < 2; ci++ {
		pc := &pointClient{bumps: map[int64]int64{}}
		if pc.conn, err = client.Dial(sv.addr, client.WithWindow(1)); err != nil {
			return nil, err
		}
		in.clients = append(in.clients, pc)
		for _, p := range []struct {
			st  **client.Stmt
			sql string
		}{{&pc.read, qKVRead}, {&pc.action, qAction}, {&pc.write, qKVUpdate}} {
			if *p.st, err = pc.conn.Prepare(p.sql); err != nil {
				return nil, err
			}
		}
		// The mix is exact (10% writes, the reads split evenly), so the
		// seed draws keys and order but not how much work a round holds.
		for _, i := range rng.Perm(ops / 2) {
			op := pointOp{k: int64(ci)*half + rng.Int64N(half), x: rng.Int64N(5), y: rng.Int64N(5)}
			switch pct := i * 100 / (ops / 2); {
			case pct < pointWritePct:
				op.kind = 2
			case pct < pointWritePct+45:
				op.kind = 1
			}
			pc.ops = append(pc.ops, op)
		}
	}
	return in, nil
}

func (in *pointInstance) prepare() error {
	if in.c.wrongRef {
		for _, row := range in.world.Policy {
			for x := range row {
				row[x] += "x"
			}
		}
	}
	return nil
}

func (in *pointInstance) round(r *round) {
	var wg sync.WaitGroup
	for ci, pc := range in.clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := r.clients[ci]
			for i, op := range pc.ops {
				d := c.op(i, func(span int) error {
					return c.call(span, "client.query", i, func() error { return in.exec(pc, op) })
				})
				if op.kind == 2 && r.tr != nil {
					pc.writeMs = append(pc.writeMs, float64(d.Nanoseconds())/1e6)
				}
			}
		}()
	}
	wg.Wait()
}

// exec issues one op and checks its answer: reads against the driver's
// own arithmetic (initial value plus this client's acknowledged
// increments), action_of against the policy the world was built from.
func (in *pointInstance) exec(pc *pointClient, op pointOp) error {
	switch op.kind {
	case 0:
		v, err := pc.read.QueryValue(client.Int(op.k))
		if err != nil {
			return err
		}
		if want := op.k + pc.bumps[op.k]; v.Int() != want {
			return fmt.Errorf("kv[%d] = %d, reference %d", op.k, v.Int(), want)
		}
	case 1:
		v, err := pc.action.QueryValue(client.Int(op.x), client.Int(op.y))
		if err != nil {
			return err
		}
		if want := in.world.Policy[op.y][op.x]; v.Text() != want {
			return fmt.Errorf("action_of(%d,%d) = %q, reference %q", op.x, op.y, v.Text(), want)
		}
	default:
		if err := pc.write.Exec(client.Int(op.k)); err != nil {
			return err
		}
		pc.bumps[op.k]++
	}
	return nil
}

// finish checks the arithmetic checksum of every acknowledged write
// through an embedded session.
func (in *pointInstance) finish() error {
	n := int64(in.rows)
	want := n * (n - 1) / 2
	for _, pc := range in.clients {
		for _, b := range pc.bumps {
			want += b
		}
	}
	v, err := in.sv.e.NewSession().QueryValue("SELECT sum(kv.v) FROM kv")
	if err != nil {
		return err
	}
	if v.Int() != want {
		return fmt.Errorf("sum(v) = %d after the run, acknowledged writes give %d", v.Int(), want)
	}
	return nil
}

func (in *pointInstance) engine() *plsqlaway.Engine { return in.sv.e }

func (in *pointInstance) close() {
	for _, pc := range in.clients {
		pc.conn.Close()
	}
	if in.sv != nil {
		in.sv.stop()
	}
}

func (in *pointInstance) statements() []stmt {
	return []stmt{
		{qKVRead, []plsqlaway.Value{plsqlaway.Int(1)}},
		{qAction, []plsqlaway.Value{plsqlaway.Int(1), plsqlaway.Int(2)}},
		{qKVUpdate, []plsqlaway.Value{plsqlaway.Int(1)}},
	}
}

// layer measures the client's fixed round trip and what the wire path
// adds to a read over running the same statement embedded.
func (in *pointInstance) layer(m map[string]float64, opsPerS float64) {
	pc := in.clients[0]
	const n = 2000
	one, err := pc.conn.Prepare("SELECT 1")
	if err != nil {
		return
	}
	rtt := make([]time.Duration, n)
	remote := make([]time.Duration, n)
	local := make([]time.Duration, n)
	emb, err := in.sv.e.NewSession().Prepare(qKVRead)
	if err != nil {
		return
	}
	for i := 0; i < n; i++ {
		k := pc.ops[i%len(pc.ops)].k
		t0 := time.Now()
		_, err1 := one.Query()
		t1 := time.Now()
		_, err2 := pc.read.Query(client.Int(k))
		t2 := time.Now()
		_, err3 := emb.Query(plsqlaway.Int(k))
		if err1 != nil || err2 != nil || err3 != nil {
			return
		}
		rtt[i], remote[i], local[i] = t1.Sub(t0), t2.Sub(t1), time.Since(t2)
	}
	m["client.rtt_us"] = us(medianDur(rtt))
	m["client.wire_overhead_us"] = us(medianDur(remote)) - us(medianDur(local))
	var writes []float64
	for _, c := range in.clients {
		writes = append(writes, c.writeMs...)
	}
	sort.Float64s(writes)
	m["client.write_p50_ms"] = percentile(writes, 50)
	m["client.write_tail_ms"] = percentile(writes, 90)
}

// ---------------------------------------------------------------------------
// remote_stream
// ---------------------------------------------------------------------------

type streamInstance struct {
	c        *config
	sv       *served
	conn     *client.Conn
	buffered *client.Stmt
	ops      int
	rows     int
	// Reference checksums from the generator.
	sumK, sumLen int64
	sumV         float64
}

func setupStream(c *config, ops int, reg *obs.Registry) (instance, error) {
	e := plsqlaway.NewEngine(c.engineOpts(reg)...)
	s := e.NewSession()
	in := &streamInstance{c: c, ops: ops, rows: c.scale(streamRows, streamQuickRows)}
	if err := s.Exec("CREATE TABLE wide (k int, v float, s text)"); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewPCG(c.seed, 0x73747265))
	err := bulkInsert(s, "wide", in.rows, func(i int) string {
		v := float64(rng.IntN(2000)) / 2
		txt := fmt.Sprintf("row-%06d-%0*d", i, 4+rng.IntN(24), i)
		in.sumK += int64(i)
		in.sumV += v
		in.sumLen += int64(len(txt))
		return fmt.Sprintf("(%d, %g, '%s')", i, v, txt)
	})
	if err != nil {
		return nil, err
	}
	if in.sv, err = serve(e); err != nil {
		return nil, err
	}
	if in.conn, err = client.Dial(in.sv.addr, client.WithWindow(1)); err != nil {
		return nil, err
	}
	if in.buffered, err = in.conn.Prepare(qWide); err != nil {
		return nil, err
	}
	return in, nil
}

func (in *streamInstance) prepare() error {
	if in.c.wrongRef {
		in.sumLen++
	}
	return nil
}

// fetch reads the whole table one way or the other and verifies row
// count and the three column checksums.
func (in *streamInstance) fetch(streamed bool) error {
	var n, sumK, sumLen int64
	var sumV float64
	add := func(rows [][]client.Value) {
		for _, r := range rows {
			n++
			sumK += r[0].Int()
			sumV += r[1].Float()
			sumLen += int64(len(r[2].Text()))
		}
	}
	if streamed {
		err := in.conn.QueryStream(qWide, func(_ []string, rows [][]client.Value) error {
			add(rows)
			return nil
		})
		if err != nil {
			return err
		}
	} else {
		res, err := in.buffered.Query()
		if err != nil {
			return err
		}
		add(res.Rows)
	}
	if n != int64(in.rows) || sumK != in.sumK || sumV != in.sumV || sumLen != in.sumLen {
		return fmt.Errorf("fetched %d rows, checksums (%d, %g, %d); reference %d rows, (%d, %g, %d)",
			n, sumK, sumV, sumLen, in.rows, in.sumK, in.sumV, in.sumLen)
	}
	return nil
}

func (in *streamInstance) round(r *round) {
	c := r.clients[0]
	for i := 0; i < in.ops; i++ {
		c.op(i, func(span int) error {
			return c.call(span, "client.query", i, func() error { return in.fetch(i%2 == 0) })
		})
	}
}

func (in *streamInstance) finish() error             { return nil }
func (in *streamInstance) engine() *plsqlaway.Engine { return in.sv.e }
func (in *streamInstance) statements() []stmt        { return []stmt{{qWide, nil}} }

func (in *streamInstance) close() {
	if in.conn != nil {
		in.conn.Close()
	}
	if in.sv != nil {
		in.sv.stop()
	}
}

// layer separates the two fetch paths the end-to-end numbers mix: rows
// per second and peak heap for streamed and for buffered fetches alone.
func (in *streamInstance) layer(m map[string]float64, opsPerS float64) {
	for _, p := range []struct {
		name     string
		streamed bool
	}{{"stream", true}, {"buffered", false}} {
		const fetches = 10
		runtime.GC()
		stop := sampleHeap()
		t0 := time.Now()
		var err error
		for i := 0; i < fetches && err == nil; i++ {
			err = in.fetch(p.streamed)
		}
		wall := time.Since(t0)
		peak := stop()
		if err != nil {
			return
		}
		m["client."+p.name+"_rows_per_s"] = float64(fetches*in.rows) / wall.Seconds()
		m["client."+p.name+"_peak_heap_mb"] = float64(peak) / (1 << 20)
	}
}
