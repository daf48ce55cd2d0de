package main

import (
	"errors"
	"fmt"
	"math/rand/v2"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"plsqlaway"
	"plsqlaway/internal/engine"
	"plsqlaway/internal/obs"
	"plsqlaway/internal/storage"
)

// write_durable is the only workload where commit validation, heap
// commit/vacuum, WAL append/fsync/group-commit and checkpoints do the
// work. The flush policy is SyncBatched, plsqld's default.
const (
	durableRows      = 10_000 // at this commit an indexed UPDATE costs O(rows), so more rows leave too few commits per round for a p99
	durableQuickRows = 400
	durableOps       = 1_000 // per round over both sessions
	durableHotKeys   = 16
	durableRetries   = 20
	// The log grows by roughly 150 bytes per commit, so at this commit's
	// ~1000 commits/s 256 KiB triggers an automatic checkpoint about every
	// two seconds: well over four in a 10 s window.
	durableCheckpointBytes = 256 << 10
	durablePad             = 64
)

var writeDurable = workloadDef{
	name: "write_durable", clients: 2, tailPct: 99, opsPerRound: durableOps, quickOps: 60,
	why:   "Commit path: on-disk engine, SyncBatched, auto-checkpoints; 2 sessions, closed loop; 70% UPDATE, 20% 3-UPDATE block, 10% hot-set block with retry; 10k rows, 1000 ops/round, p99; crash copy recovered.",
	setup: setupDurable,
}

type durableOp struct {
	kind int // 0 autocommit update, 1 three-update block, 2 hot-set block
	keys [3]int64
}

type durableSession struct {
	s      *plsqlaway.Session
	update *plsqlaway.Prepared
	ops    []durableOp
}

type durableInstance struct {
	c        *config
	dir      string
	e        *plsqlaway.Engine
	rows     int
	sessions []*durableSession
	acked    atomic.Int64 // row versions written by acknowledged commits
	retries  atomic.Int64
	stallNS  atomic.Int64 // longest op that overlapped a checkpoint
	walBytes int64        // WAL bytes over the timed rounds
	recovery time.Duration
}

func setupDurable(c *config, ops int, reg *obs.Registry) (instance, error) {
	dir, err := os.MkdirTemp("", "write_durable-*")
	if err != nil {
		return nil, err
	}
	opts := append(c.engineOpts(reg), plsqlaway.WithSyncMode(plsqlaway.SyncBatched), engine.WithCheckpointBytes(durableCheckpointBytes))
	e, err := plsqlaway.OpenEngine(dir, opts...)
	if err != nil {
		return nil, err
	}
	in := &durableInstance{c: c, dir: dir, e: e, rows: c.scale(durableRows, durableQuickRows)}
	s := e.NewSession()
	if err := s.Exec("CREATE TABLE acct (k int, v int, pad text); CREATE INDEX acct_k ON acct (k)"); err != nil {
		return nil, err
	}
	if err := bulkInsert(s, "acct", in.rows, func(i int) string { return fmt.Sprintf("(%d, 0, '%0*d')", i, durablePad, i) }); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewPCG(c.seed, 0x64757261))
	// Keys below durableHotKeys are the shared hot set; the rest splits
	// into one partition per session.
	part := int64(in.rows-durableHotKeys) / 2
	for si := 0; si < 2; si++ {
		ds := &durableSession{s: e.NewSession()}
		if ds.update, err = ds.s.Prepare("UPDATE acct SET v = v + 1 WHERE k = $1"); err != nil {
			return nil, err
		}
		own := func() int64 { return durableHotKeys + int64(si)*part + rng.Int64N(part) }
		// An exact 70/20/10 mix in a seeded order: the seed draws keys
		// and order, not how much work a round holds.
		for _, i := range rng.Perm(ops / 2) {
			var op durableOp
			switch r := i * 100 / (ops / 2); {
			case r < 70:
				op = durableOp{kind: 0, keys: [3]int64{own()}}
			case r < 90:
				op = durableOp{kind: 1, keys: [3]int64{own(), own(), own()}}
			default:
				op = durableOp{kind: 2, keys: [3]int64{rng.Int64N(durableHotKeys)}}
			}
			ds.ops = append(ds.ops, op)
		}
		in.sessions = append(in.sessions, ds)
	}
	return in, nil
}

func (in *durableInstance) prepare() error {
	if in.c.wrongRef {
		in.acked.Add(1) // a write nobody made
	}
	return nil
}

// exec runs one op to an acknowledged commit and returns how many row
// versions it wrote. Blocks that lose first-updater-wins validation are
// retried; only running out of retries is a failure.
func (in *durableInstance) exec(ds *durableSession, op durableOp) (int64, error) {
	if op.kind == 0 {
		return 1, ds.update.Exec(plsqlaway.Int(op.keys[0]))
	}
	n := 1
	if op.kind == 1 {
		n = 3
	}
	var err error
	for try := 0; try < durableRetries; try++ {
		if err = in.block(ds, op.keys[:n]); !errors.Is(err, plsqlaway.ErrSerialization) {
			return int64(n), err
		}
		in.retries.Add(1)
	}
	return 0, fmt.Errorf("gave up after %d retries: %w", durableRetries, err)
}

func (in *durableInstance) block(ds *durableSession, keys []int64) error {
	if err := ds.s.Begin(); err != nil {
		return err
	}
	for _, k := range keys {
		if err := ds.update.Exec(plsqlaway.Int(k)); err != nil {
			ds.s.Rollback()
			return err
		}
	}
	return ds.s.Commit()
}

func (in *durableInstance) round(r *round) {
	stats := in.e.StorageStats()
	wal0 := atomic.LoadInt64(&stats.WALBytes)
	var wg sync.WaitGroup
	for si, ds := range in.sessions {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := r.clients[si]
			for i, op := range ds.ops {
				ck0 := atomic.LoadInt64(&stats.Checkpoints)
				d := c.op(i, func(span int) error {
					return c.call(span, "engine.exec", i, func() error {
						n, err := in.exec(ds, op)
						if err == nil {
							in.acked.Add(n)
						}
						return err
					})
				})
				if atomic.LoadInt64(&stats.Checkpoints) != ck0 {
					for old := in.stallNS.Load(); int64(d) > old && !in.stallNS.CompareAndSwap(old, int64(d)); old = in.stallNS.Load() {
					}
				}
			}
		}()
	}
	wg.Wait()
	in.walBytes += atomic.LoadInt64(&stats.WALBytes) - wal0
}

// verify checks row count and sum(v) against the acknowledged writes.
func (in *durableInstance) verify(e *plsqlaway.Engine) error {
	res, err := e.NewSession().Query("SELECT count(*), sum(a.v) FROM acct AS a")
	if err != nil {
		return err
	}
	n, sum := res.Rows[0][0].Int(), res.Rows[0][1].Int()
	if n != int64(in.rows) || sum != in.acked.Load() {
		return fmt.Errorf("%d rows with sum(v) = %d; acknowledged state is %d rows, sum %d", n, sum, in.rows, in.acked.Load())
	}
	return nil
}

// finish simulates a process crash: the data directory is copied as it
// stands after the last acknowledgement, without Close, and a second
// engine must recover exactly the acknowledged state from the copy.
func (in *durableInstance) finish() error {
	if err := in.verify(in.e); err != nil {
		return fmt.Errorf("live engine: %w", err)
	}
	crashed := in.dir + "-crash"
	defer os.RemoveAll(crashed)
	if err := os.CopyFS(crashed, os.DirFS(in.dir)); err != nil {
		return err
	}
	t0 := time.Now()
	re, err := plsqlaway.OpenEngine(crashed)
	in.recovery = time.Since(t0)
	if err != nil {
		return fmt.Errorf("recovery: %w", err)
	}
	defer re.Close()
	if err := in.verify(re); err != nil {
		return fmt.Errorf("recovered engine: %w", err)
	}
	return nil
}

func (in *durableInstance) engine() *plsqlaway.Engine { return in.e }

func (in *durableInstance) close() {
	in.e.Close()
	os.RemoveAll(in.dir)
}

func (in *durableInstance) statements() []stmt {
	return []stmt{{"UPDATE acct SET v = v + 1 WHERE k = $1", []plsqlaway.Value{plsqlaway.Int(durableHotKeys)}}}
}

func (in *durableInstance) layer(m map[string]float64, opsPerS float64) {
	m["engine.retries"] = float64(in.retries.Load())
	m["wal.recovery_s"] = in.recovery.Seconds()
	m["wal.checkpoint_stall_ms"] = float64(in.stallNS.Load()) / 1e6
	// Every acknowledged row version is one (k, v, pad) tuple.
	version := storage.TupleDiskSize(storage.Tuple{plsqlaway.Int(1), plsqlaway.Int(1), plsqlaway.Text(fmt.Sprintf("%0*d", durablePad, 0))})
	if n := in.acked.Load(); n > 0 {
		m["wal.bytes_per_user_byte"] = float64(in.walBytes) / float64(n*int64(version))
	}
	t0 := time.Now()
	if err := in.e.Checkpoint(); err == nil {
		m["wal.checkpoint_ms"] = float64(time.Since(t0).Nanoseconds()) / 1e6
	}
}
