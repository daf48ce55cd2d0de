// Package engine is the database façade: one Engine is one DBMS instance
// with a catalog, heap storage, a plan cache, a PL/pgSQL interpreter, and
// profile-dependent behaviour (PostgreSQL, Oracle, SQLite). It is the
// substrate the paper's compiler targets and the harness the experiments
// measure.
//
// Concurrency model. The engine runs under snapshot isolation: readers
// never block, writers serialize only against each other.
//
//   - the database state (catalog snapshot + storage commit timestamp) is
//     published behind one atomic pointer. Every statement pins that pair
//     at start and executes against it: heap scans see exactly the row
//     versions committed at or before the pinned timestamp (per-row
//     xmin/xmax, stamped from the engine's commit counter), and catalog
//     lookups read an immutable copy-on-write catalog snapshot;
//   - DDL/DML buffer their changes optimistically against the pinned
//     snapshot, then take the writers-only commit lock for a short
//     validate-and-publish critical section: first-updater-wins
//     validation (every row version the commit deletes or updates must
//     still be unstamped at the tip — Heap.ValidateDead) followed by the
//     WAL append, the heap commits, and one new state pointer. A commit
//     that loses a row race fails with ErrSerialization and applies
//     nothing; concurrent writers touching disjoint rows never conflict,
//     and readers running concurrently keep their pinned snapshot and
//     are never excluded;
//   - a Session carries everything one caller scribbles on during
//     execution — random source, phase counters, interpreter state,
//     UDF call depth, prepared statements — and must be used from one
//     goroutine at a time;
//   - superseded row versions older than the oldest pinned snapshot are
//     reclaimed by an opportunistic per-heap vacuum after commits;
//   - BEGIN/COMMIT/ROLLBACK generalize the per-statement protocol to
//     multi-statement transaction blocks: one snapshot pinned at BEGIN,
//     per-heap overlay buffers that the block's own reads see (with
//     SAVEPOINT / ROLLBACK TO marks to unwind them mid-block), no lock
//     at all until COMMIT runs the same validate-and-publish section —
//     read-only blocks never touch the commit lock (see txn.go).
//
// Every statement runs on a Session (Engine.NewSession); the Engine
// itself runs none.
package engine

import (
	"sync"
	"sync/atomic"
	"time"

	"plsqlaway/internal/catalog"
	"plsqlaway/internal/exec"
	"plsqlaway/internal/obs"
	"plsqlaway/internal/plan"
	"plsqlaway/internal/profile"
	"plsqlaway/internal/sqltypes"
	"plsqlaway/internal/storage"
	"plsqlaway/internal/wal"
)

// dbState is one published database snapshot: an immutable catalog plus
// the storage commit timestamp it was published at. Swapping the pointer
// is the engine's commit point — a reader that loads it gets a fully
// consistent (schema, rows) pair with one atomic load.
type dbState struct {
	cat *catalog.Catalog
	ts  int64
}

// pinSet tracks the snapshot timestamps of in-flight statements so vacuum
// knows the oldest version any live reader can still reach.
type pinSet struct {
	mu   sync.Mutex
	pins map[int64]int
}

func (p *pinSet) pin(ts int64) {
	p.mu.Lock()
	if p.pins == nil {
		p.pins = make(map[int64]int)
	}
	p.pins[ts]++
	p.mu.Unlock()
}

func (p *pinSet) unpin(ts int64) {
	p.mu.Lock()
	if p.pins[ts]--; p.pins[ts] == 0 {
		delete(p.pins, ts)
	}
	p.mu.Unlock()
}

// oldest returns the smallest pinned timestamp, or def when nothing is
// pinned. The map stays tiny (one entry per distinct in-flight snapshot).
func (p *pinSet) oldest(def int64) int64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	min := def
	for ts := range p.pins {
		if ts < min {
			min = ts
		}
	}
	return min
}

// Engine is one database instance: the catalog, storage, plan cache and
// commit protocol its sessions share. It runs no statements itself;
// NewSession hands out the sessions that do. state holds the published
// database snapshot; commitMu serializes the validate-and-publish
// section every commit ends with — readers take no lock at all, they
// pin the state pointer.
//
// vacuumGate orders vacuum against optimistic writer statements: a
// writer statement buffers dead version *indices* outside commitMu, and
// vacuum renumbers exactly those indices, so each writer holds the gate
// shared from its first read of a version index until its commit applies
// (or aborts), and vacuum runs only when TryLock gets the gate exclusive
// — otherwise it skips and a later commit retries. Lock order is gate
// before commitMu (committers) and commitMu before TryLock (vacuum); the
// try never blocks, so the inversion cannot deadlock.
type Engine struct {
	commitMu   sync.Mutex
	vacuumGate sync.RWMutex
	state      atomic.Pointer[dbState]
	pins       pinSet

	storageStats *storage.Stats
	execStats    exec.Stats
	cache        *plan.Cache
	prof         profile.Profile
	maxRecursion int
	maxCallDepth int
	seed         uint64
	batchSize    int

	// Durability (nil/zero for a volatile engine). wal is set once by
	// Open before any session runs and never replaced; commits append
	// under commitMu and wait for durability after releasing it.
	wal      *wal.WAL
	dataDir  string
	walEpoch uint64
	syncMode wal.SyncMode

	// Observability (see metrics.go). metrics is nil unless the engine
	// was built with WithMetricsRegistry; slowQueryNS/logf gate the
	// slow-query log; checkpointBytes > 0 arms the WAL-size
	// auto-checkpoint, serialized by the checkpointing CAS flag.
	metrics         *metrics
	slowQueryNS     int64
	logf            func(format string, args ...any)
	checkpointBytes int64
	checkpointing   atomic.Bool
}

// pinState loads the published state and registers its timestamp with the
// pin set, retrying if a concurrent commit published a newer state in
// between — the re-check guarantees vacuum computed its horizon after
// this pin was visible, so the snapshot's versions cannot be reclaimed
// from under the reader.
func (e *Engine) pinState() *dbState {
	for {
		st := e.state.Load()
		e.pins.pin(st.ts)
		if e.state.Load() == st {
			return st
		}
		e.pins.unpin(st.ts)
	}
}

// config collects option values before the engine is built.
type config struct {
	prof            profile.Profile
	maxRecursion    int
	maxCallDepth    int
	seed            uint64
	batchSize       int
	syncMode        wal.SyncMode
	registry        *obs.Registry
	slowQueryNS     int64
	logf            func(format string, args ...any)
	checkpointBytes int64
}

// Option configures a new Engine.
type Option func(*config)

// WithProfile selects an engine profile (default PostgreSQL).
func WithProfile(p profile.Profile) Option { return func(c *config) { c.prof = p } }

// WithSeed seeds the deterministic random() source. Every session starts
// from this seed; Session.Seed reseeds an individual stream.
func WithSeed(seed uint64) Option { return func(c *config) { c.seed = seed } }

// WithMaxRecursion caps WITH RECURSIVE iterations (a safety net against
// runaway recursion; the default admits the paper's largest workloads).
func WithMaxRecursion(n int) Option { return func(c *config) { c.maxRecursion = n } }

// WithBatchSize sets the executor's default tuples-per-batch (the
// vectorization knob; default exec.DefaultBatchSize, 1 degenerates to
// tuple-at-a-time Volcano iteration). Sessions may override it with
// Session.SetBatchSize.
func WithBatchSize(n int) Option { return func(c *config) { c.batchSize = n } }

// WithSyncMode selects when commits are acknowledged relative to WAL
// fsync (default wal.SyncBatched: group commit). Only meaningful for
// engines created with Open; a volatile New engine has no log to sync.
func WithSyncMode(m wal.SyncMode) Option { return func(c *config) { c.syncMode = m } }

// WithMetricsRegistry publishes the engine's metrics (query phases,
// statement latency, storage/WAL/plan-cache counters, checkpoint
// triggers) into reg. Several engines may share one registry. Without
// this option the engine keeps no registry and the instrumented paths
// cost one nil check.
func WithMetricsRegistry(reg *obs.Registry) Option { return func(c *config) { c.registry = reg } }

// WithSlowQuery arms the slow-query log: statements whose wall time
// meets or exceeds threshold emit one structured line through logf
// (query text, phase timings, plan shape counters). A nil logf counts
// slow queries in the registry without logging.
func WithSlowQuery(threshold time.Duration, logf func(format string, args ...any)) Option {
	return func(c *config) { c.slowQueryNS = threshold.Nanoseconds(); c.logf = logf }
}

// WithCheckpointBytes arms the WAL-size auto-checkpoint: after any
// commit finds the log at or past n bytes, the engine checkpoints and
// rotates to a fresh log (reason "size" in the checkpoint metric).
// Zero (the default) disables the trigger; manual Checkpoint calls and
// the shutdown/recovery checkpoints are unaffected.
func WithCheckpointBytes(n int64) Option { return func(c *config) { c.checkpointBytes = n } }

// New creates an engine.
func New(opts ...Option) *Engine {
	cfg := config{
		prof:         profile.PostgreSQL,
		maxRecursion: 20_000_000,
		maxCallDepth: 256,
		seed:         42,
		batchSize:    exec.DefaultBatchSize,
		syncMode:     wal.SyncBatched,
	}
	for _, o := range opts {
		o(&cfg)
	}
	e := &Engine{
		storageStats:    &storage.Stats{},
		cache:           plan.NewCache(),
		prof:            cfg.prof,
		maxRecursion:    cfg.maxRecursion,
		maxCallDepth:    cfg.maxCallDepth,
		seed:            cfg.seed,
		batchSize:       cfg.batchSize,
		syncMode:        cfg.syncMode,
		slowQueryNS:     cfg.slowQueryNS,
		logf:            cfg.logf,
		checkpointBytes: cfg.checkpointBytes,
	}
	e.state.Store(&dbState{cat: catalog.New(e.storageStats), ts: 0})
	if cfg.registry != nil {
		e.metrics = newMetrics(cfg.registry, e)
	}
	return e
}

// NewSession creates an independent session sharing this engine's catalog,
// storage, and plan cache. Sessions are cheap; create one per goroutine.
// A single session must not be used concurrently.
func (e *Engine) NewSession() *Session {
	if m := e.metrics; m != nil {
		m.sessions.Inc()
	}
	return newSession(e)
}

// Metrics exposes the registry the engine publishes into (nil unless
// built with WithMetricsRegistry).
func (e *Engine) Metrics() *obs.Registry {
	if e.metrics == nil {
		return nil
	}
	return e.metrics.reg
}

// StorageStats exposes storage counters (Table 2 page writes), shared by
// all sessions.
func (e *Engine) StorageStats() *storage.Stats { return e.storageStats }

// Catalog exposes the currently published catalog snapshot. The snapshot
// is immutable; DDL publishes a new one.
func (e *Engine) Catalog() *catalog.Catalog { return e.state.Load().cat }

// PlanCache exposes the shared plan cache (ablation A4 toggles it).
func (e *Engine) PlanCache() *plan.Cache { return e.cache }

// Result is a query result with column names.
type Result struct {
	Cols []string
	Rows []storage.Tuple
}

// Format renders the result as an aligned text table. (storage.Tuple
// aliases []sqltypes.Value, so the rows pass through unconverted.)
func (r *Result) Format() string {
	return sqltypes.FormatTable(r.Cols, r.Rows)
}
