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
// Engine.NewSession hands out sessions; the Engine's own query methods
// remain as a compatibility facade that serializes callers onto a default
// session, so existing single-session code keeps its old contract.
package engine

import (
	"sync"
	"sync/atomic"
	"time"

	"plsqlaway/internal/catalog"
	"plsqlaway/internal/exec"
	"plsqlaway/internal/obs"
	"plsqlaway/internal/plan"
	"plsqlaway/internal/plast"
	"plsqlaway/internal/plinterp"
	"plsqlaway/internal/profile"
	"plsqlaway/internal/sqlast"
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

// shared is the session-independent core of one engine instance. state
// holds the published database snapshot; commitMu serializes the
// validate-and-publish section every commit ends with — readers take no
// lock at all, they pin the state pointer.
//
// vacuumGate orders vacuum against optimistic writer statements: a
// writer statement buffers dead version *indices* outside commitMu, and
// vacuum renumbers exactly those indices, so each writer holds the gate
// shared from its first read of a version index until its commit applies
// (or aborts), and vacuum runs only when TryLock gets the gate exclusive
// — otherwise it skips and a later commit retries. Lock order is gate
// before commitMu (committers) and commitMu before TryLock (vacuum); the
// try never blocks, so the inversion cannot deadlock.
type shared struct {
	commitMu   sync.Mutex
	vacuumGate sync.RWMutex
	state      atomic.Pointer[dbState]
	pins       pinSet

	storageStats *storage.Stats
	execStats    exec.Stats
	cache        *plan.Cache
	prof         profile.Profile
	workMem      int
	maxRecursion int
	maxCallDepth int
	seed         uint64
	batchSize    int
	columnar     bool

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
func (sh *shared) pinState() *dbState {
	for {
		st := sh.state.Load()
		sh.pins.pin(st.ts)
		if sh.state.Load() == st {
			return st
		}
		sh.pins.unpin(st.ts)
	}
}

// Engine is one database instance. Its query/DDL methods are safe for
// concurrent use: a mutex serializes them onto a built-in default session.
// For actual parallelism, give each goroutine its own Session via
// NewSession — sessions share the catalog, storage, and plan cache but
// execute independently.
type Engine struct {
	sh *shared

	// mu serializes the compatibility facade onto def.
	mu  sync.Mutex
	def *Session
}

// config collects option values before the engine core is built.
type config struct {
	prof            profile.Profile
	workMem         int
	maxRecursion    int
	maxCallDepth    int
	seed            uint64
	batchSize       int
	columnar        bool
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

// WithWorkMem bounds per-tuplestore memory before spilling.
func WithWorkMem(bytes int) Option { return func(c *config) { c.workMem = bytes } }

// WithSeed seeds the deterministic random() source. Every session starts
// from this seed; Seed/Session.Seed reseed an individual stream.
func WithSeed(seed uint64) Option { return func(c *config) { c.seed = seed } }

// WithMaxRecursion caps WITH RECURSIVE iterations (a safety net against
// runaway recursion; the default admits the paper's largest workloads).
func WithMaxRecursion(n int) Option { return func(c *config) { c.maxRecursion = n } }

// WithBatchSize sets the executor's default tuples-per-batch (the
// vectorization knob; default exec.DefaultBatchSize, 1 degenerates to
// tuple-at-a-time Volcano iteration). Sessions may override it with
// Session.SetBatchSize.
func WithBatchSize(n int) Option { return func(c *config) { c.batchSize = n } }

// WithColumnar toggles the executor's unboxed column-vector fast paths
// (default on). Off forces every operator through the boxed row-major
// kernels — the differential suite runs both and demands byte-identical
// results, and perf triage can flip it to isolate layout effects.
func WithColumnar(on bool) Option { return func(c *config) { c.columnar = on } }

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
		workMem:      storage.DefaultWorkMem,
		maxRecursion: 20_000_000,
		maxCallDepth: 256,
		seed:         42,
		batchSize:    exec.DefaultBatchSize,
		columnar:     true,
		syncMode:     wal.SyncBatched,
	}
	for _, o := range opts {
		o(&cfg)
	}
	sh := &shared{
		storageStats:    &storage.Stats{},
		prof:            cfg.prof,
		workMem:         cfg.workMem,
		maxRecursion:    cfg.maxRecursion,
		maxCallDepth:    cfg.maxCallDepth,
		seed:            cfg.seed,
		batchSize:       cfg.batchSize,
		columnar:        cfg.columnar,
		syncMode:        cfg.syncMode,
		slowQueryNS:     cfg.slowQueryNS,
		logf:            cfg.logf,
		checkpointBytes: cfg.checkpointBytes,
	}
	sh.state.Store(&dbState{cat: catalog.New(sh.storageStats), ts: 0})
	sh.cache = plan.NewCache()
	if cfg.registry != nil {
		sh.metrics = newMetrics(cfg.registry, sh)
	}
	e := &Engine{sh: sh}
	e.def = e.NewSession()
	return e
}

// NewSession creates an independent session sharing this engine's catalog,
// storage, and plan cache. Sessions are cheap; create one per goroutine.
// A single session must not be used concurrently.
func (e *Engine) NewSession() *Session {
	if m := e.sh.metrics; m != nil {
		m.sessions.Inc()
	}
	return newSession(e.sh)
}

// Metrics exposes the registry the engine publishes into (nil unless
// built with WithMetricsRegistry).
func (e *Engine) Metrics() *obs.Registry {
	if e.sh.metrics == nil {
		return nil
	}
	return e.sh.metrics.reg
}

// Counters exposes the default session's profile counters (Table 1
// buckets). Counters are per-session: a session created with NewSession
// reports its own via Session.Counters.
func (e *Engine) Counters() *profile.Counters { return e.def.Counters() }

// StorageStats exposes storage counters (Table 2 page writes), shared by
// all sessions.
func (e *Engine) StorageStats() *storage.Stats { return e.sh.storageStats }

// Catalog exposes the currently published catalog snapshot. The snapshot
// is immutable; DDL publishes a new one.
func (e *Engine) Catalog() *catalog.Catalog { return e.sh.state.Load().cat }

// PlanCache exposes the shared plan cache (ablation A4 toggles it).
func (e *Engine) PlanCache() *plan.Cache { return e.sh.cache }

// Interp exposes the default session's PL/pgSQL interpreter (ablation A3
// toggles its fast path).
func (e *Engine) Interp() *plinterp.Interpreter { return e.def.Interp() }

// Profile reports the active engine profile.
func (e *Engine) Profile() profile.Profile { return e.sh.prof }

// SetBatchSize overrides the default session's executor batch size (0
// restores the engine default, 1 degenerates to tuple-at-a-time
// iteration). Sessions created with NewSession use their own
// Session.SetBatchSize.
func (e *Engine) SetBatchSize(n int) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.def.SetBatchSize(n)
}

// SetInlining toggles planner UDF inlining on the default session (on by
// default; the benchmark ablation's -inline flag). Sessions created with
// NewSession use their own Session.SetInlining.
func (e *Engine) SetInlining(on bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.def.SetInlining(on)
}

// PlanStats reports the shared plan cache's inlining counters (UDF calls
// inlined, constant-specialized call sites, cache evictions).
func (e *Engine) PlanStats() (inlined, specialized, evictions int64) {
	return e.def.PlanStats()
}

// Seed reseeds the default session's random(); interpreted and compiled
// runs of the same seed see the same stream.
func (e *Engine) Seed(seed uint64) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.def.Seed(seed)
}

// Exec runs a semicolon-separated SQL script (DDL, DML, and queries whose
// results are discarded) on the default session.
func (e *Engine) Exec(sql string) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.def.Exec(sql)
}

// Query runs a single SQL query on the default session.
func (e *Engine) Query(sql string, params ...sqltypes.Value) (*Result, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.def.Query(sql, params...)
}

// QueryValue runs a query expected to return one row with one column.
func (e *Engine) QueryValue(sql string, params ...sqltypes.Value) (sqltypes.Value, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.def.QueryValue(sql, params...)
}

// QueryPlanned executes an already-parsed query (used by the compiler
// pipeline and benchmarks to skip re-parsing).
func (e *Engine) QueryPlanned(q *sqlast.Query, params ...sqltypes.Value) (*Result, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.def.QueryPlanned(q, params...)
}

// QueryFresh plans and executes q bypassing the plan cache — the benchmark
// harness uses it so every measurement includes the one-time cost to
// optimize the (possibly large, inlined) query, as the paper's Figure 11
// measurements do.
func (e *Engine) QueryFresh(q *sqlast.Query, params ...sqltypes.Value) (*Result, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.def.QueryFresh(q, params...)
}

// InstallCompiled registers a compiled function: calls evaluate the given
// pure-SQL body (parameters $1..$n) with no interpreter involvement.
func (e *Engine) InstallCompiled(name string, params []plast.Param, ret sqltypes.Type, body *sqlast.Query) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.def.InstallCompiled(name, params, ret, body)
}

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
