package engine

import (
	"errors"
	"fmt"
	"strings"
	"time"

	"plsqlaway/internal/catalog"
	"plsqlaway/internal/exec"
	"plsqlaway/internal/plan"
	"plsqlaway/internal/plast"
	"plsqlaway/internal/plinterp"
	"plsqlaway/internal/plparser"
	"plsqlaway/internal/profile"
	"plsqlaway/internal/sqlast"
	"plsqlaway/internal/sqlparser"
	"plsqlaway/internal/sqltypes"
	"plsqlaway/internal/storage"
	"plsqlaway/internal/wal"
)

// Session is one caller's execution context on a shared engine core. Many
// sessions run concurrently against the same catalog, storage, and plan
// cache; each session owns its deterministic random stream, its phase
// counters, its PL/pgSQL interpreter state, and its prepared statements.
// A Session must be used from one goroutine at a time.
type Session struct {
	sh *Engine

	rng      *exec.Rand
	counters *profile.Counters
	interp   *plinterp.Interpreter

	// pool keeps the executor trees of plans this session runs again
	// (exec.Pool); callFn and overlay are the hooks every run context
	// carries, built once so binding a run allocates nothing.
	pool    exec.Pool
	callFn  exec.CallFunc
	overlay func(h *storage.Heap) *storage.HeapOverlay

	// callDepth guards runaway UDF recursion across nested callFunction
	// invocations (PostgreSQL's max_stack_depth, in spirit).
	callDepth int

	// batchSize overrides the engine's executor batch size for this
	// session (0 = inherit the shared default).
	batchSize int

	// opts is the planner options of every statement this session plans;
	// the interpreter plans its embedded queries with them too.
	opts plan.Options

	// Statement snapshot state. A session runs on one goroutine, so these
	// need no locking: they describe the statement currently in flight.
	cur        snapshot         // pinned (catalog, commit-ts) pair
	pinDepth   int              // nesting depth of pinned execution scopes
	writeTS    int64            // commit timestamp being stamped; 0 outside writer statements
	pendingCat *catalog.Catalog // COW catalog clone, created on first DDL mutation

	// pendingWrites buffers the in-flight autocommit statement's heap
	// changes; pendingDDL its loggable catalog deltas. Both land at the
	// statement's end in one step — WAL record first, then the heap
	// commits, then the atomic publish — so a failed log append aborts
	// with the heaps untouched.
	pendingWrites []pendingWrite
	pendingDDL    []wal.DDLEntry

	// txn is the session's open transaction block (BEGIN…COMMIT/ROLLBACK);
	// zero outside one. See txn.go for the protocol.
	txn txnState

	// lastPlan remembers the most recent plan this session built or
	// fetched — the slow-query log reads its shape counters.
	lastPlan *plan.Plan

	// lastDML remembers the most recent writer statement's scan shape —
	// EXPLAIN ANALYZE of an UPDATE/DELETE reports it as the actuals.
	lastDML dmlStats
}

// snapshot is the consistent (catalog, storage) view one statement
// executes against.
type snapshot struct {
	cat *catalog.Catalog
	ts  int64
}

// newSession wires a session to the shared core.
func newSession(e *Engine) *Session {
	s := &Session{
		sh:       e,
		rng:      exec.NewRand(e.seed),
		counters: &profile.Counters{},
	}
	s.callFn = s.callFunction
	s.overlay = func(h *storage.Heap) *storage.HeapOverlay { return s.txn.writes[h] }
	s.opts = plan.Options{DisableLateral: e.prof.DisableLateral}
	s.interp = plinterp.New(e.state.Load().cat, e.cache, s.counters, s.newCtx, &s.pool)
	s.interp.Profile = e.prof
	s.interp.Opts = &s.opts
	return s
}

// newCtx builds an execution context wired to this session and the
// shared core for the statement in flight.
func (s *Session) newCtx() *exec.Ctx {
	ctx := new(exec.Ctx)
	s.bindCtx(ctx)
	return ctx
}

// bindCtx sets every field of ctx for a run of the statement in flight:
// the session's random stream, function-call hook and batch size, its
// pinned snapshot and transaction overlay, and the engine's limits.
func (s *Session) bindCtx(ctx *exec.Ctx) {
	*ctx = exec.Ctx{
		Rand:         s.rng,
		StorageStats: s.sh.storageStats,
		Stats:        &s.sh.execStats,
		WorkMem:      storage.DefaultWorkMem,
		MaxRecursion: s.sh.maxRecursion,
		MaxCallDepth: s.sh.maxCallDepth,
		CallFn:       s.callFn,
		TS:           storage.AllVisible,
		BatchSize:    exec.DefaultBatchSize,
	}
	if s.pinDepth > 0 {
		ctx.TS = s.cur.ts // read at the statement's pinned storage snapshot
	}
	if s.txn.active && len(s.txn.writes) > 0 {
		// Inside a transaction with buffered writes: scans overlay them on
		// the pinned snapshot so the transaction reads its own
		// uncommitted rows.
		ctx.TxnOverlay = s.overlay
	}
	if s.batchSize > 0 {
		ctx.BatchSize = s.batchSize
	} else if s.sh.batchSize > 0 {
		ctx.BatchSize = s.sh.batchSize
	}
}

// SetBatchSize overrides the executor batch size for this session (0
// restores the engine default, 1 degenerates to tuple-at-a-time
// iteration).
func (s *Session) SetBatchSize(n int) {
	if n < 0 {
		n = 0
	}
	s.batchSize = n
}

// SetInlining toggles planner UDF inlining for this session (on by
// default). Off keeps every compiled/SQL function call an opaque per-row
// dispatch, the baseline the inlining tests compare against. Plans built
// either way cache under distinct keys, so flipping mid-session is safe.
func (s *Session) SetInlining(on bool) {
	if on {
		s.opts.Skip &^= plan.PassInline
	} else {
		s.opts.Skip |= plan.PassInline
	}
}

// PlanStats reports the shared plan cache's inlining counters: UDF calls
// inlined into plans, constant-specialized call sites, and cache entries
// evicted (capacity pressure or DDL invalidation).
func (s *Session) PlanStats() (inlined, specialized, evictions int64) {
	return s.sh.cache.InlineStats()
}

// PlanCacheStats reports the shared plan cache's hit/miss counters — the
// wire protocol's stats frame carries them to remote shells.
func (s *Session) PlanCacheStats() (hits, misses int64) {
	return s.sh.cache.Stats()
}

// planOpts returns the planner options every query planned on this
// session uses. They are built once, in newSession, changed only by
// SetInlining, and shared with the interpreter by pointer, so the cached,
// fresh, streaming and embedded paths cannot drift apart.
func (s *Session) planOpts() plan.Options { return s.opts }

// Counters exposes this session's profile counters (Table 1 buckets).
func (s *Session) Counters() *profile.Counters { return s.counters }

// Interp exposes this session's PL/pgSQL interpreter.
func (s *Session) Interp() *plinterp.Interpreter { return s.interp }

// Catalog exposes the currently published catalog snapshot.
func (s *Session) Catalog() *catalog.Catalog { return s.sh.state.Load().cat }

// StorageStats exposes the engine-wide storage counters (shared by all
// sessions). The wire protocol's stats frame reads them through this
// accessor so a remote benchmark can assert storage behaviour.
func (s *Session) StorageStats() *storage.Stats { return s.sh.storageStats }

// Seed reseeds this session's random(); interpreted and compiled runs of
// the same seed see the same stream.
func (s *Session) Seed(seed uint64) { s.rng.Seed(seed) }

// isReadOnly classifies a statement: queries pin a snapshot and never
// block, everything that mutates catalog or heaps goes through the
// commit protocol. EXPLAIN ANALYZE of a DML statement really executes
// the write, so it takes the write path; plain EXPLAIN of DML only
// plans and stays read-only.
func isReadOnly(stmt sqlast.Statement) bool {
	switch x := stmt.(type) {
	case *sqlast.SelectStatement:
		return true
	case *sqlast.Explain:
		return x.Stmt == nil || !x.Analyze
	}
	return false
}

// beginRead pins the published database snapshot for one execution scope
// and returns the matching release. Nested scopes (a DML statement's
// embedded query, a UDF call inside a query) share the outer pin, so a
// whole statement — including everything it evaluates — sees one
// consistent (catalog, rows) pair. Inside a transaction block the scope
// reuses the snapshot pinned at BEGIN (and the transaction's private
// catalog), so every statement in the block reads the same database
// state plus the block's own buffered writes.
func (s *Session) beginRead() func() {
	s.pinDepth++
	if s.pinDepth > 1 {
		return func() { s.pinDepth-- }
	}
	if s.txn.active {
		s.cur = snapshot{cat: s.txn.cat, ts: s.txn.st.ts}
		s.interp.Cat = s.txn.cat
		return func() { s.pinDepth-- }
	}
	st := s.sh.pinState()
	s.cur = snapshot{cat: st.cat, ts: st.ts}
	s.interp.Cat = st.cat
	return func() {
		s.pinDepth--
		s.sh.pins.unpin(st.ts)
		// Symmetric restore: between statements the interpreter binds
		// against the published catalog, not a stale statement pin.
		s.interp.Cat = s.sh.state.Load().cat
	}
}

// vacuumMinDead is the dead-version floor below which commits skip the
// vacuum check entirely.
const vacuumMinDead = 64

// pendingWrite is one heap's buffered changes awaiting the commit point:
// the dead version indices and surviving added tuples (already
// flattened), with the owning table for the WAL record's name.
type pendingWrite struct {
	tbl   *catalog.Table
	dead  []int
	added []storage.Tuple
}

// commitRecord renders a commit's catalog deltas and flattened heap
// changes as its WAL record. Tuples are serialized with
// storage.EncodeTuple — the heap-page format doubles as the log format.
func commitRecord(ts int64, ddl []wal.DDLEntry, writes []pendingWrite) *wal.Record {
	rec := &wal.Record{Kind: wal.RecordCommit, TS: ts, DDL: ddl}
	for _, pw := range writes {
		hc := wal.HeapChange{Table: pw.tbl.Name, Dead: pw.dead}
		for _, t := range pw.added {
			hc.Added = append(hc.Added, storage.EncodeTuple(t))
		}
		rec.Heaps = append(rec.Heaps, hc)
	}
	return rec
}

// commitWrap runs fn as one writer transaction: fn executes against a
// pinned tip snapshot with no lock held, buffering its changes; if it
// changed anything, a short critical section under the commit lock
// validates the buffered writes against the then-current tip
// (first-updater-wins), appends the WAL record, applies the heap
// commits, and publishes the new database state. On error nothing is
// published: DML helpers buffer their rows, DDL mutates a private
// catalog clone, and the WAL append precedes the first heap mutation, so
// an aborted statement (including one whose log append failed) leaves no
// trace.
//
// Durability ordering: the record is appended (one buffered write)
// under the commit lock, which serializes the log identically to commit
// order; the fsync wait happens after the lock is released, so
// concurrent committers stack up behind one group-commit fsync instead
// of serializing N fsyncs through the lock. Consequence: a commit
// becomes visible to concurrent readers before it is durable — after a
// crash, recovered state is always a prefix of what readers might have
// seen, and a superset of what WaitDurable acknowledged.
func (s *Session) commitWrap(fn func() error) error {
	if s.pinDepth > 0 {
		return fmt.Errorf("engine: DML/DDL inside a query is not supported")
	}
	if s.txn.active {
		// Inside a transaction block the statement buffers under the
		// block's snapshot and lock instead of committing on its own.
		return s.txnWrite(fn)
	}
	tCommit := time.Now()
	lsn, err := s.commitOnce(fn)
	if err != nil {
		return err
	}
	if lsn > 0 {
		if err := s.sh.wal.WaitDurable(lsn); err != nil {
			return err
		}
	}
	s.sh.noteCommitPhase(time.Since(tCommit))
	if lsn > 0 {
		s.sh.maybeAutoCheckpoint()
	}
	return nil
}

// commitOnce is commitWrap's optimistic half: it runs the statement and
// commits it, retrying the whole statement on a fresh snapshot when the
// validate step loses a first-updater-wins race. Retrying internally
// gives autocommit statements READ COMMITTED-style behaviour — a lost
// race means some other commit published, so every retry rereads a newer
// tip and the loop makes system-wide progress. Explicit transaction
// blocks do NOT retry (their earlier statements' results may already be
// visible to the caller); they surface ErrSerialization from COMMIT
// instead (see commitTxn). Returns the LSN the caller must wait on (0
// when nothing was logged).
func (s *Session) commitOnce(fn func() error) (int64, error) {
	for {
		lsn, err := s.commitAttempt(fn)
		if err != nil && errors.Is(err, ErrSerialization) {
			continue
		}
		return lsn, err
	}
}

// commitAttempt runs fn once against the current tip with no lock held
// (its reads pin the snapshot, its writes buffer on the session), then —
// if it changed anything — enters the commit critical section: validate
// against the tip, append the WAL record, apply the heap commits,
// publish. A validation failure returns ErrSerialization with nothing
// applied or published.
func (s *Session) commitAttempt(fn func() error) (int64, error) {
	// Writer window: fn buffers dead version indices, and vacuum
	// renumbers exactly those indices — hold the vacuum gate shared from
	// before the first read until the commit applies.
	s.sh.vacuumGate.RLock()
	gated := true
	defer func() {
		if gated {
			s.sh.vacuumGate.RUnlock()
		}
	}()
	st := s.sh.pinState()
	s.cur = snapshot{cat: st.cat, ts: st.ts}
	s.interp.Cat = st.cat
	s.pinDepth++
	s.pendingCat = nil
	s.pendingWrites = nil
	s.pendingDDL = nil
	defer func() {
		s.pinDepth--
		s.writeTS = 0
		s.pendingCat = nil
		s.pendingWrites = nil
		s.pendingDDL = nil
		s.sh.pins.unpin(st.ts)
		// Symmetric restore (mirrors beginRead's release): after the
		// commit the interpreter must bind against the published catalog
		// — which now includes this statement's DDL — not the stale
		// commit-time pin.
		s.interp.Cat = s.sh.state.Load().cat
	}()

	if err := fn(); err != nil {
		return 0, err
	}
	if s.pendingCat == nil && len(s.pendingWrites) == 0 {
		return 0, nil // no-op statement: don't burn a commit timestamp
	}

	s.sh.commitMu.Lock()
	defer s.sh.commitMu.Unlock()
	tip := s.sh.state.Load()
	cat, err := s.validateCommit(tip, st.ts, s.pendingCat, s.pendingWrites)
	if err != nil {
		return 0, err
	}
	s.writeTS = tip.ts + 1
	var lsn int64
	if w := s.sh.wal; w != nil {
		lsn, err = w.Append(commitRecord(s.writeTS, s.pendingDDL, s.pendingWrites))
		if err != nil {
			return 0, err // nothing applied, nothing published: clean abort
		}
	}
	for _, pw := range s.pendingWrites {
		pw.tbl.Heap.Commit(pw.dead, pw.added, s.writeTS)
	}
	s.sh.state.Store(&dbState{cat: cat, ts: s.writeTS})
	if s.pendingCat != nil {
		// DDL published: drop every plan built against an older catalog.
		// Version-checked lookups already refuse them, but specialized and
		// inlined plans embed function bodies verbatim — a redefined
		// function's old body must be evicted, not merely unreachable.
		s.sh.cache.InvalidateStale(cat.Version)
	}
	// Close our own writer window before attempting vacuum: its TryLock
	// needs the gate free of every reader, ourselves included.
	gated = false
	s.sh.vacuumGate.RUnlock()
	for _, pw := range s.pendingWrites {
		s.maybeVacuum(pw.tbl, s.writeTS)
	}
	return lsn, nil
}

// validateCommit is the first-updater-wins check every commit runs under
// the commit lock immediately before applying. DDL commits require the
// tip unmoved since their catalog clone was taken — publishing a clone
// of a stale catalog would silently roll back whatever moved the tip.
// DML-only commits tolerate tip movement: each written table must still
// exist at the tip with the same heap (not dropped/recreated), and every
// version the commit stamps dead must still be unstamped
// (Heap.ValidateDead) — concurrent commits that touched disjoint rows
// pass, a lost row race fails. Returns the catalog to publish: the DDL
// clone, or the tip's own catalog so concurrent DDL is never clobbered.
func (s *Session) validateCommit(tip *dbState, pinnedTS int64, pendingCat *catalog.Catalog, writes []pendingWrite) (*catalog.Catalog, error) {
	cat := tip.cat
	if pendingCat != nil {
		if tip.ts != pinnedTS {
			s.sh.noteConflict()
			return nil, fmt.Errorf("%w: schema change raced a concurrent commit", ErrSerialization)
		}
		cat = pendingCat
	} else {
		for _, pw := range writes {
			cur, ok := tip.cat.Table(pw.tbl.Name)
			if !ok || cur.Heap != pw.tbl.Heap {
				s.sh.noteConflict()
				return nil, fmt.Errorf("%w: relation %q was dropped concurrently", ErrSerialization, pw.tbl.Name)
			}
		}
	}
	for _, pw := range writes {
		if !pw.tbl.Heap.ValidateDead(pw.dead) {
			s.sh.noteConflict()
			return nil, fmt.Errorf("%w: row updated by a concurrent commit in %q", ErrSerialization, pw.tbl.Name)
		}
	}
	return cat, nil
}

// mutableCat returns the writer's private catalog clone, creating it on
// first use. DDL mutates the clone; the commit publishes it. Inside a
// transaction block the clone belongs to the block (created at its first
// DDL, published at COMMIT, discarded at ROLLBACK) and is immediately
// visible to the block's own later statements.
func (s *Session) mutableCat() *catalog.Catalog {
	if s.txn.active {
		if !s.txn.ddl || s.txn.catFrozen {
			// catFrozen: a savepoint mark holds the current clone as its
			// restore point — mutate a fresh clone, never the mark's.
			s.txn.cat = s.txn.cat.Clone()
			s.txn.ddl = true
			s.txn.catFrozen = false
		}
		s.cur.cat = s.txn.cat
		s.interp.Cat = s.txn.cat
		return s.txn.cat
	}
	if s.pendingCat == nil {
		s.pendingCat = s.cur.cat.Clone()
	}
	return s.pendingCat
}

// A statement's rows leave the engine through a sink pair, and only
// through one: begin receives the column names once — after the plan
// instantiated, so plan errors produce no result header — then batch
// receives every non-empty executor batch. A batch is valid only for the
// duration of the call; the next pull reuses it. Both run synchronously
// on the executor's pull loop, so a slow consumer stalls the producer:
// peak memory for a wide scan is one batch, and backpressure propagates
// all the way down. A sink error aborts execution and is returned.
// Statements without rows (DDL, DML, transaction control) call neither.

// collector is the buffering sink: a *Result is the streaming path with
// its rows kept.
type collector struct{ res *Result }

func (c *collector) begin(cols []string) error {
	c.res = &Result{Cols: cols}
	return nil
}

func (c *collector) batch(b *exec.Batch) error {
	c.res.Rows = append(c.res.Rows, b.Rows()...)
	return nil
}

// done pairs the collected result (nil for statements without rows) with
// the statement's outcome.
func (c *collector) done(err error) (*Result, error) {
	if err != nil {
		return nil, err
	}
	return c.res, nil
}

// discardCols and discardBatch are the sink of a statement whose rows
// nobody reads.
func discardCols([]string) error     { return nil }
func discardBatch(*exec.Batch) error { return nil }

// execStmtPinned runs one statement under the discipline its class
// prescribes: queries on a pinned snapshot, mutations as a commit (or,
// inside a transaction block, buffered under the block's snapshot).
// BEGIN/COMMIT/ROLLBACK switch the session's transaction mode and are
// legal even on an aborted block. Every statement entry point funnels
// through here, so each execution is observed (statement metrics,
// slow-query log) exactly once. key is an optional precomputed plan-cache
// key for a SELECT (prepared statements avoid re-deparsing).
func (s *Session) execStmtPinned(stmt sqlast.Statement, key string, params []sqltypes.Value, begin func([]string) error, batch func(*exec.Batch) error) error {
	return s.observeStmt(
		func() string { return sqlast.Deparse(stmt) },
		func() error {
			switch x := stmt.(type) {
			case *sqlast.Transaction:
				return s.execTxnControl(x)
			// Savepoint statements bypass the abort gate: ROLLBACK TO is the
			// one statement (besides COMMIT/ROLLBACK) an aborted block
			// accepts, and the other two report their own in-block errors.
			case *sqlast.Savepoint:
				return s.execSavepoint(x.Name)
			case *sqlast.RollbackTo:
				return s.execRollbackTo(x.Name)
			case *sqlast.ReleaseSavepoint:
				return s.execReleaseSavepoint(x.Name)
			}
			if err := s.txnGate(); err != nil {
				return err
			}
			var planText []string
			var err error
			if isReadOnly(stmt) {
				end := s.beginRead()
				planText, err = s.execStmt(stmt, key, params, begin, batch)
				end()
				s.noteStmtErr(err)
			} else {
				err = s.commitWrap(func() (err error) {
					planText, err = s.execStmt(stmt, key, params, begin, batch)
					return err
				})
			}
			if err != nil || planText == nil {
				return err
			}
			// EXPLAIN text is emitted once the statement is over — for
			// EXPLAIN ANALYZE of a write, after a commit that may have
			// retried it.
			if err := begin([]string{"QUERY PLAN"}); err != nil {
				return err
			}
			b := exec.NewBatch(len(planText))
			for _, l := range planText {
				b.Add(storage.Tuple{sqltypes.NewText(l)})
			}
			return batch(b)
		})
}

// Exec runs a SQL statement or semicolon-separated script (see RunStream),
// discarding any rows.
func (s *Session) Exec(sql string) error {
	return s.RunStream(sql, discardCols, discardBatch)
}

// Run is RunStream with the rows kept: a single statement returns its
// rows (nil for DDL/DML), a script returns nil.
func (s *Session) Run(sql string) (*Result, error) {
	var c collector
	return c.done(s.RunStream(sql, c.begin, c.batch))
}

// RunStream executes sql with one parse — the wire server's simple-query
// dispatch; no fallback path, so a failing statement never re-executes. A
// single statement delivers its rows (if it has any) through the sink
// pair. A semicolon-separated script runs as one implicit transaction
// block with rows discarded, PostgreSQL-style: its statements commit
// together when the script ends and an error rolls all of them back, so a
// concurrent reader sees the whole script or none of it. BEGIN inside the
// script turns the implicit block into an explicit one (left open if the
// script does not end it); COMMIT and ROLLBACK end the block so far, and
// the statements after them start a new implicit one. A script run
// inside an already open block simply joins it.
func (s *Session) RunStream(sql string, begin func(cols []string) error, batch func(b *exec.Batch) error) error {
	stmts, err := s.parseScript(sql)
	if err != nil {
		return err
	}
	if len(stmts) == 1 {
		return s.execStmtPinned(stmts[0], "", nil, begin, batch)
	}
	// Like an autocommit statement, a script that is one implicit block
	// from its first statement to its last retries when its commit loses
	// a first-updater-wins race: its rows were discarded, so nobody saw
	// the losing attempt. A script that manages transactions itself, or
	// joins an open block, surfaces ErrSerialization like any explicit
	// block.
	retry := !s.txn.active
	for _, st := range stmts {
		if _, ok := st.(*sqlast.Transaction); ok {
			retry = false
		}
	}
	for {
		err := s.runBlock(stmts)
		if !retry || !errors.Is(err, ErrSerialization) {
			return err
		}
	}
}

// runBlock executes a script's statements inside its implicit transaction
// block, opening one whenever no block is open (at the start, and again
// after an in-script COMMIT or ROLLBACK).
func (s *Session) runBlock(stmts []sqlast.Statement) error {
	for _, st := range stmts {
		if !s.txn.active {
			if err := s.Begin(); err != nil {
				return err
			}
			s.txn.implicit = true
		}
		if err := s.execStmtPinned(st, "", nil, discardCols, discardBatch); err != nil {
			if s.txn.implicit {
				s.endTxn()
			}
			return err
		}
	}
	if s.txn.implicit {
		return s.commitBlock()
	}
	return nil
}

// QueryStream runs a single row-returning query, delivering its rows
// through the sink pair batch-at-a-time. Non-query statements are
// rejected.
func (s *Session) QueryStream(sql string, begin func(cols []string) error, batch func(b *exec.Batch) error, params ...sqltypes.Value) error {
	stmt, err := s.parseStatement(sql)
	if err != nil {
		return err
	}
	if _, ok := stmt.(*sqlast.SelectStatement); !ok {
		return fmt.Errorf("engine: QueryStream needs a row-returning query, got %T", stmt)
	}
	return s.execStmtPinned(stmt, "", params, begin, batch)
}

// Query runs a single SQL statement and returns its rows.
func (s *Session) Query(sql string, params ...sqltypes.Value) (*Result, error) {
	stmt, err := s.parseStatement(sql)
	if err != nil {
		return nil, err
	}
	var c collector
	return c.done(s.execStmtPinned(stmt, "", params, c.begin, c.batch))
}

// QueryValue runs a query expected to return one row with one column.
func (s *Session) QueryValue(sql string, params ...sqltypes.Value) (sqltypes.Value, error) {
	res, err := s.Query(sql, params...)
	if err != nil {
		return sqltypes.Null, err
	}
	return singleValue(res)
}

func singleValue(res *Result) (sqltypes.Value, error) {
	if len(res.Rows) != 1 || len(res.Rows[0]) != 1 {
		return sqltypes.Null, fmt.Errorf("engine: expected a single value, got %d rows × %d cols", len(res.Rows), len(res.Cols))
	}
	return res.Rows[0][0], nil
}

// QueryPlanned executes an already-parsed query (used by the compiler
// pipeline and benchmarks to skip re-parsing).
func (s *Session) QueryPlanned(q *sqlast.Query, params ...sqltypes.Value) (*Result, error) {
	var c collector
	return c.done(s.execStmtPinned(&sqlast.SelectStatement{Query: q}, "", params, c.begin, c.batch))
}

// QueryFresh plans and executes q bypassing the plan cache — the benchmark
// harness uses it so every measurement includes the one-time cost to
// optimize the (possibly large, inlined) query, as the paper's Figure 11
// measurements do.
func (s *Session) QueryFresh(q *sqlast.Query, params ...sqltypes.Value) (*Result, error) {
	var c collector
	return c.done(s.observeStmt(
		func() string { return sqlast.DeparseQuery(q) },
		func() error {
			if err := s.txnGate(); err != nil {
				return err
			}
			end := s.beginRead()
			defer end()
			tPlan := time.Now()
			p, err := plan.Build(s.cur.cat, q, s.planOpts())
			s.counters.PlanNS += time.Since(tPlan).Nanoseconds()
			if err == nil {
				s.notePlan(p)
				_, err = s.execPlan(p, params, false, c.begin, c.batch)
			}
			s.noteStmtErr(err)
			return err
		}))
}

// InstallCompiled registers a compiled function: calls evaluate the given
// pure-SQL body (parameters $1..$n) with no interpreter involvement.
func (s *Session) InstallCompiled(name string, params []plast.Param, ret sqltypes.Type, body *sqlast.Query) error {
	return s.commitWrap(func() error {
		cat := s.mutableCat()
		fn := &catalog.Function{
			Name:       name,
			Params:     params,
			ReturnType: ret,
			Kind:       catalog.FuncCompiled,
			SQLBody:    body,
			Volatile:   cat.QueryVolatile(body),
		}
		if err := cat.CreateFunction(fn, true); err != nil {
			return err
		}
		if s.sh.wal != nil {
			fe, err := functionEntry(fn)
			if err != nil {
				return err
			}
			s.logDDLEntry(wal.DDLEntry{Fn: fe})
		}
		return nil
	})
}

// Prepared is a statement parsed once and executable many times on its
// session: every execution skips parsing. For SELECT statements the
// canonical plan-cache key is also precomputed here, so repeated reads
// skip the deparse-to-cache-key step too; other statements (DML/DDL)
// replan via the shared cache, paying a deparse of any inner query per
// execution.
type Prepared struct {
	s         *Session
	stmt      sqlast.Statement
	cacheKey  string // non-empty for SELECT statements
	numParams int
}

// Prepare parses a single statement for repeated execution on this
// session.
func (s *Session) Prepare(sql string) (*Prepared, error) {
	stmt, err := s.parseStatement(sql)
	if err != nil {
		return nil, err
	}
	p := &Prepared{s: s, stmt: stmt, numParams: sqlast.StatementMaxParam(stmt)}
	if sel, ok := stmt.(*sqlast.SelectStatement); ok {
		p.cacheKey = sqlast.DeparseQuery(sel.Query)
	}
	return p, nil
}

// NumParams reports the highest $n parameter ordinal the statement
// references — the execution-time argument count a remote caller must
// supply. Available immediately after Prepare, before any planning.
func (p *Prepared) NumParams() int { return p.numParams }

// IsQuery reports whether the prepared statement is a row-returning query
// (as opposed to DDL/DML) — result-shape metadata the wire layer sends in
// its parse-complete frame.
func (p *Prepared) IsQuery() bool { return p.cacheKey != "" }

// QueryStream executes the prepared statement, delivering its rows (if it
// has any) through the sink pair — see RunStream's single-statement case.
func (p *Prepared) QueryStream(begin func(cols []string) error, batch func(b *exec.Batch) error, params ...sqltypes.Value) error {
	return p.s.execStmtPinned(p.stmt, p.cacheKey, params, begin, batch)
}

// Query executes the prepared statement.
func (p *Prepared) Query(params ...sqltypes.Value) (*Result, error) {
	var c collector
	return c.done(p.QueryStream(c.begin, c.batch, params...))
}

// QueryValue executes the prepared statement, expecting a single value.
func (p *Prepared) QueryValue(params ...sqltypes.Value) (sqltypes.Value, error) {
	res, err := p.Query(params...)
	if err != nil {
		return sqltypes.Null, err
	}
	return singleValue(res)
}

// Exec executes the prepared statement, discarding any rows.
func (p *Prepared) Exec(params ...sqltypes.Value) error {
	return p.QueryStream(discardCols, discardBatch, params...)
}

// execStmt dispatches one statement; the caller holds the snapshot pin
// or commit scope isReadOnly prescribes. A SELECT streams into the sink
// pair; EXPLAIN returns its text for the caller to emit; everything else
// has no rows.
func (s *Session) execStmt(stmt sqlast.Statement, key string, params []sqltypes.Value, begin func([]string) error, batch func(*exec.Batch) error) (planText []string, err error) {
	switch stmt := stmt.(type) {
	case *sqlast.SelectStatement:
		return nil, s.streamQuery(stmt.Query, key, params, begin, batch)
	case *sqlast.Explain:
		return s.explain(stmt, params)
	case *sqlast.CreateTable:
		return nil, s.loggedDDL(stmt, func() error { return applyCreateTable(s.mutableCat(), stmt) })
	case *sqlast.CreateIndex:
		return nil, s.loggedDDL(stmt, func() error { return s.mutableCat().DeclareIndex(stmt.Table, stmt.Column) })
	case *sqlast.DropTable:
		return nil, s.loggedDDL(stmt, func() error { return s.mutableCat().DropTable(stmt.Name, stmt.IfExists) })
	case *sqlast.CreateFunction:
		return nil, s.loggedDDL(stmt, func() error { return applyCreateFunction(s.mutableCat(), s.sh, stmt) })
	case *sqlast.DropFunction:
		return nil, s.loggedDDL(stmt, func() error { return s.mutableCat().DropFunction(stmt.Name, stmt.IfExists) })
	case *sqlast.Insert:
		return nil, s.insert(stmt, params)
	case *sqlast.Update:
		return nil, s.update(stmt, params)
	case *sqlast.Delete:
		return nil, s.delete(stmt, params)
	default:
		return nil, fmt.Errorf("engine: unsupported statement %T", stmt)
	}
}

// explain plans a query through the same cache and options execution
// would use — so the rendered tree is exactly the plan a subsequent run
// hits — and returns it as text, one operator per line. With ANALYZE the
// query also executes to completion (rows discarded) under per-node
// instrumentation, and each line carries its actuals.
func (s *Session) explain(stmt *sqlast.Explain, params []sqltypes.Value) ([]string, error) {
	if stmt.Stmt != nil {
		return s.explainDML(stmt, params)
	}
	p, err := s.cachedPlan(stmt.Query, "", s.planOpts())
	if err != nil {
		return nil, err
	}
	s.notePlan(p)
	if !stmt.Analyze {
		return p.Explain(), nil
	}
	// The analyzed run charges the same phase buckets a real run would,
	// keeps one batch in memory regardless of result size, and advances
	// the session's random stream exactly as execution does — volatile
	// plans draw in the same order as an unanalyzed run.
	var rows int64
	t0 := time.Now()
	ana, err := s.execPlan(p, params, true, discardCols, func(b *exec.Batch) error {
		rows += int64(b.Len())
		return nil
	})
	if err != nil {
		return nil, err
	}
	return append(ana.Lines(), fmt.Sprintf("Execution: rows=%d time=%s", rows, time.Since(t0).Round(time.Microsecond))), nil
}

// explainDML renders the access path a writer statement will use — the
// write node over an IndexScan (plus residual Filter) or the sequential
// Filter→SeqScan — via the same binding and index selection execution
// goes through, so the shown plan is the one a run takes. With ANALYZE
// the statement really executes (the caller put us on the write path)
// and the lines carry its scanned/matched actuals.
func (s *Session) explainDML(stmt *sqlast.Explain, params []sqltypes.Value) ([]string, error) {
	var op, table, alias string
	var where sqlast.Expr
	var sets []sqlast.SetClause
	switch x := stmt.Stmt.(type) {
	case *sqlast.Update:
		op, table, alias, where, sets = "Update", x.Table, x.Alias, x.Where, x.Sets
	case *sqlast.Delete:
		op, table, alias, where = "Delete", x.Table, x.Alias, x.Where
	default:
		return nil, fmt.Errorf("engine: EXPLAIN does not support %T", stmt.Stmt)
	}
	tbl, ok := s.cur.cat.Table(table)
	if !ok {
		return nil, fmt.Errorf("engine: relation %q does not exist", table)
	}
	if alias == "" {
		alias = table
	}
	_, _, whereExpr, err := s.compileRowClauses(tbl, alias, where, sets)
	if err != nil {
		return nil, err
	}
	lines := plan.ExplainDML(op, tbl, whereExpr, plan.SelectDMLAccess(tbl, whereExpr))
	if stmt.Analyze {
		t0 := time.Now()
		switch x := stmt.Stmt.(type) {
		case *sqlast.Update:
			err = s.update(x, params)
		case *sqlast.Delete:
			err = s.delete(x, params)
		}
		if err != nil {
			return nil, err
		}
		d := time.Since(t0)
		lines[0] += fmt.Sprintf("  (actual rows=%d)", s.lastDML.matched)
		lines = append(lines, fmt.Sprintf("Execution: scanned=%d matched=%d time=%s",
			s.lastDML.scanned, s.lastDML.matched, d.Round(time.Microsecond)))
	}
	return lines, nil
}

// cachedPlan fetches q's plan from the shared cache — under key when the
// caller precomputed one, under q's deparse otherwise — charging the plan
// phase.
func (s *Session) cachedPlan(q *sqlast.Query, key string, opts plan.Options) (*plan.Plan, error) {
	tPlan := time.Now()
	var p *plan.Plan
	var err error
	if key != "" {
		p, err = s.sh.cache.GetByText(s.cur.cat, key, q, opts)
	} else {
		p, err = s.sh.cache.Get(s.cur.cat, q, opts)
	}
	s.counters.PlanNS += time.Since(tPlan).Nanoseconds()
	return p, err
}

// streamQuery plans one of the statement's own queries and streams it
// into the sink pair. The caller holds the read pin and owns error
// bookkeeping.
func (s *Session) streamQuery(q *sqlast.Query, key string, params []sqltypes.Value, begin func([]string) error, batch func(*exec.Batch) error) error {
	p, err := s.cachedPlan(q, key, s.planOpts())
	if err != nil {
		return err
	}
	s.notePlan(p)
	_, err = s.execPlan(p, params, false, begin, batch)
	return err
}

// execPlan is the one place a statement's plan becomes rows:
// ExecutorStart (a tree from the session's pool, instantiated only when it
// has none for the plan), ExecutorRun (stream every batch into the sink
// pair) and ExecutorEnd (shut down, and back to the pool), each charged to
// its Table 1 bucket. With analyze the per-node instrumentation shims ride
// along on a tree built for this run alone, and the Analyzer that renders
// their actuals is returned.
func (s *Session) execPlan(p *plan.Plan, params []sqltypes.Value, analyze bool, begin func([]string) error, batch func(*exec.Batch) error) (*exec.Analyzer, error) {
	if p.NumParams > len(params) {
		return nil, fmt.Errorf("engine: query needs %d parameters, got %d", p.NumParams, len(params))
	}
	tStart := time.Now()
	var ctx exec.Ctx
	s.bindCtx(&ctx)
	ctx.Params = params
	var ex *exec.Executor
	var ana *exec.Analyzer
	var err error
	if analyze {
		own := ctx // the analyzed executor keeps its context
		ex, ana, err = exec.InstantiateAnalyzed(p, &own)
	} else {
		ex, err = s.pool.Get(p, &ctx)
	}
	if s.sh.prof.StartPenalty > 0 {
		profile.Spin(s.sh.prof.StartPenalty * p.NodeCount)
	}
	s.counters.ExecStartNS += time.Since(tStart).Nanoseconds()
	s.counters.ExecutorStarts++
	if err != nil {
		return nil, err
	}
	if err := begin(p.Cols); err != nil {
		ex.Shutdown()
		return nil, err
	}

	tRun := time.Now()
	runErr := ex.Stream(batch)
	s.counters.ExecRunNS += time.Since(tRun).Nanoseconds()
	s.counters.QueriesRun++

	tEnd := time.Now()
	if analyze {
		ex.Shutdown()
	} else {
		s.pool.Put(ex, runErr == nil)
	}
	s.counters.ExecEndNS += time.Since(tEnd).Nanoseconds()
	return ana, runErr
}

// loggedDDL applies one DDL mutation and, on success, records its WAL
// entry (deparsed statement text; functions travel structured) so the
// commit record carries the catalog delta for replay.
func (s *Session) loggedDDL(stmt sqlast.Statement, fn func() error) error {
	if err := fn(); err != nil {
		return err
	}
	if s.sh.wal != nil {
		s.logDDLEntry(ddlEntry(stmt))
	}
	return nil
}

// logDDLEntry buffers one catalog delta on the in-flight commit —
// the statement's own (autocommit) or the open transaction block's.
func (s *Session) logDDLEntry(ent wal.DDLEntry) {
	if s.txn.active {
		s.txn.ddlLog = append(s.txn.ddlLog, ent)
	} else {
		s.pendingDDL = append(s.pendingDDL, ent)
	}
}

// ddlEntry serializes one DDL statement for the WAL.
func ddlEntry(stmt sqlast.Statement) wal.DDLEntry {
	if cf, ok := stmt.(*sqlast.CreateFunction); ok {
		return wal.DDLEntry{Fn: functionEntryFromStmt(cf)}
	}
	return wal.DDLEntry{SQL: sqlast.Deparse(stmt)}
}

// applyCreateTable applies a CREATE TABLE statement to cat — shared by
// the statement dispatch and WAL replay.
func applyCreateTable(cat *catalog.Catalog, stmt *sqlast.CreateTable) error {
	cols := make([]catalog.Column, len(stmt.Cols))
	for i, c := range stmt.Cols {
		t, err := sqltypes.ParseType(c.TypeName)
		if err != nil {
			return fmt.Errorf("engine: column %s: %w", c.Name, err)
		}
		cols[i] = catalog.Column{Name: c.Name, Type: t}
	}
	_, err := cat.CreateTable(stmt.Name, cols, stmt.IfNotExists)
	return err
}

// applyCreateFunction applies a CREATE FUNCTION statement to cat —
// shared by the statement dispatch and WAL replay.
func applyCreateFunction(cat *catalog.Catalog, e *Engine, stmt *sqlast.CreateFunction) error {
	switch strings.ToLower(stmt.Language) {
	case "plpgsql":
		if !e.prof.AllowPLpgSQL {
			return fmt.Errorf("engine: %s has no PL/SQL support — compile the function away instead (paper §3)", e.prof.Name)
		}
		f, err := plparser.ParseFunction(stmt)
		if err != nil {
			return err
		}
		return cat.CreateFunction(&catalog.Function{
			Name:       stmt.Name,
			Params:     f.Params,
			ReturnType: f.ReturnType,
			Kind:       catalog.FuncPLpgSQL,
			PL:         f,
			// Interpreted bodies run arbitrary statements; treat them as
			// volatile so the planner never inlines or reorders them.
			Volatile: true,
		}, stmt.OrReplace)
	case "sql":
		q, err := sqlparser.ParseQuery(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(stmt.Body), ";")))
		if err != nil {
			return fmt.Errorf("engine: SQL function %s body: %w", stmt.Name, err)
		}
		params := make([]plast.Param, len(stmt.Params))
		for i, p := range stmt.Params {
			t, err := sqltypes.ParseType(p.TypeName)
			if err != nil {
				return fmt.Errorf("engine: parameter %s: %w", p.Name, err)
			}
			params[i] = plast.Param{Name: strings.ToLower(p.Name), Type: t}
		}
		rt, err := sqltypes.ParseType(stmt.ReturnType)
		if err != nil {
			return err
		}
		return cat.CreateFunction(&catalog.Function{
			Name:       stmt.Name,
			Params:     params,
			ReturnType: rt,
			Kind:       catalog.FuncSQL,
			SQLBody:    q,
			Volatile:   cat.QueryVolatile(q),
		}, stmt.OrReplace)
	default:
		return fmt.Errorf("engine: unsupported language %q", stmt.Language)
	}
}

func (s *Session) insert(stmt *sqlast.Insert, params []sqltypes.Value) error {
	tbl, ok := s.cur.cat.Table(stmt.Table)
	if !ok {
		return fmt.Errorf("engine: relation %q does not exist", stmt.Table)
	}
	var res collector
	if err := s.streamQuery(stmt.Query, "", params, res.begin, res.batch); err != nil {
		return err
	}
	colIdx := make([]int, 0, len(tbl.Cols))
	if len(stmt.Cols) == 0 {
		for i := range tbl.Cols {
			colIdx = append(colIdx, i)
		}
	} else {
		for _, c := range stmt.Cols {
			i := tbl.ColIndex(c)
			if i < 0 {
				return fmt.Errorf("engine: column %q of relation %q does not exist", c, stmt.Table)
			}
			colIdx = append(colIdx, i)
		}
	}
	// Buffer every row before touching the heap: a cast error aborts the
	// whole statement with nothing inserted, and the single Commit stamps
	// all rows with this statement's commit timestamp — concurrent readers
	// see all of them or none.
	added := make([]storage.Tuple, 0, len(res.res.Rows))
	for _, row := range res.res.Rows {
		if len(row) != len(colIdx) {
			return fmt.Errorf("engine: INSERT has %d expressions but %d target columns", len(row), len(colIdx))
		}
		out := make(storage.Tuple, len(tbl.Cols))
		for i := range out {
			out[i] = sqltypes.Null
		}
		for i, v := range row {
			cast, err := sqltypes.Cast(v, tbl.Cols[colIdx[i]].Type)
			if err != nil {
				return fmt.Errorf("engine: column %s: %w", tbl.Cols[colIdx[i]].Name, err)
			}
			out[colIdx[i]] = cast
		}
		added = append(added, out)
	}
	if len(added) == 0 {
		return nil
	}
	s.applyWrite(tbl, nil, nil, added)
	return nil
}

// writeView is the row set a writer statement (UPDATE/DELETE) evaluates
// its predicate over: the base versions visible at the pinned snapshot
// plus, inside a transaction block, the block's own buffered inserts.
// Base rows the block already deleted are kept (so vidx/rows stay the
// heap snapshot's own slices, position-aligned with Index.Probe results)
// and skipped via dead during iteration.
type writeView struct {
	vidx      []int           // base version indices
	rows      []storage.Tuple // base rows, parallel to vidx (the snapshot's slice)
	dead      map[int]bool    // txn-buffered deletes to skip, keyed by vidx (nil outside a block)
	addedIdx  []int           // overlay Added indices (txn-buffered rows)
	addedRows []storage.Tuple // buffered rows, parallel to addedIdx
}

func (s *Session) writeView(h *storage.Heap) (writeView, error) {
	vidx, rows, err := h.VersionsAt(s.cur.ts)
	if err != nil {
		return writeView{}, err
	}
	v := writeView{vidx: vidx, rows: rows}
	if !s.txn.active {
		return v, nil
	}
	w := s.txn.writes[h]
	if w == nil {
		return v, nil
	}
	v.dead = w.Dead
	for i, t := range w.Added {
		if t != nil {
			v.addedIdx = append(v.addedIdx, i)
			v.addedRows = append(v.addedRows, t)
		}
	}
	return v, nil
}

// dmlStats records the last writer statement's scan shape — EXPLAIN
// ANALYZE of an UPDATE/DELETE reports these as its actuals.
type dmlStats struct {
	scanned int64 // candidate rows the predicate ran over
	matched int64 // rows rewritten or deleted
	index   bool  // candidates came from an index probe
}

// dmlCandidates picks a writer statement's access path: when the WHERE
// clause carries an equality on a declared-index column, the candidate
// positions come from Index.Probe on the statement's snapshot instead of
// the full scan, and the returned predicate shrinks to the residual
// conjuncts (nil when the equality covers the whole clause). Falls back
// to the sequential scan with the full predicate when no index applies
// or the probe's rows are not the writer view's own snapshot slice
// (position alignment is what makes probe hits usable as vidx indices).
func (s *Session) dmlCandidates(tbl *catalog.Table, whereExpr plan.Expr, pred *exec.ExprState, ctx *exec.Ctx, view writeView) (cands []int, basePred *exec.ExprState, usedIndex bool, err error) {
	seq := func() ([]int, *exec.ExprState, bool, error) {
		pos := make([]int, len(view.rows))
		for i := range pos {
			pos[i] = i
		}
		return pos, pred, false, nil
	}
	access := plan.SelectDMLAccess(tbl, whereExpr)
	if access == nil {
		return seq()
	}
	keyState, err := exec.InstantiateExpr(access.Key)
	if err != nil {
		return nil, nil, false, err
	}
	key, err := keyState.Eval(ctx, nil) // row-independent by construction
	if err != nil {
		return nil, nil, false, err
	}
	hits, prows, err := access.Index.Probe(tbl, key, s.cur.ts)
	if err != nil {
		return nil, nil, false, err
	}
	if len(prows) != len(view.rows) || (len(prows) > 0 && &prows[0] != &view.rows[0]) {
		return seq() // snapshot cache churned between the view and the probe
	}
	var residual *exec.ExprState
	if access.Residual != nil {
		residual, err = exec.InstantiateExpr(access.Residual)
		if err != nil {
			return nil, nil, false, err
		}
	}
	return hits, residual, true, nil
}

// applyWrite lands one writer statement's row changes on tbl's heap:
// buffered on the statement's pending set in autocommit (commitOnce logs
// and applies everything with the statement's timestamp), buffered in
// the transaction's overlay inside a block (dead base versions,
// tombstoned buffered rows, appended inserts).
func (s *Session) applyWrite(tbl *catalog.Table, dead, deadAdded []int, added []storage.Tuple) {
	if s.txn.active {
		if len(dead)+len(deadAdded)+len(added) == 0 {
			return
		}
		w := s.txnWrites(tbl)
		for _, vi := range dead {
			w.Dead[vi] = true
		}
		for _, ai := range deadAdded {
			w.Added[ai] = nil
		}
		w.Added = append(w.Added, added...)
		return
	}
	if len(dead)+len(added) == 0 {
		return // no-match fast path: nothing rewritten, nothing committed
	}
	s.pendingWrites = append(s.pendingWrites, pendingWrite{tbl: tbl, dead: dead, added: added})
}

// update is MVCC UPDATE: rows matching the predicate get their current
// version marked dead and a fresh version appended, both stamped with
// this statement's commit timestamp; rows the predicate misses are not
// touched at all — no copy, no re-encode, no commit when nothing matched.
// When the WHERE clause covers a declared index, the candidate rows come
// from an index probe instead of the full scan (see dmlCandidates).
func (s *Session) update(stmt *sqlast.Update, params []sqltypes.Value) error {
	tbl, ok := s.cur.cat.Table(stmt.Table)
	if !ok {
		return fmt.Errorf("engine: relation %q does not exist", stmt.Table)
	}
	alias := stmt.Alias
	if alias == "" {
		alias = stmt.Table
	}
	pred, setters, whereExpr, err := s.compileRowClauses(tbl, alias, stmt.Where, stmt.Sets)
	if err != nil {
		return err
	}
	view, err := s.writeView(tbl.Heap)
	if err != nil {
		return err
	}
	ctx := s.newCtx()
	ctx.Params = params
	cands, basePred, usedIndex, err := s.dmlCandidates(tbl, whereExpr, pred, ctx, view)
	if err != nil {
		return err
	}
	st := dmlStats{index: usedIndex}
	// rewrite evaluates a predicate and the SET clauses against one row,
	// returning the replacement row when the predicate matched. Base rows
	// from an index probe check only the residual; buffered overlay rows
	// were never probed and check the full predicate.
	rewrite := func(row storage.Tuple, p *exec.ExprState) (storage.Tuple, bool, error) {
		if p != nil {
			v, err := p.Eval(ctx, row)
			if err != nil {
				return nil, false, err
			}
			if !v.IsTrue() {
				return nil, false, nil
			}
		}
		out := append(storage.Tuple(nil), row...)
		for _, set := range setters {
			v, err := set.expr.Eval(ctx, row)
			if err != nil {
				return nil, false, err
			}
			cast, err := sqltypes.Cast(v, tbl.Cols[set.col].Type)
			if err != nil {
				return nil, false, err
			}
			out[set.col] = cast
		}
		return out, true, nil
	}
	var dead, deadAdded []int
	var added []storage.Tuple
	for _, i := range cands {
		vi := view.vidx[i]
		if view.dead[vi] {
			continue // already deleted by this transaction
		}
		st.scanned++
		out, match, err := rewrite(view.rows[i], basePred)
		if err != nil {
			return err
		}
		if match {
			dead = append(dead, vi)
			added = append(added, out)
		}
	}
	for i, row := range view.addedRows {
		st.scanned++
		out, match, err := rewrite(row, pred)
		if err != nil {
			return err
		}
		if match {
			deadAdded = append(deadAdded, view.addedIdx[i])
			added = append(added, out)
		}
	}
	st.matched = int64(len(dead) + len(deadAdded))
	s.lastDML = st
	s.applyWrite(tbl, dead, deadAdded, added)
	return nil
}

// delete is MVCC DELETE: matched versions are marked dead at this
// statement's commit timestamp; surviving rows are untouched. Shares
// UPDATE's index-probe access path.
func (s *Session) delete(stmt *sqlast.Delete, params []sqltypes.Value) error {
	tbl, ok := s.cur.cat.Table(stmt.Table)
	if !ok {
		return fmt.Errorf("engine: relation %q does not exist", stmt.Table)
	}
	alias := stmt.Alias
	if alias == "" {
		alias = stmt.Table
	}
	pred, _, whereExpr, err := s.compileRowClauses(tbl, alias, stmt.Where, nil)
	if err != nil {
		return err
	}
	view, err := s.writeView(tbl.Heap)
	if err != nil {
		return err
	}
	ctx := s.newCtx()
	ctx.Params = params
	cands, basePred, usedIndex, err := s.dmlCandidates(tbl, whereExpr, pred, ctx, view)
	if err != nil {
		return err
	}
	st := dmlStats{index: usedIndex}
	matches := func(row storage.Tuple, p *exec.ExprState) (bool, error) {
		if p == nil {
			return true, nil
		}
		v, err := p.Eval(ctx, row)
		if err != nil {
			return false, err
		}
		return v.IsTrue(), nil
	}
	var dead, deadAdded []int
	for _, i := range cands {
		vi := view.vidx[i]
		if view.dead[vi] {
			continue
		}
		st.scanned++
		m, err := matches(view.rows[i], basePred)
		if err != nil {
			return err
		}
		if m {
			dead = append(dead, vi)
		}
	}
	for i, row := range view.addedRows {
		st.scanned++
		m, err := matches(row, pred)
		if err != nil {
			return err
		}
		if m {
			deadAdded = append(deadAdded, view.addedIdx[i])
		}
	}
	st.matched = int64(len(dead) + len(deadAdded))
	s.lastDML = st
	s.applyWrite(tbl, dead, deadAdded, nil)
	return nil
}

type setter struct {
	col  int
	expr *exec.ExprState
}

// compileRowClauses binds a WHERE predicate and SET expressions against the
// table's row (UPDATE/DELETE run outside the planner: a direct row loop).
// The bound WHERE expression is also returned in plan form so the caller
// can pick an index-probe access path off its conjuncts.
func (s *Session) compileRowClauses(tbl *catalog.Table, alias string, where sqlast.Expr, sets []sqlast.SetClause) (*exec.ExprState, []setter, plan.Expr, error) {
	sel := &sqlast.Select{From: []sqlast.FromItem{&sqlast.TableRef{Name: tbl.Name, Alias: alias}}}
	items := []sqlast.Expr{}
	if where != nil {
		items = append(items, where)
	}
	for _, sc := range sets {
		items = append(items, sc.Expr)
	}
	for _, it := range items {
		sel.Items = append(sel.Items, sqlast.SelectItem{Expr: it})
	}
	if len(sel.Items) == 0 {
		return nil, nil, nil, nil
	}
	q, opts := sqlast.WrapQuery(sel), s.planOpts()
	p, err := plan.Build(s.cur.cat, q, opts)
	if err != nil {
		return nil, nil, nil, err
	}
	if proj, ok := p.Root.(*plan.Project); ok && opts.Skip&plan.PassInline == 0 {
		if _, scan := proj.Child.(*plan.SeqScan); !scan {
			// Inlining moved a call's body into operators below the
			// projection (an Apply, a hash join). The clauses are evaluated
			// one stored row at a time, so keep the calls opaque instead.
			opts.Skip |= plan.PassInline
			if p, err = plan.Build(s.cur.cat, q, opts); err != nil {
				return nil, nil, nil, err
			}
		}
	}
	proj, ok := p.Root.(*plan.Project)
	if !ok {
		return nil, nil, nil, fmt.Errorf("engine: unexpected UPDATE plan shape %T", p.Root)
	}
	var pred *exec.ExprState
	var whereExpr plan.Expr
	idx := 0
	if where != nil {
		whereExpr = proj.Exprs[idx]
		pred, err = exec.InstantiateExpr(whereExpr)
		if err != nil {
			return nil, nil, nil, err
		}
		idx++
	}
	var setters []setter
	for _, sc := range sets {
		ci := tbl.ColIndex(sc.Col)
		if ci < 0 {
			return nil, nil, nil, fmt.Errorf("engine: column %q of relation %q does not exist", sc.Col, tbl.Name)
		}
		es, err := exec.InstantiateExpr(proj.Exprs[idx])
		if err != nil {
			return nil, nil, nil, err
		}
		setters = append(setters, setter{col: ci, expr: es})
		idx++
	}
	return pred, setters, whereExpr, nil
}
