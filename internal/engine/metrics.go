// Engine-side observability: the handle bundle published into a shared
// obs.Registry, per-statement accounting, the slow-query log, and the
// WAL-size auto-checkpoint trigger. Everything here is dormant unless
// the engine was built with WithMetricsRegistry / WithSlowQuery /
// WithCheckpointBytes — the uninstrumented paths check one nil pointer
// and move on.

package engine

import (
	"sync/atomic"
	"time"

	"plsqlaway/internal/obs"
	"plsqlaway/internal/plan"
	"plsqlaway/internal/sqlast"
	"plsqlaway/internal/sqlparser"
)

// metrics holds the pre-resolved handles the engine's hot paths bump —
// resolved once at engine construction so a statement never touches the
// registry's map or lock.
type metrics struct {
	reg *obs.Registry

	// Cumulative nanoseconds per query phase (parse/plan/exec/commit).
	phaseParse  *obs.Counter
	phasePlan   *obs.Counter
	phaseExec   *obs.Counter
	phaseCommit *obs.Counter

	statements  *obs.Counter
	stmtSeconds *obs.Histogram
	conflicts   *obs.Counter
	slowQueries *obs.Counter
	sessions    *obs.Counter

	checkpoints *obs.CounterVec // by trigger reason: manual/size/shutdown/recovery

	walFsyncSeconds *obs.Histogram
	walBatchRecords *obs.Histogram
}

// newMetrics registers the engine's metric families in reg and wires the
// pull-style collectors (storage counters, plan-cache stats) as Func
// metrics — those read their sources on scrape, costing the hot path
// nothing. Registration is upsert: several engines may share one registry
// (the bench harness does), with counters/histograms accumulating across
// them and Func collectors rebinding to the latest engine.
func newMetrics(reg *obs.Registry, e *Engine) *metrics {
	m := &metrics{
		reg:             reg,
		statements:      reg.Counter("plsql_engine_statements_total", "Statements executed (all kinds)."),
		stmtSeconds:     reg.Histogram("plsql_engine_statement_seconds", "Per-statement wall time.", obs.DurationBuckets),
		conflicts:       reg.Counter("plsql_engine_serialization_conflicts_total", "Transactions refused because a concurrent commit moved the tip."),
		slowQueries:     reg.Counter("plsql_engine_slow_queries_total", "Statements that crossed the slow-query threshold."),
		sessions:        reg.Counter("plsql_engine_sessions_total", "Sessions created."),
		checkpoints:     reg.CounterVec("plsql_checkpoints_triggered_total", "Checkpoints by trigger reason.", "reason"),
		walFsyncSeconds: reg.Histogram("plsql_wal_fsync_seconds", "WAL fsync latency.", obs.DurationBuckets),
		walBatchRecords: reg.Histogram("plsql_wal_group_commit_records", "Records made durable per fsync (group-commit batch size).", obs.CountBuckets),
	}
	phases := reg.CounterVec("plsql_engine_phase_ns_total", "Cumulative nanoseconds spent per query phase.", "phase")
	m.phaseParse = phases.With("parse")
	m.phasePlan = phases.With("plan")
	m.phaseExec = phases.With("exec")
	m.phaseCommit = phases.With("commit")

	st := e.storageStats
	stat := func(name, help string, field *int64) {
		reg.CounterFunc(name, help, func() int64 { return atomic.LoadInt64(field) })
	}
	stat("plsql_storage_page_writes_total", "Tuplestore pages flushed past the memory budget.", &st.PageWrites)
	stat("plsql_storage_pages_alloc_total", "Tuplestore pages allocated.", &st.PagesAlloc)
	stat("plsql_storage_tuples_written_total", "Tuples written through tuplestores.", &st.TuplesWritten)
	stat("plsql_storage_bytes_written_total", "Bytes written through tuplestores.", &st.BytesWritten)
	stat("plsql_storage_commits_total", "Heap commit operations applied.", &st.Commits)
	stat("plsql_storage_vacuums_total", "Vacuum passes that reclaimed at least one version.", &st.Vacuums)
	stat("plsql_storage_versions_reclaimed_total", "Dead row versions reclaimed by vacuum.", &st.VersionsReclaimed)
	stat("plsql_wal_records_total", "Records appended to the write-ahead log.", &st.WALRecords)
	stat("plsql_wal_bytes_total", "Framed bytes appended to the write-ahead log.", &st.WALBytes)
	stat("plsql_wal_fsyncs_total", "Fsyncs issued against the log.", &st.WALFsyncs)
	stat("plsql_storage_checkpoints_total", "Checkpoint snapshots written.", &st.Checkpoints)

	cache := e.cache
	reg.CounterFunc("plsql_plan_cache_hits_total", "Plan cache hits.", func() int64 { h, _ := cache.Stats(); return h })
	reg.CounterFunc("plsql_plan_cache_misses_total", "Plan cache misses.", func() int64 { _, mi := cache.Stats(); return mi })
	reg.CounterFunc("plsql_plan_cache_evictions_total", "Plans evicted (capacity or DDL invalidation).", func() int64 { _, _, ev := cache.InlineStats(); return ev })
	reg.CounterFunc("plsql_plan_udf_calls_inlined_total", "UDF calls compiled away into calling queries.", func() int64 { in, _, _ := cache.InlineStats(); return in })
	reg.CounterFunc("plsql_plan_specialized_total", "Constant-specialized call sites.", func() int64 { _, sp, _ := cache.InlineStats(); return sp })
	reg.CounterFunc("plsql_plan_loops_lowered_total", "Recursive CTEs lowered to Loop operators.", cache.LoopStats)
	reg.GaugeFunc("plsql_plan_cache_size", "Plans currently cached.", func() int64 { return int64(cache.Len()) })

	ex := &e.execStats
	reg.CounterFunc("plsql_exec_memo_hits_total", "Loop subplan evaluations replayed from a memo.", ex.MemoHits.Load)
	reg.CounterFunc("plsql_exec_memo_misses_total", "Loop subplan evaluations that ran under a memo.", ex.MemoMisses.Load)
	reg.CounterFunc("plsql_exec_trees_built_total", "Executor trees instantiated from a plan.", ex.TreesBuilt.Load)
	reg.CounterFunc("plsql_exec_trees_reused_total", "Runs served by an executor tree a session kept from an earlier run.", ex.TreesReused.Load)
	return m
}

// instrumented reports whether per-statement accounting is on — the one
// branch uninstrumented statements pay.
func (s *Session) instrumented() bool {
	return s.sh.metrics != nil || s.sh.slowQueryNS > 0
}

// observeStmt wraps one statement execution with the per-statement
// metrics and the slow-query log. Phase attribution rides the session's
// existing profile counters: their deltas across fn are exactly the
// plan / exec time the statement spent. sqlText is only called on the
// slow path, so the fast path never deparses.
func (s *Session) observeStmt(sqlText func() string, fn func() error) error {
	if !s.instrumented() {
		return fn()
	}
	c := s.counters
	planB := c.PlanNS
	execB := c.ExecStartNS + c.ExecRunNS + c.ExecEndNS
	t0 := time.Now()
	err := fn()
	elapsed := time.Since(t0)
	planNS := c.PlanNS - planB
	execNS := c.ExecStartNS + c.ExecRunNS + c.ExecEndNS - execB
	if m := s.sh.metrics; m != nil {
		m.statements.Inc()
		m.stmtSeconds.Observe(elapsed.Seconds())
		m.phasePlan.Add(planNS)
		m.phaseExec.Add(execNS)
	}
	if ns := s.sh.slowQueryNS; ns > 0 && elapsed.Nanoseconds() >= ns {
		s.logSlowQuery(sqlText(), elapsed, planNS, execNS)
	}
	return err
}

// logSlowQuery emits one structured slow-query line through the engine's
// log sink: total and per-phase wall time, the last plan's shape
// counters, and the offending SQL.
func (s *Session) logSlowQuery(sql string, elapsed time.Duration, planNS, execNS int64) {
	if m := s.sh.metrics; m != nil {
		m.slowQueries.Inc()
	}
	logf := s.sh.logf
	if logf == nil {
		return
	}
	var nodes, inlined, specialized int
	if p := s.lastPlan; p != nil {
		nodes, inlined, specialized = p.NodeCount, p.InlinedCalls, p.SpecializedCalls
	}
	logf("slow query: time=%s plan=%s exec=%s nodes=%d inlined=%d specialized=%d sql=%q",
		elapsed.Round(time.Microsecond),
		time.Duration(planNS).Round(time.Microsecond),
		time.Duration(execNS).Round(time.Microsecond),
		nodes, inlined, specialized, sql)
}

// parseStatement / parseScript are the session's parse funnels: the same
// sqlparser entry points, with the parse phase charged when metrics are
// on.
func (s *Session) parseStatement(sql string) (sqlast.Statement, error) {
	m := s.sh.metrics
	if m == nil {
		return sqlparser.ParseStatement(sql)
	}
	t0 := time.Now()
	stmt, err := sqlparser.ParseStatement(sql)
	m.phaseParse.Add(time.Since(t0).Nanoseconds())
	return stmt, err
}

func (s *Session) parseScript(sql string) ([]sqlast.Statement, error) {
	m := s.sh.metrics
	if m == nil {
		return sqlparser.ParseScript(sql)
	}
	t0 := time.Now()
	stmts, err := sqlparser.ParseScript(sql)
	m.phaseParse.Add(time.Since(t0).Nanoseconds())
	return stmts, err
}

// notePlan remembers the statement's plan for the slow-query log's shape
// counters. Free: one pointer store.
func (s *Session) notePlan(p *plan.Plan) { s.lastPlan = p }

// noteCommitPhase charges commit-protocol wall time (lock + log append +
// durability wait) to the commit phase bucket.
func (e *Engine) noteCommitPhase(d time.Duration) {
	if m := e.metrics; m != nil {
		m.phaseCommit.Add(d.Nanoseconds())
	}
}

// noteConflict counts one serialization failure.
func (e *Engine) noteConflict() {
	if m := e.metrics; m != nil {
		m.conflicts.Inc()
	}
}

// noteCheckpoint counts one completed checkpoint under its trigger
// reason.
func (e *Engine) noteCheckpoint(reason string) {
	if m := e.metrics; m != nil {
		m.checkpoints.With(reason).Inc()
	}
}

// maybeAutoCheckpoint fires the WAL-size checkpoint trigger: called after
// each commit's durability wait (outside the commit lock — Checkpoint
// takes it itself), it checkpoints when the log has outgrown the
// configured bound. The CAS gate keeps concurrent committers from
// stacking up redundant checkpoints behind the lock.
func (e *Engine) maybeAutoCheckpoint() {
	limit := e.checkpointBytes
	if limit <= 0 || e.wal == nil || e.wal.Size() < limit {
		return
	}
	if !e.checkpointing.CompareAndSwap(false, true) {
		return
	}
	defer e.checkpointing.Store(false)
	if err := e.checkpoint("size"); err != nil && e.logf != nil {
		e.logf("auto-checkpoint failed: %v", err)
	}
}

// walObservers returns the fsync-latency / group-commit observers to hand
// wal.Open, or nils when metrics are off.
func (e *Engine) walObservers() (fsync func(float64), batch func(int64)) {
	m := e.metrics
	if m == nil {
		return nil, nil
	}
	return func(s float64) { m.walFsyncSeconds.Observe(s) },
		func(n int64) { m.walBatchRecords.Observe(float64(n)) }
}
