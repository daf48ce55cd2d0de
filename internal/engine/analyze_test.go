package engine

// EXPLAIN ANALYZE and observability suite: golden renders of the
// annotated plan tree (times stripped — actual row counts and batch
// counts are deterministic, wall time is not), a differential pinning
// that ANALYZE'd execution is a faithful run (identical results and
// volatile draw order afterwards), the metrics registry end-to-end with
// concurrent sessions, the slow-query log, and the WAL-size
// auto-checkpoint trigger.

import (
	"fmt"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"plsqlaway/internal/obs"
	"plsqlaway/internal/sqltypes"
)

// analyzeTimeRe strips the wall-time suffix from per-node annotations;
// analyzeExecRe does the same for the Execution summary line.
var (
	analyzeTimeRe = regexp.MustCompile(` time=[^)]*\)`)
	analyzeExecRe = regexp.MustCompile(`time=\S+`)
)

func stripAnalyzeTimes(s string) string {
	s = analyzeTimeRe.ReplaceAllString(s, ")")
	return analyzeExecRe.ReplaceAllString(s, "time=X")
}

// TestExplainAnalyzeGoldenInlined pins the annotated render of the
// decorrelated inlined plan: the lookup UDF became a hash join whose
// build side (policy, 4 rows) and probe side (seq, 30 rows) both carry
// actuals, and the Filter-less tree reports rows flowing bottom-up.
func TestExplainAnalyzeGoldenInlined(t *testing.T) {
	s := newInlineTestEngine(t).NewSession()
	installCompiledLookup(t, s, testActionOf)
	got := stripAnalyzeTimes(renderRows(t, s, "EXPLAIN ANALYZE SELECT count(action_of(coord(n % 2, n % 2))) FROM seq"))
	want := strings.TrimLeft(`
Plan (nodes=6 inlined=1 specialized=0 looped=0)
Project [#0]  (actual rows=1 batches=1)
  Agg [count(#1)]  (actual rows=1 batches=1)
    HashJoin (left, single-row, static build, keys [coord[(#0 % 2), (#0 % 2)]] = [#1], residual (coord[(#0 % 2), (#0 % 2)] = #2))  (actual rows=30 batches=1 build=4)
      SeqScan seq  (actual rows=30 batches=1)
      Project [#1, #0]  (actual rows=4 batches=1)
        SeqScan policy  (actual rows=4 batches=1)
Execution: rows=1 time=X
`, "\n")
	if got != want {
		t.Errorf("inlined EXPLAIN ANALYZE:\ngot:\n%s\nwant:\n%s", got, want)
	}
}

// TestExplainAnalyzeGoldenOpaque pins the opaque regime: the call stays
// a per-row UDF expression, so the tree is just the aggregate over the
// scan — and the actuals expose the per-row batch clamp (30 single-row
// batches where the inlined plan moved all 30 rows in one).
func TestExplainAnalyzeGoldenOpaque(t *testing.T) {
	s := newInlineTestEngine(t).NewSession()
	installCompiledLookup(t, s, testActionOf)
	s.SetInlining(false)
	defer s.SetInlining(true)
	got := stripAnalyzeTimes(renderRows(t, s, "EXPLAIN ANALYZE SELECT count(action_of(coord(n % 2, n % 2))) FROM seq"))
	want := strings.TrimLeft(`
Plan (nodes=3 inlined=0 specialized=0 looped=0)
Project [#0]  (actual rows=1 batches=1)
  Agg [count(udf:action_of[coord[(#0 % 2), (#0 % 2)]])]  (actual rows=1 batches=1)
    SeqScan seq  (actual rows=30 batches=30)
Execution: rows=1 time=X
`, "\n")
	if got != want {
		t.Errorf("opaque EXPLAIN ANALYZE:\ngot:\n%s\nwant:\n%s", got, want)
	}
}

// TestExplainAnalyzeFilterSurvival pins the Filter annotation's in=
// field: rows in from the child vs rows out, the selection-vector
// survival rate.
func TestExplainAnalyzeFilterSurvival(t *testing.T) {
	s := newInlineTestEngine(t).NewSession()
	got := stripAnalyzeTimes(renderRows(t, s, "EXPLAIN ANALYZE SELECT n FROM seq WHERE n % 3 = 0"))
	if !strings.Contains(got, "(actual rows=10 batches=1 in=30)") {
		t.Errorf("filter annotation should report 10 survivors of 30 inputs:\n%s", got)
	}
}

// TestExplainAnalyzeNeverExecuted pins the (never executed) marker: a
// LIMIT that is satisfied before its child's later branches run leaves
// untouched nodes marked instead of showing zero actuals. An Append
// whose second arm is never pulled is the canonical shape.
func TestExplainAnalyzeNeverExecuted(t *testing.T) {
	s := newInlineTestEngine(t).NewSession()
	out := renderRows(t, s, "EXPLAIN ANALYZE SELECT n FROM seq UNION ALL SELECT n FROM seq LIMIT 3")
	if !strings.Contains(out, "(never executed)") {
		t.Errorf("expected a (never executed) node under a satisfied LIMIT:\n%s", out)
	}
}

// TestExplainAnalyzeDifferential is the faithfulness contract: an
// ANALYZE'd execution must return the same answer a plain run does, and
// must advance the session's volatile random stream exactly as a plain
// run would — so a volatile query after EXPLAIN ANALYZE q draws the
// same values as after SELECT q.
func TestExplainAnalyzeDifferential(t *testing.T) {
	mk := func() *Session {
		s := newInlineTestEngine(t).NewSession()
		if err := s.Exec("CREATE FUNCTION noisy(a int) RETURNS float AS $$ SELECT random() + a $$ LANGUAGE sql"); err != nil {
			t.Fatal(err)
		}
		return s
	}
	q := "SELECT noisy(n) FROM seq WHERE n <= 5"

	// Session A: EXPLAIN ANALYZE q, then q. Session B: q, then q.
	a, b := mk(), mk()
	if _, err := a.Query("SELECT setseed(0.7)"); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Query("SELECT setseed(0.7)"); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Query("EXPLAIN ANALYZE " + q); err != nil {
		t.Fatal(err)
	}
	bFirst := renderRows(t, b, q)
	aSecond := renderRows(t, a, q)
	bSecond := renderRows(t, b, q)
	if aSecond != bSecond {
		t.Errorf("EXPLAIN ANALYZE desynchronized the volatile draw order:\nafter analyze:\n%s\nafter select:\n%s", aSecond, bSecond)
	}
	if bFirst == bSecond {
		t.Fatalf("test vacuous: consecutive volatile draws were identical:\n%s", bFirst)
	}

	// And deterministic queries answer identically with and without the
	// instrumentation in the tree (the analyzed run's row count is in the
	// Execution summary).
	for _, dq := range []string{
		"SELECT sum(inc(n)) FROM seq",
		"SELECT n FROM seq WHERE n % 3 = 0 ORDER BY n",
	} {
		plain := renderRows(t, a, dq)
		analyzed := renderRows(t, a, "EXPLAIN ANALYZE "+dq)
		wantRows := strings.Count(plain, "\n")
		if !strings.Contains(analyzed, fmt.Sprintf("Execution: rows=%d", wantRows)) {
			t.Errorf("%s: analyzed run saw different rows:\nplain (%d rows):\n%s\nanalyzed:\n%s", dq, wantRows, plain, analyzed)
		}
	}
}

// TestExplainAnalyzeParams pins parameter handling: ANALYZE executes for
// real, so a parameterized query needs its arguments.
func TestExplainAnalyzeParams(t *testing.T) {
	s := newInlineTestEngine(t).NewSession()
	p, err := s.Prepare("EXPLAIN ANALYZE SELECT n FROM seq WHERE n > $1")
	if err != nil {
		t.Fatal(err)
	}
	res, err := p.Query(sqltypes.NewInt(25))
	if err != nil {
		t.Fatal(err)
	}
	out := renderResult(res)
	if !strings.Contains(out, "rows=5") {
		t.Errorf("parameterized ANALYZE should see 5 qualifying rows:\n%s", out)
	}
	if _, err := s.Query("EXPLAIN ANALYZE SELECT n FROM seq WHERE n > $1"); err == nil {
		t.Error("ANALYZE without required params should fail")
	}
}

// TestEngineMetricsEndToEnd builds an engine with a registry, pushes a
// mixed workload through it, and asserts the key series exist with sane
// values in both the Gather snapshot and the Prometheus text render.
func TestEngineMetricsEndToEnd(t *testing.T) {
	reg := obs.NewRegistry()
	e := New(WithSeed(42), WithMetricsRegistry(reg))
	if e.Metrics() != reg {
		t.Fatal("Engine.Metrics should expose the configured registry")
	}
	s := e.NewSession()
	if err := s.Exec("CREATE TABLE kv (k int, v int)"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if err := s.Exec(fmt.Sprintf("INSERT INTO kv VALUES (%d, %d)", i, i*i)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := s.Query("SELECT sum(v) FROM kv"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Query("SELECT sum(v) FROM kv"); err != nil { // cache hit
		t.Fatal(err)
	}

	var text strings.Builder
	if err := reg.WriteText(&text); err != nil {
		t.Fatal(err)
	}
	out := text.String()
	for _, series := range []string{
		"plsql_engine_statements_total",
		"plsql_engine_statement_seconds_bucket",
		"plsql_engine_phase_ns_total{phase=\"parse\"}",
		"plsql_engine_phase_ns_total{phase=\"plan\"}",
		"plsql_engine_phase_ns_total{phase=\"exec\"}",
		"plsql_storage_commits_total",
		"plsql_plan_cache_hits_total",
		"plsql_plan_cache_misses_total",
		"plsql_engine_sessions_total",
	} {
		if !strings.Contains(out, series) {
			t.Errorf("metrics text missing %s:\n%s", series, out)
		}
	}

	value := func(name string) float64 {
		for _, m := range reg.Gather() {
			if m.Name == name {
				for _, smp := range m.Samples {
					if smp.Value != nil {
						return *smp.Value
					}
				}
			}
		}
		return -1
	}
	if v := value("plsql_engine_statements_total"); v < 13 {
		t.Errorf("statements_total = %v, want ≥ 13", v)
	}
	if v := value("plsql_storage_commits_total"); v < 10 {
		t.Errorf("commits_total = %v, want ≥ 10", v)
	}
	if v := value("plsql_plan_cache_hits_total"); v < 1 {
		t.Errorf("cache_hits_total = %v, want ≥ 1", v)
	}
	// Exactly the sessions this test opened: the engine keeps none of
	// its own.
	if v := value("plsql_engine_sessions_total"); v != 1 {
		t.Errorf("sessions_total = %v, want 1", v)
	}
}

// TestMetricsConcurrentSessions hammers one shared registry from many
// sessions at once — the lock-freedom contract (run under -race in CI).
func TestMetricsConcurrentSessions(t *testing.T) {
	reg := obs.NewRegistry()
	e := New(WithSeed(42), WithMetricsRegistry(reg), WithSlowQuery(time.Nanosecond, func(string, ...any) {}))
	if err := e.NewSession().Exec("CREATE TABLE nums (n int); INSERT INTO nums VALUES (1), (2), (3)"); err != nil {
		t.Fatal(err)
	}
	const sessions = 8
	var wg sync.WaitGroup
	errs := make(chan error, sessions)
	for i := 0; i < sessions; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s := e.NewSession()
			for j := 0; j < 50; j++ {
				if _, err := s.Query("SELECT sum(n) FROM nums"); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	// Concurrent scrapes while the sessions run.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 20; i++ {
			var sb strings.Builder
			if err := reg.WriteText(&sb); err != nil {
				errs <- err
				return
			}
			reg.Gather()
		}
	}()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	var total float64
	for _, m := range reg.Gather() {
		if m.Name == "plsql_engine_statements_total" {
			total = *m.Samples[0].Value
		}
	}
	if total < sessions*50 {
		t.Errorf("statements_total = %v, want ≥ %d", total, sessions*50)
	}
}

// TestSlowQueryLog pins the structured slow-query line: phase timings,
// plan-shape counters, and the SQL text, emitted only past the
// threshold.
func TestSlowQueryLog(t *testing.T) {
	var mu sync.Mutex
	var lines []string
	logf := func(format string, args ...any) {
		mu.Lock()
		lines = append(lines, fmt.Sprintf(format, args...))
		mu.Unlock()
	}
	s := New(WithSeed(42), WithSlowQuery(time.Nanosecond, logf)).NewSession()
	if err := s.Exec("CREATE TABLE t (n int); INSERT INTO t VALUES (1)"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Query("SELECT n FROM t"); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	found := false
	re := regexp.MustCompile(`^slow query: time=\S+ plan=\S+ exec=\S+ nodes=\d+ inlined=\d+ specialized=\d+ sql="SELECT n FROM t"$`)
	for _, l := range lines {
		if re.MatchString(l) {
			found = true
		}
	}
	if !found {
		t.Errorf("no slow-query line matched %v in:\n%s", re, strings.Join(lines, "\n"))
	}

	// Above-threshold only: a high threshold logs nothing.
	lines = nil
	quiet := New(WithSeed(42), WithSlowQuery(time.Hour, logf)).NewSession()
	if err := quiet.Exec("CREATE TABLE t (n int)"); err != nil {
		t.Fatal(err)
	}
	if len(lines) != 0 {
		t.Errorf("sub-threshold statements must not log, got:\n%s", strings.Join(lines, "\n"))
	}
}

// TestAutoCheckpointBySize pins the WAL-size trigger: with a tiny bound,
// commits force checkpoints (reason "size"), the log stays short, and
// the data survives reopen.
func TestAutoCheckpointBySize(t *testing.T) {
	dir := t.TempDir()
	reg := obs.NewRegistry()
	e := openT(t, dir, WithSeed(42), WithCheckpointBytes(1024), WithMetricsRegistry(reg))
	s := e.NewSession()
	if err := s.Exec("CREATE TABLE t (n int, pad text)"); err != nil {
		t.Fatal(err)
	}
	pad := strings.Repeat("x", 128)
	for i := 0; i < 64; i++ {
		if err := s.Exec(fmt.Sprintf("INSERT INTO t VALUES (%d, '%s')", i, pad)); err != nil {
			t.Fatal(err)
		}
	}
	if n := e.StorageStats().Checkpoints; n < 2 {
		t.Errorf("expected ≥ 2 auto-checkpoints under a 1KiB bound, got %d", n)
	}
	var sized float64
	for _, m := range reg.Gather() {
		if m.Name == "plsql_checkpoints_triggered_total" {
			for _, smp := range m.Samples {
				if smp.Label == "size" {
					sized = *smp.Value
				}
			}
		}
	}
	if sized < 2 {
		t.Errorf("checkpoints_triggered_total{reason=\"size\"} = %v, want ≥ 2", sized)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	e2 := openT(t, dir)
	s2 := e2.NewSession()
	defer e2.Close()
	if got := queryInt(t, s2, "SELECT count(*) FROM t"); got != 64 {
		t.Errorf("after auto-checkpointed run: count(*) = %d, want 64", got)
	}
}

// renderResult formats a Result the way renderRows does, for call sites
// that already hold one.
func renderResult(r *Result) string {
	var sb strings.Builder
	for _, row := range r.Rows {
		for i, v := range row {
			if i > 0 {
				sb.WriteByte('\t')
			}
			sb.WriteString(v.String())
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}
