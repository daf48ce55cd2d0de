// Package profile holds the run-time counters and engine cost profiles the
// experiments read. The four duration buckets mirror the paper's Table 1
// columns: Exec·Start and Exec·End are the f→Qi context-switch overhead,
// Exec·Run is productive embedded-query evaluation (including PostgreSQL's
// simple-expression fast path), Interp is PL/pgSQL statement dispatch.
package profile

import (
	"fmt"
	"strings"
	"sync/atomic"
	"time"
)

// Counters accumulates phase timings and event counts. Not safe for
// concurrent use: each engine session owns a private instance, so no
// cross-session synchronization is needed on these hot paths.
type Counters struct {
	ExecStartNS int64 // executor tree from the pool (or instantiated) + parameter binding (f→Qi entry)
	ExecRunNS   int64 // pulling rows / fast-path expression evaluation
	ExecEndNS   int64 // executor shutdown, tree back to the pool (f→Qi exit)
	InterpNS    int64 // PL/pgSQL statement dispatch, control flow, assignment
	PlanNS      int64 // parse+plan on cache misses (outside Table 1's columns)

	ExecutorStarts int64
	QueriesRun     int64
	FastPathEvals  int64
	CtxSwitchQF    int64 // Q→f: SQL invoked a PL/pgSQL function
	CtxSwitchFQ    int64 // f→Qi: interpreter evaluated an embedded query
	FuncCalls      int64
	Notices        []string
}

// Reset zeroes all counters.
func (c *Counters) Reset() { *c = Counters{} }

// TotalNS is the sum of all phase buckets.
func (c *Counters) TotalNS() int64 {
	return c.ExecStartNS + c.ExecRunNS + c.ExecEndNS + c.InterpNS + c.PlanNS
}

// Breakdown reports each Table 1 bucket as a percentage of the four-bucket
// total (plan time excluded, as in the paper).
func (c *Counters) Breakdown() (start, run, end, interp float64) {
	total := float64(c.ExecStartNS + c.ExecRunNS + c.ExecEndNS + c.InterpNS)
	if total == 0 {
		return 0, 0, 0, 0
	}
	return 100 * float64(c.ExecStartNS) / total,
		100 * float64(c.ExecRunNS) / total,
		100 * float64(c.ExecEndNS) / total,
		100 * float64(c.InterpNS) / total
}

// String renders a compact summary.
func (c *Counters) String() string {
	s, r, e, i := c.Breakdown()
	return fmt.Sprintf("Exec·Start %.2f%%  Exec·Run %.2f%%  Exec·End %.2f%%  Interp %.2f%%  (starts=%d q=%d fast=%d Q→f=%d f→Q=%d)",
		s, r, e, i, c.ExecutorStarts, c.QueriesRun, c.FastPathEvals, c.CtxSwitchQF, c.CtxSwitchFQ)
}

// Profile is an engine cost/behaviour profile. PostgreSQL is the neutral
// profile (measured directly); Oracle and SQLite are the documented
// simulation substitutes for systems we cannot run offline: Oracle scales
// interpreter and executor-entry costs and coarsens the timer (which blanks
// the lower-left of Figure 11b exactly as in the paper); SQLite has no
// PL/SQL and no LATERAL.
type Profile struct {
	Name string
	// InterpPenalty adds synthetic work units per interpreted statement.
	InterpPenalty int
	// StartPenalty adds synthetic work units per executor start.
	StartPenalty int
	// TimerResolution quantizes reported wall-clock measurements
	// (0 = exact). Measurements below one tick are reported as 0 and the
	// harness omits them, like the paper's Oracle heat map.
	TimerResolution time.Duration
	// DisableLateral rejects LATERAL (SQLite).
	DisableLateral bool
	// AllowPLpgSQL gates CREATE FUNCTION … LANGUAGE plpgsql.
	AllowPLpgSQL bool
}

// The built-in profiles.
var (
	PostgreSQL = Profile{Name: "postgresql", AllowPLpgSQL: true}
	Oracle     = Profile{Name: "oracle", InterpPenalty: 220, StartPenalty: 80,
		TimerResolution: 10 * time.Millisecond, AllowPLpgSQL: true}
	SQLite = Profile{Name: "sqlite", DisableLateral: true, AllowPLpgSQL: false}
)

// ByName resolves a profile name.
func ByName(name string) (Profile, error) {
	switch strings.ToLower(name) {
	case "", "postgres", "postgresql", "pg":
		return PostgreSQL, nil
	case "oracle", "ora":
		return Oracle, nil
	case "sqlite", "sqlite3", "lite":
		return SQLite, nil
	default:
		return Profile{}, fmt.Errorf("profile: unknown engine profile %q", name)
	}
}

// Quantize rounds d down to the profile's timer resolution.
func (p Profile) Quantize(d time.Duration) time.Duration {
	if p.TimerResolution <= 0 {
		return d
	}
	return d / p.TimerResolution * p.TimerResolution
}

// spinSink defeats dead-code elimination of Spin. Accessed atomically:
// concurrent sessions under the Oracle profile spin in parallel.
var spinSink atomic.Uint64

// Spin performs n units of deterministic busy work — the knob the Oracle
// profile uses to scale interpreter/executor-entry cost relative to the
// directly measured PostgreSQL profile.
func Spin(n int) {
	acc := spinSink.Load()
	for i := 0; i < n; i++ {
		acc = acc*6364136223846793005 + 1442695040888963407
	}
	spinSink.Store(acc)
}
