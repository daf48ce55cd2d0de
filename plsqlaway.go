// Package plsqlaway is a from-scratch Go reproduction of "Compiling PL/SQL
// Away" (Duta, Hirn, Grust — CIDR 2020): a compiler that turns PL/pgSQL
// functions with arbitrary control flow into plain SQL queries built on
// WITH RECURSIVE, plus the relational engine substrate needed to run and
// measure both evaluation regimes.
//
// The package exposes three things:
//
//   - an embedded SQL engine (NewEngine) with PL/pgSQL interpretation,
//     LATERAL joins, window functions, recursive CTEs, and the paper's
//     proposed WITH ITERATE extension;
//   - the compiler (Compile) implementing the paper's pipeline
//     PL/SQL → SSA → ANF → tail-recursive SQL UDF → WITH RECURSIVE;
//   - glue (Install) to register the compiled form next to the
//     interpreted original, so a session can run and compare both.
//
// Quick start — every statement runs on a Session:
//
//	e := plsqlaway.NewEngine()
//	s := e.NewSession()
//	s.Exec(`CREATE TABLE t (…)`)                 // schema
//	s.Exec(fibSrc)                               // interpreted original
//	res, _ := plsqlaway.Compile(fibSrc, plsqlaway.Options{})
//	plsqlaway.Install(s, "fib_compiled", res)    // compiled twin
//	v, _ := s.QueryValue("SELECT fib_compiled($1)", plsqlaway.Int(30))
//
// Concurrency: one engine serves many callers, one session per
// goroutine:
//
//	go func() {
//		s := e.NewSession()
//		v, _ := s.QueryValue("SELECT fib_compiled($1)", plsqlaway.Int(30)) …
//	}()
//
// Sessions share the catalog, storage, and plan cache under snapshot
// isolation with optimistic, first-updater-wins writes: readers never
// block, writers buffer privately and validate per-row at commit, and
// only the validate-and-publish step serializes. Each session keeps
// private random streams, counters, interpreter state, and prepared
// statements. BEGIN/COMMIT/ROLLBACK open multi-statement transaction
// blocks on a session: one snapshot for the whole block, buffered
// writes the block reads back, atomic publication at COMMIT — which
// fails with ErrSerialization if another transaction committed a
// change to the same rows first. SAVEPOINT / ROLLBACK TO / RELEASE
// mark and unwind points within a block.
package plsqlaway

import (
	"plsqlaway/internal/core"
	"plsqlaway/internal/engine"
	"plsqlaway/internal/profile"
	"plsqlaway/internal/server"
	"plsqlaway/internal/sqltypes"
	"plsqlaway/internal/udf"
	"plsqlaway/internal/wal"
)

// Engine is an embedded database instance: the catalog, storage, and plan
// cache its sessions share. It runs no statements itself; NewSession
// hands out the sessions that do, one per goroutine.
type Engine = engine.Engine

// Session is one caller's execution context on a shared engine: private
// random stream, counters, interpreter state, and prepared statements over
// the engine's shared catalog/storage/plan cache. Create one per goroutine
// with Engine.NewSession; a single Session is not safe for concurrent use.
type Session = engine.Session

// Prepared is a statement parsed once and executable many times on its
// session (see Session.Prepare).
type Prepared = engine.Prepared

// EngineOption configures NewEngine.
type EngineOption = engine.Option

// Result is the outcome of one compilation, carrying every intermediate
// form (CFG, SSA, ANF, UDF) and the final pure-SQL query.
type Result = core.Result

// Options configures a compilation.
type Options = core.Options

// Value is a dynamically typed SQL value.
type Value = sqltypes.Value

// Engine profile re-exports: PostgreSQL is the neutral measured profile;
// Oracle and SQLite are the paper's §3 cross-system scenarios.
var (
	ProfilePostgreSQL = profile.PostgreSQL
	ProfileOracle     = profile.Oracle
	ProfileSQLite     = profile.SQLite
)

// Dialect re-exports.
const (
	DialectPostgres = udf.DialectPostgres
	DialectSQLite   = udf.DialectSQLite
)

// Transaction sentinel errors, matchable with errors.Is. COMMIT of an
// explicit block returns ErrSerialization when first-updater-wins
// validation finds a row the block wrote that another transaction
// already re-wrote; the block has rolled back and the caller retries.
var (
	ErrSerialization = engine.ErrSerialization
	ErrTxnAborted    = engine.ErrTxnAborted
)

// NewEngine creates an embedded engine. Options: WithProfile, WithSeed,
// WithBatchSize, WithSyncMode.
func NewEngine(opts ...engine.Option) *Engine { return engine.New(opts...) }

// OpenEngine creates a durable embedded engine rooted at dir: commits
// append to a write-ahead log there, boot replays the last checkpoint
// plus the log's complete records, and Engine.Close checkpoints. An
// empty dir yields a volatile engine, exactly like NewEngine.
func OpenEngine(dir string, opts ...engine.Option) (*Engine, error) {
	return engine.Open(dir, opts...)
}

// WAL sync-mode re-exports for WithSyncMode: when a commit is
// acknowledged relative to the log fsync.
const (
	SyncOff       = wal.SyncOff       // never fsync: survives process crashes, not OS crashes
	SyncBatched   = wal.SyncBatched   // group commit: concurrent committers share one fsync
	SyncPerCommit = wal.SyncPerCommit // one fsync per commit
)

// WithSyncMode selects the durable engine's WAL sync mode (default
// SyncBatched). Meaningless for volatile engines.
func WithSyncMode(m wal.SyncMode) engine.Option { return engine.WithSyncMode(m) }

// WithProfile selects an engine profile.
func WithProfile(p profile.Profile) engine.Option { return engine.WithProfile(p) }

// WithSeed seeds the deterministic random() source.
func WithSeed(seed uint64) engine.Option { return engine.WithSeed(seed) }

// WithBatchSize sets the executor's tuples-per-batch (1 degenerates to
// tuple-at-a-time Volcano iteration).
func WithBatchSize(n int) engine.Option { return engine.WithBatchSize(n) }

// Compile runs the paper's full pipeline on the text of a
// CREATE FUNCTION … LANGUAGE plpgsql statement.
func Compile(src string, opt Options) (*Result, error) { return core.Compile(src, opt) }

// Install registers a compilation result under the given name in the
// catalog s's engine shares: calls evaluate the pure-SQL form, no
// interpreter involved.
func Install(s *Session, name string, res *Result) error {
	return s.InstallCompiled(name, res.Params, res.ReturnType, res.Query)
}

// Server serves an engine over TCP with the wire protocol: one session
// per connection, pipelined execution, graceful shutdown. The client
// package (plsqlaway/client) is its counterpart; cmd/plsqld is the
// stand-alone daemon.
type Server = server.Server

// ServerOptions tunes a Server (banner, pipelining queue depth, drain
// grace). The zero value is production-ready.
type ServerOptions = server.Options

// NewServer wraps e in a wire-protocol server. Call Serve/ListenAndServe
// to accept connections and Shutdown to drain.
func NewServer(e *Engine, opts ServerOptions) *Server { return server.New(e, opts) }

// Int builds an integer value.
func Int(i int64) Value { return sqltypes.NewInt(i) }

// Float builds a float value.
func Float(f float64) Value { return sqltypes.NewFloat(f) }

// Text builds a text value.
func Text(s string) Value { return sqltypes.NewText(s) }

// Bool builds a boolean value.
func Bool(b bool) Value { return sqltypes.NewBool(b) }

// Coord builds a coord value (the paper's grid-cell composite type).
func Coord(x, y int64) Value { return sqltypes.NewCoord(x, y) }

// Null is the SQL NULL value.
var Null = sqltypes.Null
