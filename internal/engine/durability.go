// Durability: Open-from-directory, boot-time recovery, checkpointing,
// and the translation between catalog objects and their serialized WAL
// forms. The commit-side hooks (building and appending commit records,
// waiting for durability) live in session.go / txn.go next to the
// commit protocol they extend.
package engine

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"

	"plsqlaway/internal/catalog"
	"plsqlaway/internal/plast"
	"plsqlaway/internal/sqlast"
	"plsqlaway/internal/sqlparser"
	"plsqlaway/internal/sqltypes"
	"plsqlaway/internal/storage"
	"plsqlaway/internal/wal"
)

// Open creates a durable engine rooted at dir: it recovers the state the
// directory holds (checkpoint snapshot plus write-ahead log, replayed to
// the last complete record — a torn tail from a crash mid-append is a
// clean end of log), folds the replayed tail into a fresh checkpoint,
// and attaches the WAL so every later commit is logged before it is
// applied. An empty or missing directory starts an empty database.
// Open with dir == "" is New: a volatile engine.
func Open(dir string, opts ...Option) (*Engine, error) {
	e := New(opts...)
	if dir == "" {
		return e, nil
	}
	if err := e.recover(dir); err != nil {
		return nil, err
	}
	return e, nil
}

// recover rebuilds the engine's state from dir and attaches the WAL.
func (e *Engine) recover(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("engine: data dir: %w", err)
	}
	ck, haveCk, err := wal.ReadCheckpoint(dir)
	if err != nil {
		return fmt.Errorf("engine: recovery: %w", err)
	}
	epoch := uint64(1)
	cat := catalog.New(e.storageStats)
	var last int64
	if haveCk {
		epoch = ck.Epoch
		if cat, err = restoreCheckpoint(ck, e); err != nil {
			return fmt.Errorf("engine: recovery: %w", err)
		}
		last = ck.LastTS
	}
	recs, err := wal.ReadLog(wal.LogPath(dir, epoch))
	if err != nil {
		return fmt.Errorf("engine: recovery: %w", err)
	}
	for i, rec := range recs {
		if last, err = applyRecord(cat, e, rec, last); err != nil {
			return fmt.Errorf("engine: recovery: replaying record %d: %w", i, err)
		}
	}
	e.state.Store(&dbState{cat: cat, ts: last})

	obsFsync, obsBatch := e.walObservers()
	w, err := wal.Open(dir, epoch, wal.Config{
		Mode: e.syncMode, Stats: e.storageStats,
		ObserveFsync: obsFsync, ObserveBatch: obsBatch,
	})
	if err != nil {
		return err
	}
	e.wal = w
	e.dataDir = dir
	e.walEpoch = epoch
	// Fold the replayed tail into a fresh checkpoint so the next boot
	// starts from a snapshot and an empty log — and so this boot's
	// appends never share a log with records that predate it.
	if err := e.checkpoint("recovery"); err != nil {
		return fmt.Errorf("engine: recovery: %w", err)
	}
	removeStaleLogs(dir, e.walEpoch)
	return nil
}

// removeStaleLogs sweeps log files from epochs other than the current
// one — leftovers of a crash between checkpoint rename and log rotation.
// Best-effort: a survivor costs disk, never correctness (recovery only
// ever reads the checkpoint's epoch).
func removeStaleLogs(dir string, epoch uint64) {
	keep := filepath.Base(wal.LogPath(dir, epoch))
	matches, _ := filepath.Glob(filepath.Join(dir, "wal-*.log"))
	for _, m := range matches {
		if filepath.Base(m) != keep {
			os.Remove(m)
		}
	}
}

// Checkpoint serializes the published database state (catalog, every
// heap's full version array, last commit timestamp) into dir's snapshot
// file and rotates the WAL to a fresh empty log. Runs under the commit
// lock, so the snapshot is a transaction boundary; the atomic
// write-then-rename plus epoch-named logs make every crash window safe.
// No-op on a volatile engine.
func (e *Engine) Checkpoint() error { return e.checkpoint("manual") }

// checkpoint is the shared checkpoint body, labelled with its trigger
// reason (manual / size / shutdown / recovery) for the registry's
// checkpoints_triggered metric.
func (e *Engine) checkpoint(reason string) error {
	if e.wal == nil {
		return nil
	}
	e.commitMu.Lock()
	defer e.commitMu.Unlock()
	st := e.state.Load()
	next := e.walEpoch + 1
	ck, err := buildCheckpoint(st, next)
	if err != nil {
		return err
	}
	if err := wal.WriteCheckpoint(e.dataDir, ck); err != nil {
		return err
	}
	if err := e.wal.Rotate(next); err != nil {
		return err
	}
	e.walEpoch = next
	atomic.AddInt64(&e.storageStats.Checkpoints, 1)
	e.noteCheckpoint(reason)
	return nil
}

// Close checkpoints (graceful shutdown makes the next boot's recovery a
// snapshot load with no replay) and closes the WAL. Commits attempted
// after Close fail. No-op on a volatile engine.
func (e *Engine) Close() error {
	if e.wal == nil {
		return nil
	}
	err := e.checkpoint("shutdown")
	if cerr := e.wal.Close(); err == nil {
		err = cerr
	}
	return err
}

// ---------------------------------------------------------------------------
// checkpoint build / restore
// ---------------------------------------------------------------------------

// buildCheckpoint serializes one published state. Caller holds the
// commit lock, so heaps are quiescent at st.ts.
func buildCheckpoint(st *dbState, epoch uint64) (*wal.Checkpoint, error) {
	ck := &wal.Checkpoint{Epoch: epoch, LastTS: st.ts}
	for _, name := range st.cat.FunctionNames() {
		f, _ := st.cat.Function(name)
		fe, err := functionEntry(f)
		if err != nil {
			return nil, err
		}
		ck.Funcs = append(ck.Funcs, *fe)
	}
	for _, name := range st.cat.TableNames() {
		t, _ := st.cat.Table(name)
		te := wal.CheckpointTable{Name: t.Name}
		for _, c := range t.Cols {
			te.Cols = append(te.Cols, wal.ParamEntry{Name: c.Name, Type: c.Type.String()})
		}
		for _, ci := range t.IndexedCols() {
			te.IndexCols = append(te.IndexCols, t.Cols[ci].Name)
		}
		err := t.Heap.DumpVersions(func(xmin, xmax int64, enc []byte) error {
			te.Versions = append(te.Versions, wal.CheckpointVersion{
				Xmin: xmin,
				Xmax: xmax,
				Enc:  append([]byte(nil), enc...),
			})
			return nil
		})
		if err != nil {
			return nil, err
		}
		ck.Tables = append(ck.Tables, te)
	}
	return ck, nil
}

// restoreCheckpoint rebuilds a catalog (functions, tables, indexes, and
// every heap's exact version array) from a snapshot.
func restoreCheckpoint(ck *wal.Checkpoint, e *Engine) (*catalog.Catalog, error) {
	cat := catalog.New(e.storageStats)
	for i := range ck.Funcs {
		if err := applyFunctionEntry(cat, e, &ck.Funcs[i]); err != nil {
			return nil, fmt.Errorf("function %s: %w", ck.Funcs[i].Name, err)
		}
	}
	for _, te := range ck.Tables {
		cols := make([]catalog.Column, len(te.Cols))
		for i, c := range te.Cols {
			t, err := sqltypes.ParseType(c.Type)
			if err != nil {
				return nil, fmt.Errorf("table %s column %s: %w", te.Name, c.Name, err)
			}
			cols[i] = catalog.Column{Name: c.Name, Type: t}
		}
		tbl, err := cat.CreateTable(te.Name, cols, false)
		if err != nil {
			return nil, err
		}
		for _, col := range te.IndexCols {
			if err := cat.DeclareIndex(te.Name, col); err != nil {
				return nil, err
			}
		}
		// DeclareIndex replaces the *Table (copy-on-write) but shares the
		// Heap, so restoring through the original pointer is safe.
		for _, v := range te.Versions {
			tbl.Heap.RestoreVersion(v.Enc, v.Xmin, v.Xmax)
		}
	}
	return cat, nil
}

// ---------------------------------------------------------------------------
// log replay
// ---------------------------------------------------------------------------

// applyRecord replays one WAL record against the recovering catalog,
// returning the new last-published timestamp. Mutates cat in place (the
// catalog is private until recovery publishes it). Any reference the
// record makes that the rebuilt state cannot resolve is a hard error:
// recovery must never guess.
func applyRecord(cat *catalog.Catalog, e *Engine, rec *wal.Record, last int64) (int64, error) {
	switch rec.Kind {
	case wal.RecordCommit:
		for _, ent := range rec.DDL {
			if err := applyDDLEntry(cat, e, ent); err != nil {
				return last, err
			}
		}
		for _, hc := range rec.Heaps {
			tbl, ok := cat.Table(hc.Table)
			if !ok {
				return last, fmt.Errorf("commit at ts %d references unknown table %q", rec.TS, hc.Table)
			}
			added := make([]storage.Tuple, len(hc.Added))
			for i, enc := range hc.Added {
				t, err := storage.DecodeTuple(enc)
				if err != nil {
					return last, fmt.Errorf("table %q tuple %d: %w", hc.Table, i, err)
				}
				added[i] = t
			}
			tbl.Heap.Commit(hc.Dead, added, rec.TS)
		}
		return rec.TS, nil
	case wal.RecordVacuum:
		tbl, ok := cat.Table(rec.Table)
		if !ok {
			return last, fmt.Errorf("vacuum record references unknown table %q", rec.Table)
		}
		// Vacuum is deterministic given heap state and horizon, so
		// replaying the logged horizon reproduces the exact version-index
		// remapping later commit records' dead sets were built against.
		tbl.Heap.Vacuum(rec.Horizon)
		return last, nil
	default:
		return last, fmt.Errorf("unknown record kind %d", rec.Kind)
	}
}

// applyDDLEntry replays one catalog delta.
func applyDDLEntry(cat *catalog.Catalog, e *Engine, ent wal.DDLEntry) error {
	if ent.Fn != nil {
		return applyFunctionEntry(cat, e, ent.Fn)
	}
	stmt, err := sqlparser.ParseStatement(ent.SQL)
	if err != nil {
		return fmt.Errorf("logged DDL %q: %w", ent.SQL, err)
	}
	switch st := stmt.(type) {
	case *sqlast.CreateTable:
		return applyCreateTable(cat, st)
	case *sqlast.CreateIndex:
		return cat.DeclareIndex(st.Table, st.Column)
	case *sqlast.DropTable:
		return cat.DropTable(st.Name, st.IfExists)
	case *sqlast.CreateFunction:
		return applyCreateFunction(cat, e, st)
	case *sqlast.DropFunction:
		return cat.DropFunction(st.Name, st.IfExists)
	default:
		return fmt.Errorf("logged DDL %q parses to unexpected %T", ent.SQL, stmt)
	}
}

// ---------------------------------------------------------------------------
// function (de)serialization
// ---------------------------------------------------------------------------

// functionEntry serializes a catalog function for a checkpoint or a
// commit record's DDL list. PL/pgSQL functions keep their original body
// source; SQL and compiled functions carry the deparsed body query.
func functionEntry(f *catalog.Function) (*wal.FunctionEntry, error) {
	fe := &wal.FunctionEntry{
		Name:       f.Name,
		OrReplace:  true, // restore always replaces
		Language:   f.Kind.String(),
		ReturnType: f.ReturnType.String(),
	}
	for _, p := range f.Params {
		fe.Params = append(fe.Params, wal.ParamEntry{Name: p.Name, Type: p.Type.String()})
	}
	switch f.Kind {
	case catalog.FuncPLpgSQL:
		fe.Body = f.PL.Source
	case catalog.FuncSQL, catalog.FuncCompiled:
		fe.Body = sqlast.DeparseQuery(f.SQLBody)
	default:
		return nil, fmt.Errorf("engine: cannot serialize function kind %v", f.Kind)
	}
	return fe, nil
}

// functionEntryFromStmt serializes a CREATE FUNCTION statement directly
// (the runtime DDL-logging path: the statement already carries type
// names and the body text verbatim).
func functionEntryFromStmt(stmt *sqlast.CreateFunction) *wal.FunctionEntry {
	fe := &wal.FunctionEntry{
		Name:       stmt.Name,
		OrReplace:  stmt.OrReplace,
		Language:   strings.ToLower(stmt.Language),
		ReturnType: stmt.ReturnType,
		Body:       stmt.Body,
	}
	for _, p := range stmt.Params {
		fe.Params = append(fe.Params, wal.ParamEntry{Name: p.Name, Type: p.TypeName})
	}
	return fe
}

// applyFunctionEntry installs a serialized function into cat. Compiled
// functions are re-installed directly (their body is a pure-SQL query);
// plpgsql and sql functions go through the ordinary CREATE FUNCTION
// path, re-parsing the stored body exactly as the original DDL did.
func applyFunctionEntry(cat *catalog.Catalog, e *Engine, fe *wal.FunctionEntry) error {
	if fe.Language == catalog.FuncCompiled.String() {
		q, err := sqlparser.ParseQuery(fe.Body)
		if err != nil {
			return fmt.Errorf("compiled function %s body: %w", fe.Name, err)
		}
		params, err := parseParamEntries(fe.Params)
		if err != nil {
			return fmt.Errorf("compiled function %s: %w", fe.Name, err)
		}
		ret, err := sqltypes.ParseType(fe.ReturnType)
		if err != nil {
			return fmt.Errorf("compiled function %s: %w", fe.Name, err)
		}
		return cat.CreateFunction(&catalog.Function{
			Name:       fe.Name,
			Params:     params,
			ReturnType: ret,
			Kind:       catalog.FuncCompiled,
			SQLBody:    q,
		}, fe.OrReplace)
	}
	stmt := &sqlast.CreateFunction{
		OrReplace:  fe.OrReplace,
		Name:       fe.Name,
		ReturnType: fe.ReturnType,
		Language:   fe.Language,
		Body:       fe.Body,
	}
	for _, p := range fe.Params {
		stmt.Params = append(stmt.Params, sqlast.ParamDef{Name: p.Name, TypeName: p.Type})
	}
	return applyCreateFunction(cat, e, stmt)
}

func parseParamEntries(entries []wal.ParamEntry) ([]plast.Param, error) {
	params := make([]plast.Param, len(entries))
	for i, p := range entries {
		t, err := sqltypes.ParseType(p.Type)
		if err != nil {
			return nil, fmt.Errorf("parameter %s: %w", p.Name, err)
		}
		params[i] = plast.Param{Name: strings.ToLower(p.Name), Type: t}
	}
	return params, nil
}
