package engine

import (
	"fmt"

	"plsqlaway/internal/catalog"
	"plsqlaway/internal/exec"
	"plsqlaway/internal/sqltypes"
	"plsqlaway/internal/storage"
)

// callFunction is the executor's function-call hook. It runs inside a
// query, so the session already holds the shared core's read lock. Its
// three arms are the paper's three evaluation regimes:
//
//   - PL/pgSQL: a Q→f context switch into the statement-by-statement
//     interpreter, whose embedded queries then pay f→Qi switches;
//   - LANGUAGE SQL: the body query runs through an executor per call (a
//     tree from the session's pool once the body has run twice; no
//     interpreter);
//   - compiled: identical mechanics to LANGUAGE SQL, but the body is the
//     pure-SQL WITH RECURSIVE form the compiler emitted — the interpreter
//     is gone. (Inlining via sqlgen.InlineCall removes even the per-call
//     executor start.)
func (s *Session) callFunction(f *catalog.Function, args []sqltypes.Value) (sqltypes.Value, error) {
	if s.callDepth >= s.sh.maxCallDepth {
		return sqltypes.Null, fmt.Errorf("engine: call stack depth limit (%d) exceeded in %s — recursive UDFs hit stack limits, as the paper warns; use the WITH RECURSIVE form", s.sh.maxCallDepth, f.Name)
	}
	s.callDepth++
	defer func() { s.callDepth-- }()

	// Cast arguments to declared parameter types.
	cast := make([]sqltypes.Value, len(args))
	for i, a := range args {
		v, err := sqltypes.Cast(a, f.Params[i].Type)
		if err != nil {
			return sqltypes.Null, fmt.Errorf("engine: %s argument %s: %w", f.Name, f.Params[i].Name, err)
		}
		cast[i] = v
	}

	switch f.Kind {
	case catalog.FuncPLpgSQL:
		s.counters.CtxSwitchQF++
		return s.interp.Call(f.PL, cast)

	case catalog.FuncSQL, catalog.FuncCompiled:
		return s.callSQLBody(f, cast)

	default:
		return sqltypes.Null, fmt.Errorf("engine: function %s has unknown kind", f.Name)
	}
}

// callSQLBody evaluates a SQL-bodied function: plan cached per function
// (shared across sessions), run per call through the same execPlan every
// statement uses — on a pooled tree, and on a tree of its own when the
// function recurses.
func (s *Session) callSQLBody(f *catalog.Function, args []sqltypes.Value) (sqltypes.Value, error) {
	hook := func(name string) (int, bool) {
		for i, p := range f.Params {
			if p.Name == name {
				return i + 1, true
			}
		}
		return 0, false
	}
	opts := s.planOpts()
	opts.Hook = hook
	p, err := s.cachedPlan(f.SQLBody, "sqlfn:"+f.Name, opts)
	if err != nil {
		return sqltypes.Null, err
	}
	var rows []storage.Tuple
	_, err = s.execPlan(p, args, false, discardCols, func(b *exec.Batch) error {
		rows = append(rows, b.Rows()...)
		return nil
	})
	if err != nil {
		return sqltypes.Null, err
	}
	if len(rows) == 0 {
		return sqltypes.Null, nil
	}
	if len(rows) > 1 || len(rows[0]) != 1 {
		return sqltypes.Null, fmt.Errorf("engine: function %s body returned %d rows × %d cols, expected 1×1", f.Name, len(rows), len(rows[0]))
	}
	return sqltypes.Cast(rows[0][0], f.ReturnType)
}
