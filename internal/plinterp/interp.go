// Package plinterp is the PL/pgSQL interpreter: it executes plast function
// bodies statement by statement, exactly the evaluation regime the paper
// compiles away. Embedded queries run through the shared plan cache and
// pass through ExecutorStart / ExecutorRun / ExecutorEnd on every
// evaluation — with the executor tree taken from, and given back to, the
// session's pool, so a start after the first rebinds rather than
// instantiates; FROM-less, subquery-free expressions take the
// simple-expression fast path (compiled once, evaluated directly — the
// reason the paper's fibonacci row shows no Exec·Start/End time). All
// phases are charged to profile.Counters so the benchmark harness can
// regenerate Table 1.
package plinterp

import (
	"fmt"
	"strings"
	"time"

	"plsqlaway/internal/catalog"
	"plsqlaway/internal/exec"
	"plsqlaway/internal/plan"
	"plsqlaway/internal/plast"
	"plsqlaway/internal/profile"
	"plsqlaway/internal/sqlast"
	"plsqlaway/internal/sqltypes"
	"plsqlaway/internal/storage"
)

// Interpreter executes PL/pgSQL functions. One interpreter serves one
// engine session.
type Interpreter struct {
	// Cat is the catalog snapshot embedded queries bind against. The
	// catalog is copy-on-write, so the engine re-points this at the
	// statement's pinned snapshot when a statement begins.
	Cat      *catalog.Catalog
	Cache    *plan.Cache
	Counters *profile.Counters
	Profile  profile.Profile
	// MkCtx builds a fresh execution context wired to the engine (RNG,
	// storage stats, function-call hook): one per function call.
	MkCtx func() *exec.Ctx
	// Pool is the owning session's pool of executor trees; embedded
	// queries take their trees from it.
	Pool *exec.Pool
	// FastPath enables the simple-expression fast path (ablation A3 turns
	// it off, forcing every expression through the full executor).
	FastPath bool
	// NoInline disables planner UDF inlining inside embedded queries,
	// mirroring the owning session's setting.
	NoInline bool

	fns map[*plast.Function]*fnState
}

// New builds an interpreter.
func New(cat *catalog.Catalog, cache *plan.Cache, counters *profile.Counters, mkCtx func() *exec.Ctx, pool *exec.Pool) *Interpreter {
	return &Interpreter{
		Cat:      cat,
		Cache:    cache,
		Counters: counters,
		Profile:  profile.PostgreSQL,
		MkCtx:    mkCtx,
		Pool:     pool,
		FastPath: true,
		fns:      make(map[*plast.Function]*fnState),
	}
}

// fnState is the per-function compilation state: the variable frame layout
// and per-statement compiled expressions/plans, built lazily and reused
// across calls (PL/pgSQL does the same with its cast/plan caches).
type fnState struct {
	f        *plast.Function
	varNames []string
	varTypes []sqltypes.Type
	varIdx   map[string]int
	comp     map[any]*stmtComp
}

// cacheKey builds the shared-plan-cache key for one embedded query. It
// must be identical across sessions compiling the same statement (the
// cache is engine-wide, while this fnState is per-session and fills
// lazily in call order), so it is content-addressed: function identity —
// the shared catalog AST pointer, which pins the variable-binding hook —
// plus the statement's canonical text. A per-session site counter here
// would collide across sessions whose calls compile sites in different
// orders, silently serving one session's plan for another's statement.
func (st *fnState) cacheKey(q *sqlast.Query) string {
	return fmt.Sprintf("plpgsql:%s:%p:%s", st.f.Name, st.f, sqlast.DeparseQuery(q))
}

// stmtComp is one compiled expression site.
type stmtComp struct {
	simple *exec.ExprState // fast path (nil if expression needs a query)
	query  *sqlast.Query   // full path: SELECT <expr>
	key    string          // plan cache key
}

type frame struct {
	st     *fnState
	values []sqltypes.Value
	ctx    *exec.Ctx // see ctxOf
}

// ctxOf returns the frame's execution context, built on first use: the
// fast path evaluates every simple expression of the call in it, and the
// call's embedded queries take their settings from it. Its parameters are
// the frame's variables, read in place.
func (ip *Interpreter) ctxOf(fr *frame) *exec.Ctx {
	if fr.ctx == nil {
		fr.ctx = ip.MkCtx()
		fr.ctx.Params = fr.values
	}
	return fr.ctx
}

// control is a statement outcome.
type control struct {
	kind  ctlKind
	label string
	value sqltypes.Value
}

type ctlKind uint8

const (
	ctlNext ctlKind = iota
	ctlExit
	ctlContinue
	ctlReturn
)

// Call invokes a PL/pgSQL function with the given arguments and returns its
// result. This is the engine's Q→f context-switch target.
func (ip *Interpreter) Call(f *plast.Function, args []sqltypes.Value) (sqltypes.Value, error) {
	t0 := time.Now()
	accounted := int64(0)

	st, err := ip.fnStateFor(f)
	if err != nil {
		return sqltypes.Null, err
	}
	if len(args) != len(f.Params) {
		return sqltypes.Null, fmt.Errorf("plinterp: %s expects %d arguments, got %d", f.Name, len(f.Params), len(args))
	}
	fr := &frame{st: st, values: make([]sqltypes.Value, len(st.varNames))}
	for i := range fr.values {
		fr.values[i] = sqltypes.Null
	}
	for i, a := range args {
		v, err := sqltypes.Cast(a, f.Params[i].Type)
		if err != nil {
			return sqltypes.Null, fmt.Errorf("plinterp: %s argument %s: %w", f.Name, f.Params[i].Name, err)
		}
		fr.values[i] = v
	}
	// Declarations initialize in order.
	for _, d := range f.Decls {
		if d.Init == nil {
			continue
		}
		v, err := ip.evalExpr(fr, d, d.Init, &accounted)
		if err != nil {
			return sqltypes.Null, err
		}
		if err := ip.assign(fr, d.Name, v); err != nil {
			return sqltypes.Null, err
		}
	}

	ctl, err := ip.execStmts(fr, f.Body, &accounted)
	if err != nil {
		return sqltypes.Null, fmt.Errorf("plinterp: in %s: %w", f.Name, err)
	}
	ip.Counters.InterpNS += time.Since(t0).Nanoseconds() - accounted
	ip.Counters.FuncCalls++

	if ctl.kind != ctlReturn {
		return sqltypes.Null, fmt.Errorf("plinterp: control reached end of function %s without RETURN", f.Name)
	}
	return sqltypes.Cast(ctl.value, f.ReturnType)
}

func (ip *Interpreter) fnStateFor(f *plast.Function) (*fnState, error) {
	if st, ok := ip.fns[f]; ok {
		return st, nil
	}
	st := &fnState{f: f, varIdx: make(map[string]int), comp: make(map[any]*stmtComp)}
	addVar := func(name string, t sqltypes.Type) error {
		if _, dup := st.varIdx[name]; dup {
			return fmt.Errorf("plinterp: duplicate variable %q in %s", name, f.Name)
		}
		st.varIdx[name] = len(st.varNames)
		st.varNames = append(st.varNames, name)
		st.varTypes = append(st.varTypes, t)
		return nil
	}
	for _, p := range f.Params {
		if err := addVar(p.Name, p.Type); err != nil {
			return nil, err
		}
	}
	for _, d := range f.Decls {
		if err := addVar(d.Name, d.Type); err != nil {
			return nil, err
		}
	}
	// FOR loop variables get slots too (shadowing reuses the slot).
	var scanLoops func(stmts []plast.Stmt)
	scanLoops = func(stmts []plast.Stmt) {
		for _, s := range stmts {
			switch s := s.(type) {
			case *plast.ForRange:
				if _, ok := st.varIdx[s.Var]; !ok {
					addVar(s.Var, sqltypes.TypeInt)
				}
				scanLoops(s.Body)
			case *plast.If:
				scanLoops(s.Then)
				for _, ei := range s.ElseIfs {
					scanLoops(ei.Body)
				}
				scanLoops(s.Else)
			case *plast.Loop:
				scanLoops(s.Body)
			case *plast.While:
				scanLoops(s.Body)
			}
		}
	}
	scanLoops(f.Body)
	ip.fns[f] = st
	return st, nil
}

func (ip *Interpreter) assign(fr *frame, name string, v sqltypes.Value) error {
	idx, ok := fr.st.varIdx[name]
	if !ok {
		return fmt.Errorf("plinterp: %q is not a variable", name)
	}
	cast, err := sqltypes.Cast(v, fr.st.varTypes[idx])
	if err != nil {
		return fmt.Errorf("plinterp: assigning %q: %w", name, err)
	}
	fr.values[idx] = cast
	return nil
}

// hook resolves variable names to parameter ordinals (slot+1) during
// binding of embedded expressions.
func (st *fnState) hook(name string) (int, bool) {
	if idx, ok := st.varIdx[name]; ok {
		return idx + 1, true
	}
	return 0, false
}

// compileSite prepares the compiled form of one expression site.
func (ip *Interpreter) compileSite(fr *frame, site any, e sqlast.Expr) (*stmtComp, error) {
	if sc, ok := fr.st.comp[site]; ok {
		return sc, nil
	}
	t0 := time.Now()
	defer func() { ip.Counters.PlanNS += time.Since(t0).Nanoseconds() }()

	sc := &stmtComp{}
	opts := plan.Options{Hook: fr.st.hook, DisableLateral: ip.Profile.DisableLateral, NoInline: ip.NoInline}
	if ip.FastPath && !plan.HasSubquery(e) {
		simple, _, err := plan.BuildScalarExpr(ip.Cat, e, opts)
		if err != nil {
			return nil, err
		}
		sc.simple, err = exec.InstantiateExpr(simple)
		if err != nil {
			return nil, err
		}
	}
	if sc.simple == nil {
		// Full path: SELECT <expr> through the plan cache.
		sc.query = sqlast.WrapQuery(sqlast.SimpleSelect([]sqlast.Expr{e}, nil))
		sc.key = fr.st.cacheKey(sc.query)
	}
	fr.st.comp[site] = sc
	return sc, nil
}

// evalExpr evaluates one expression site, charging the proper buckets.
func (ip *Interpreter) evalExpr(fr *frame, site any, e sqlast.Expr, accounted *int64) (sqltypes.Value, error) {
	sc, err := ip.compileSite(fr, site, e)
	if err != nil {
		return sqltypes.Null, err
	}
	if sc.simple != nil {
		// Fast path: evaluated via the expression executor; PostgreSQL
		// charges this to Exec·Run (exec_eval_simple_expr).
		t0 := time.Now()
		v, err := sc.simple.Eval(ip.ctxOf(fr), nil)
		d := time.Since(t0).Nanoseconds()
		ip.Counters.ExecRunNS += d
		*accounted += d
		ip.Counters.FastPathEvals++
		return v, err
	}
	rows, err := ip.runEmbedded(fr, sc, accounted)
	if err != nil {
		return sqltypes.Null, err
	}
	if len(rows) == 0 {
		return sqltypes.Null, nil
	}
	if len(rows) > 1 {
		return sqltypes.Null, fmt.Errorf("query returned %d rows where one was expected", len(rows))
	}
	return rows[0][0], nil
}

// runEmbedded evaluates an embedded query: plan-cache lookup, then the
// f→Qi context switch (ExecutorStart / Run / End).
func (ip *Interpreter) runEmbedded(fr *frame, sc *stmtComp, accounted *int64) ([]storage.Tuple, error) {
	ip.Counters.CtxSwitchFQ++

	tPlan := time.Now()
	p, err := ip.Cache.GetByText(ip.Cat, sc.key, sc.query, plan.Options{Hook: fr.st.hook, DisableLateral: ip.Profile.DisableLateral, NoInline: ip.NoInline})
	dPlan := time.Since(tPlan).Nanoseconds()
	ip.Counters.PlanNS += dPlan
	*accounted += dPlan
	if err != nil {
		return nil, err
	}

	// ExecutorStart: a tree from the session's pool (instantiated while the
	// pool has none for the plan) bound to the frame's context.
	tStart := time.Now()
	ex, err := ip.Pool.Get(p, ip.ctxOf(fr))
	if ip.Profile.StartPenalty > 0 {
		profile.Spin(ip.Profile.StartPenalty * p.NodeCount)
	}
	dStart := time.Since(tStart).Nanoseconds()
	ip.Counters.ExecStartNS += dStart
	ip.Counters.ExecutorStarts++
	*accounted += dStart
	if err != nil {
		return nil, err
	}

	// ExecutorRun.
	tRun := time.Now()
	rows, runErr := ex.Run()
	dRun := time.Since(tRun).Nanoseconds()
	ip.Counters.ExecRunNS += dRun
	ip.Counters.QueriesRun++
	*accounted += dRun

	// ExecutorEnd: the tree goes back to the pool.
	tEnd := time.Now()
	ip.Pool.Put(ex, runErr == nil)
	dEnd := time.Since(tEnd).Nanoseconds()
	ip.Counters.ExecEndNS += dEnd
	*accounted += dEnd

	return rows, runErr
}

// RunQuery executes an embedded query statement (PERFORM) and discards the
// result.
func (ip *Interpreter) runPerform(fr *frame, site any, q *sqlast.Query, accounted *int64) error {
	sc, ok := fr.st.comp[site]
	if !ok {
		t0 := time.Now()
		sc = &stmtComp{query: q}
		sc.key = fr.st.cacheKey(q)
		fr.st.comp[site] = sc
		ip.Counters.PlanNS += time.Since(t0).Nanoseconds()
	}
	_, err := ip.runEmbedded(fr, sc, accounted)
	return err
}

func (ip *Interpreter) execStmts(fr *frame, stmts []plast.Stmt, accounted *int64) (control, error) {
	for _, s := range stmts {
		if ip.Profile.InterpPenalty > 0 {
			profile.Spin(ip.Profile.InterpPenalty)
		}
		ctl, err := ip.execStmt(fr, s, accounted)
		if err != nil {
			return control{}, err
		}
		if ctl.kind != ctlNext {
			return ctl, nil
		}
	}
	return control{kind: ctlNext}, nil
}

func (ip *Interpreter) execStmt(fr *frame, s plast.Stmt, accounted *int64) (control, error) {
	switch s := s.(type) {
	case *plast.Assign:
		v, err := ip.evalExpr(fr, s, s.Expr, accounted)
		if err != nil {
			return control{}, err
		}
		return control{kind: ctlNext}, ip.assign(fr, s.Name, v)

	case *plast.If:
		v, err := ip.evalExpr(fr, s, s.Cond, accounted)
		if err != nil {
			return control{}, err
		}
		if v.IsTrue() {
			return ip.execStmts(fr, s.Then, accounted)
		}
		for i := range s.ElseIfs {
			ei := &s.ElseIfs[i]
			v, err := ip.evalExpr(fr, ei, ei.Cond, accounted)
			if err != nil {
				return control{}, err
			}
			if v.IsTrue() {
				return ip.execStmts(fr, ei.Body, accounted)
			}
		}
		return ip.execStmts(fr, s.Else, accounted)

	case *plast.Loop:
		for {
			ctl, err := ip.execStmts(fr, s.Body, accounted)
			if err != nil {
				return control{}, err
			}
			if done, out := loopControl(ctl, s.Label); done {
				return out, nil
			}
		}

	case *plast.While:
		for {
			v, err := ip.evalExpr(fr, s, s.Cond, accounted)
			if err != nil {
				return control{}, err
			}
			if !v.IsTrue() {
				return control{kind: ctlNext}, nil
			}
			ctl, err := ip.execStmts(fr, s.Body, accounted)
			if err != nil {
				return control{}, err
			}
			if done, out := loopControl(ctl, s.Label); done {
				return out, nil
			}
		}

	case *plast.ForRange:
		return ip.execForRange(fr, s, accounted)

	case *plast.Exit:
		take := true
		if s.When != nil {
			v, err := ip.evalExpr(fr, s, s.When, accounted)
			if err != nil {
				return control{}, err
			}
			take = v.IsTrue()
		}
		if take {
			return control{kind: ctlExit, label: s.Label}, nil
		}
		return control{kind: ctlNext}, nil

	case *plast.Continue:
		take := true
		if s.When != nil {
			v, err := ip.evalExpr(fr, s, s.When, accounted)
			if err != nil {
				return control{}, err
			}
			take = v.IsTrue()
		}
		if take {
			return control{kind: ctlContinue, label: s.Label}, nil
		}
		return control{kind: ctlNext}, nil

	case *plast.Return:
		v, err := ip.evalExpr(fr, s, s.Expr, accounted)
		if err != nil {
			return control{}, err
		}
		return control{kind: ctlReturn, value: v}, nil

	case *plast.Perform:
		return control{kind: ctlNext}, ip.runPerform(fr, s, s.Query, accounted)

	case *plast.Raise:
		msg, err := ip.formatRaise(fr, s, accounted)
		if err != nil {
			return control{}, err
		}
		if s.Level == "EXCEPTION" {
			return control{}, fmt.Errorf("%s", msg)
		}
		ip.Counters.Notices = append(ip.Counters.Notices, msg)
		return control{kind: ctlNext}, nil

	case *plast.NullStmt:
		return control{kind: ctlNext}, nil

	default:
		return control{}, fmt.Errorf("plinterp: unsupported statement %T", s)
	}
}

// loopControl folds a body outcome into loop behaviour: (true, out) means
// the loop terminates and forwards out.
func loopControl(ctl control, label string) (bool, control) {
	switch ctl.kind {
	case ctlReturn:
		return true, ctl
	case ctlExit:
		if ctl.label == "" || ctl.label == label {
			return true, control{kind: ctlNext}
		}
		return true, ctl // exit an outer loop
	case ctlContinue:
		if ctl.label == "" || ctl.label == label {
			return false, control{}
		}
		return true, ctl // continue an outer loop
	}
	return false, control{}
}

func (ip *Interpreter) execForRange(fr *frame, s *plast.ForRange, accounted *int64) (control, error) {
	fromV, err := ip.evalExpr(fr, &s.From, s.From, accounted)
	if err != nil {
		return control{}, err
	}
	toV, err := ip.evalExpr(fr, &s.To, s.To, accounted)
	if err != nil {
		return control{}, err
	}
	step := int64(1)
	if s.Step != nil {
		stepV, err := ip.evalExpr(fr, &s.Step, s.Step, accounted)
		if err != nil {
			return control{}, err
		}
		sv, err := sqltypes.Cast(stepV, sqltypes.TypeInt)
		if err != nil {
			return control{}, err
		}
		step = sv.Int()
		if step <= 0 {
			return control{}, fmt.Errorf("plinterp: BY value of FOR loop must be greater than zero")
		}
	}
	fi, err := sqltypes.Cast(fromV, sqltypes.TypeInt)
	if err != nil {
		return control{}, err
	}
	ti, err := sqltypes.Cast(toV, sqltypes.TypeInt)
	if err != nil {
		return control{}, err
	}
	if fi.IsNull() || ti.IsNull() {
		return control{}, fmt.Errorf("plinterp: FOR loop bounds must not be NULL")
	}
	idx := fr.st.varIdx[s.Var]
	saved := fr.values[idx]
	defer func() { fr.values[idx] = saved }()

	from, to := fi.Int(), ti.Int()
	if s.Reverse {
		for i := from; i >= to; i -= step {
			fr.values[idx] = sqltypes.NewInt(i)
			ctl, err := ip.execStmts(fr, s.Body, accounted)
			if err != nil {
				return control{}, err
			}
			if done, out := loopControl(ctl, s.Label); done {
				return out, nil
			}
		}
		return control{kind: ctlNext}, nil
	}
	for i := from; i <= to; i += step {
		fr.values[idx] = sqltypes.NewInt(i)
		ctl, err := ip.execStmts(fr, s.Body, accounted)
		if err != nil {
			return control{}, err
		}
		if done, out := loopControl(ctl, s.Label); done {
			return out, nil
		}
	}
	return control{kind: ctlNext}, nil
}

func (ip *Interpreter) formatRaise(fr *frame, s *plast.Raise, accounted *int64) (string, error) {
	var sb strings.Builder
	argIdx := 0
	for i := 0; i < len(s.Format); i++ {
		if s.Format[i] == '%' && argIdx < len(s.Args) {
			v, err := ip.evalExpr(fr, &s.Args[argIdx], s.Args[argIdx], accounted)
			if err != nil {
				return "", err
			}
			sb.WriteString(v.String())
			argIdx++
			continue
		}
		sb.WriteByte(s.Format[i])
	}
	return sb.String(), nil
}
