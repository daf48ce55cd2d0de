// Package bench regenerates every table and figure of the paper's
// evaluation (§3): Table 1 (run-time breakdown of PL/pgSQL evaluation),
// Figure 10 (iterative vs. recursive wall-clock for walk), Figures 11a/11b
// (relative run-time heat maps across invocation × iteration counts),
// Table 2 (buffer page writes, WITH ITERATE vs WITH RECURSIVE), plus five
// ablations of the compiler and interpreter (ablations.go). cmd/benchrunner
// prints them; the tests here check their shapes.
package bench

import (
	"fmt"
	"strings"
	"time"

	"plsqlaway/internal/core"
	"plsqlaway/internal/engine"
	"plsqlaway/internal/profile"
	"plsqlaway/internal/sqlast"
	"plsqlaway/internal/sqlparser"
	"plsqlaway/internal/sqltypes"
	"plsqlaway/internal/workload"
)

// Env bundles an engine, the session the experiments run on, and the
// compiled variants of the corpus functions they call.
type Env struct {
	E        *engine.Engine
	S        *engine.Session
	Compiled map[string]*core.Result // by function name
}

// Big bounds that keep walk() running for all of its steps.
const (
	winHuge   = int64(1_000_000_000)
	looseHuge = int64(-1_000_000_000)
)

// NewEnv builds an engine with the workload schemas, the interpreted corpus
// functions, and — for each requested function — the compiled variant
// installed as <name>_c (and <name>_ci for the WITH ITERATE form).
func NewEnv(prof profile.Profile, fns ...string) (*Env, error) {
	e := engine.New(engine.WithProfile(prof), engine.WithSeed(42))
	s := e.NewSession()
	world := workload.NewRobotWorld(5, 5, 7)
	if err := world.Install(s); err != nil {
		return nil, err
	}
	if err := workload.InstallFSM(s); err != nil {
		return nil, err
	}
	if err := workload.InstallGraph(s, 4096, 3); err != nil {
		return nil, err
	}
	if err := workload.InstallFees(s); err != nil {
		return nil, err
	}
	env := &Env{E: e, S: s, Compiled: map[string]*core.Result{}}
	for _, name := range fns {
		src, ok := workload.Corpus[name]
		if !ok {
			return nil, fmt.Errorf("bench: unknown corpus function %q", name)
		}
		if prof.AllowPLpgSQL {
			if err := s.Exec(src); err != nil {
				return nil, err
			}
		}
		res, err := core.Compile(src, core.Options{})
		if err != nil {
			return nil, err
		}
		if err := s.InstallCompiled(name+"_c", res.Params, res.ReturnType, res.Query); err != nil {
			return nil, err
		}
		resIter, err := core.Compile(src, core.Options{Iterate: true})
		if err != nil {
			return nil, err
		}
		if err := s.InstallCompiled(name+"_ci", resIter.Params, resIter.ReturnType, resIter.Query); err != nil {
			return nil, err
		}
		env.Compiled[name] = res
	}
	return env, nil
}

// timeIt measures fn over rounds runs, returning avg/min/max durations.
func timeIt(rounds int, fn func() error) (avg, min, max time.Duration, err error) {
	if rounds < 1 {
		rounds = 1
	}
	var total time.Duration
	for i := 0; i < rounds; i++ {
		t0 := time.Now()
		if err = fn(); err != nil {
			return 0, 0, 0, err
		}
		d := time.Since(t0)
		total += d
		if i == 0 || d < min {
			min = d
		}
		if d > max {
			max = d
		}
	}
	return total / time.Duration(rounds), min, max, nil
}

// ---------------------------------------------------------------------------
// Table 1 — run time spent during PL/SQL evaluation
// ---------------------------------------------------------------------------

// Table1Row is one function's phase breakdown in percent.
type Table1Row struct {
	Name                    string
	Start, Run, End, Interp float64
	FtoQSwitches            int64
}

// Table1Config sizes the workloads.
type Table1Config struct {
	WalkSteps    int64 // default 10_000
	ParseLen     int   // default 10_000
	TraverseHops int64 // default 2_000
	FibN         int64 // default 100_000
}

func (c *Table1Config) defaults() {
	if c.WalkSteps == 0 {
		c.WalkSteps = 10_000
	}
	if c.ParseLen == 0 {
		c.ParseLen = 10_000
	}
	if c.TraverseHops == 0 {
		c.TraverseHops = 2_000
	}
	if c.FibN == 0 {
		c.FibN = 100_000
	}
}

// Table1 interprets walk, parse, traverse, and fibonacci and reports the
// share of time in Exec·Start / Exec·Run / Exec·End / Interp. Bold-in-paper
// columns Start+End are the f→Qi context-switch overhead.
func Table1(cfg Table1Config) ([]Table1Row, error) {
	cfg.defaults()
	env, err := NewEnv(profile.PostgreSQL, "walk", "parse", "traverse", "fibonacci")
	if err != nil {
		return nil, err
	}
	s := env.S
	input := workload.MakeParseInput(cfg.ParseLen, 11)

	runs := []struct {
		name string
		call func() error
	}{
		{"walk", func() error {
			_, err := s.Query("SELECT walk(coord(2, 2), $1, $2, $3)",
				sqltypes.NewInt(winHuge), sqltypes.NewInt(looseHuge), sqltypes.NewInt(cfg.WalkSteps))
			return err
		}},
		{"parse", func() error {
			_, err := s.Query("SELECT parse($1)", sqltypes.NewText(input))
			return err
		}},
		{"traverse", func() error {
			_, err := s.Query("SELECT traverse($1, $2)", sqltypes.NewInt(0), sqltypes.NewInt(cfg.TraverseHops))
			return err
		}},
		{"fibonacci", func() error {
			_, err := s.Query("SELECT fibonacci($1)", sqltypes.NewInt(cfg.FibN))
			return err
		}},
	}
	var rows []Table1Row
	for _, r := range runs {
		s.Seed(42)
		if err := r.call(); err != nil { // warm plan caches
			return nil, fmt.Errorf("bench: %s: %w", r.name, err)
		}
		s.Counters().Reset()
		s.Seed(42)
		if err := r.call(); err != nil {
			return nil, fmt.Errorf("bench: %s: %w", r.name, err)
		}
		st, ru, en, in := s.Counters().Breakdown()
		rows = append(rows, Table1Row{Name: r.name, Start: st, Run: ru, End: en, Interp: in,
			FtoQSwitches: s.Counters().CtxSwitchFQ})
	}
	return rows, nil
}

// ---------------------------------------------------------------------------
// Figure 10 — iterative vs recursive wall clock for walk()
// ---------------------------------------------------------------------------

// Fig10Point is one x-position of Figure 10.
type Fig10Point struct {
	Iterations                int64
	PLMs, PLMinMs, PLMaxMs    float64
	RecMs, RecMinMs, RecMaxMs float64
	SavingPct                 float64 // 100·(1 − rec/pl)
}

// Fig10Config sizes the sweep.
type Fig10Config struct {
	Steps  []int64 // default {10k, 25k, 50k, 75k, 100k}
	Rounds int     // default 10 (the paper averages ten runs)
}

// Figure10 measures one invocation of walk() interpreted vs compiled
// (WITH RECURSIVE) across growing intra-function iteration counts.
func Figure10(cfg Fig10Config) ([]Fig10Point, error) {
	if len(cfg.Steps) == 0 {
		cfg.Steps = []int64{10_000, 25_000, 50_000, 75_000, 100_000}
	}
	if cfg.Rounds == 0 {
		cfg.Rounds = 10
	}
	env, err := NewEnv(profile.PostgreSQL, "walk")
	if err != nil {
		return nil, err
	}
	s := env.S
	ms := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

	var out []Fig10Point
	for _, steps := range cfg.Steps {
		callPL := func() error {
			s.Seed(42)
			_, err := s.Query("SELECT walk(coord(2, 2), $1, $2, $3)",
				sqltypes.NewInt(winHuge), sqltypes.NewInt(looseHuge), sqltypes.NewInt(steps))
			return err
		}
		callRec := func() error {
			s.Seed(42)
			_, err := s.Query("SELECT walk_c(coord(2, 2), $1, $2, $3)",
				sqltypes.NewInt(winHuge), sqltypes.NewInt(looseHuge), sqltypes.NewInt(steps))
			return err
		}
		// warm up both paths once
		if err := callPL(); err != nil {
			return nil, err
		}
		if err := callRec(); err != nil {
			return nil, err
		}
		plAvg, plMin, plMax, err := timeIt(cfg.Rounds, callPL)
		if err != nil {
			return nil, err
		}
		recAvg, recMin, recMax, err := timeIt(cfg.Rounds, callRec)
		if err != nil {
			return nil, err
		}
		out = append(out, Fig10Point{
			Iterations: steps,
			PLMs:       ms(plAvg), PLMinMs: ms(plMin), PLMaxMs: ms(plMax),
			RecMs: ms(recAvg), RecMinMs: ms(recMin), RecMaxMs: ms(recMax),
			SavingPct: 100 * (1 - float64(recAvg)/float64(plAvg)),
		})
	}
	return out, nil
}

// ---------------------------------------------------------------------------
// Figure 11 — heat maps of relative run time
// ---------------------------------------------------------------------------

// HeatMap is the Figure 11 grid: Cells[i][j] is the relative run time (%)
// of the recursive form at Invocations[i] × Iterations[j]; NaN-like
// negative values mark cells below the engine's timer resolution (Oracle).
type HeatMap struct {
	Fn          string
	Profile     string
	Invocations []int64
	Iterations  []int64
	Cells       [][]float64 // -1 = below timer resolution
}

// Fig11Config selects function, profile, and grid ticks.
type Fig11Config struct {
	Fn          string // "walk" or "parse"
	Profile     profile.Profile
	Invocations []int64
	Iterations  []int64
}

// Figure11 measures, per grid cell, a query invoking the function N times
// with M intra-function iterations: interpreted versus compiled-and-inlined
// (the inlined query re-optimized per measurement — the one-time cost that
// dominates the lower-left corner).
func Figure11(cfg Fig11Config) (*HeatMap, error) {
	if cfg.Fn == "" {
		cfg.Fn = "walk"
	}
	if cfg.Profile.Name == "" {
		cfg.Profile = profile.PostgreSQL
	}
	if len(cfg.Invocations) == 0 {
		cfg.Invocations = []int64{2, 4, 8, 16, 32, 64, 128, 256, 512, 1024}
	}
	if len(cfg.Iterations) == 0 {
		cfg.Iterations = []int64{2, 4, 8, 16, 32, 64, 256, 1024}
	}
	env, err := NewEnv(cfg.Profile, cfg.Fn)
	if err != nil {
		return nil, err
	}
	s := env.S
	res := env.Compiled[cfg.Fn]

	// A pool of call sites for Q→f invocations.
	if err := s.Exec("CREATE TABLE starts (o coord, s int)"); err != nil {
		return nil, err
	}
	{
		var rows []string
		for i := int64(0); i < 1024; i++ {
			rows = append(rows, fmt.Sprintf("(coord(%d, %d), %d)", i%5, (i/5)%5, i))
		}
		for lo := 0; lo < len(rows); lo += 256 {
			hi := lo + 256
			if hi > len(rows) {
				hi = len(rows)
			}
			stmt := "INSERT INTO starts VALUES " + strings.Join(rows[lo:hi], ", ")
			if err := s.Exec(stmt); err != nil {
				return nil, err
			}
		}
	}

	parseInput := workload.MakeParseInput(1100, 11)

	// Warm both paths once so the first cell does not absorb cold-start
	// costs (statement compilation, interpreter caches).
	if _, err := fig11Cell(s, res, cfg, 1, 1, parseInput); err != nil {
		return nil, err
	}

	hm := &HeatMap{Fn: cfg.Fn, Profile: cfg.Profile.Name,
		Invocations: cfg.Invocations, Iterations: cfg.Iterations}
	for _, inv := range cfg.Invocations {
		var row []float64
		for _, iter := range cfg.Iterations {
			cell, err := fig11Cell(s, res, cfg, inv, iter, parseInput)
			if err != nil {
				return nil, err
			}
			row = append(row, cell)
		}
		hm.Cells = append(hm.Cells, row)
	}
	return hm, nil
}

// fig11Cell measures one (invocations, iterations) grid point and returns
// 100·rec/interp, or -1 when the profile's timer cannot resolve it.
func fig11Cell(s *engine.Session, res *core.Result, cfg Fig11Config, inv, iter int64, parseInput string) (float64, error) {
	var callSQL string
	switch cfg.Fn {
	case "walk":
		callSQL = fmt.Sprintf(
			"SELECT sum(walk(s.o, %d, %d, %d)) FROM (SELECT o FROM starts LIMIT %d) AS s",
			winHuge, looseHuge, iter, inv)
	case "parse":
		callSQL = fmt.Sprintf(
			"SELECT sum(parse(substr($1, s.s %% 17 + 1, %d))) FROM (SELECT s FROM starts LIMIT %d) AS s",
			iter, inv)
	default:
		return 0, fmt.Errorf("bench: figure 11 supports walk and parse, not %q", cfg.Fn)
	}
	q, err := sqlparser.ParseQuery(callSQL)
	if err != nil {
		return 0, err
	}
	inlined := res.Inline(q)

	var params []sqltypes.Value
	if cfg.Fn == "parse" {
		params = []sqltypes.Value{sqltypes.NewText(parseInput)}
	}

	// Best of two runs per side: keeps the per-measurement one-time
	// planning cost (QueryFresh replans) while damping scheduler noise.
	measure := func(target *sqlast.Query) (time.Duration, sqltypes.Value, error) {
		var best time.Duration
		var val sqltypes.Value
		for i := 0; i < 2; i++ {
			s.Seed(1234)
			t0 := time.Now()
			r, err := s.QueryFresh(target, params...)
			d := time.Since(t0)
			if err != nil {
				return 0, sqltypes.Null, err
			}
			val = r.Rows[0][0]
			if i == 0 || d < best {
				best = d
			}
		}
		return best, val, nil
	}
	dPL, vPL, err := measure(q)
	if err != nil {
		return 0, fmt.Errorf("interpreted cell (%d×%d): %w", inv, iter, err)
	}
	dRec, vRec, err := measure(inlined)
	if err != nil {
		return 0, fmt.Errorf("compiled cell (%d×%d): %w", inv, iter, err)
	}
	if !sqltypes.Identical(vPL, vRec) {
		return 0, fmt.Errorf("cell (%d×%d): interpreted %v != compiled %v", inv, iter, vPL, vRec)
	}
	qPL := cfg.Profile.Quantize(dPL)
	qRec := cfg.Profile.Quantize(dRec)
	if qPL == 0 || qRec == 0 {
		return -1, nil // below timer resolution — omitted, as in Figure 11b
	}
	return 100 * float64(qRec) / float64(qPL), nil
}

// ---------------------------------------------------------------------------
// Table 2 — buffer page writes: WITH ITERATE vs WITH RECURSIVE
// ---------------------------------------------------------------------------

// Table2Row is one input length's page-write counts.
type Table2Row struct {
	Iterations      int
	IterateWrites   int64
	RecursiveWrites int64 // WITH RECURSIVE with the trace kept (generic RecursiveUnion)
	LoopWrites      int64 // WITH RECURSIVE as planned: trampoline lowered to a Loop
}

// installTraceKept installs name_ct: name_c with its trace kept
// (workload.TraceKept).
func installTraceKept(env *Env, name string) error {
	res := env.Compiled[name]
	return env.S.InstallCompiled(name+"_ct", res.Params, res.ReturnType, workload.TraceKept(res.Query))
}

// Table2 runs compiled parse() on growing inputs and counts buffer page
// writes of the run-table accumulation. Vanilla WITH RECURSIVE keeps the
// whole tail-recursion trace (quadratic bytes → quadratic page writes);
// WITH ITERATE keeps one row and writes nothing — and so does the
// WITH RECURSIVE spelling once the planner has lowered it to a Loop.
func Table2(lengths []int) ([]Table2Row, error) {
	if len(lengths) == 0 {
		lengths = []int{10_000, 20_000, 30_000, 40_000, 50_000}
	}
	env, err := NewEnv(profile.PostgreSQL, "parse")
	if err != nil {
		return nil, err
	}
	if err := installTraceKept(env, "parse"); err != nil {
		return nil, err
	}
	s := env.S
	var rows []Table2Row
	for _, n := range lengths {
		input := sqltypes.NewText(workload.MakeParseInput(n, 11))
		writes := func(fn string) (int64, error) {
			s.StorageStats().Reset()
			_, err := s.Query("SELECT "+fn+"($1)", input)
			return s.StorageStats().PageWrites, err
		}
		row := Table2Row{Iterations: n}
		if row.IterateWrites, err = writes("parse_ci"); err != nil {
			return nil, err
		}
		if row.RecursiveWrites, err = writes("parse_ct"); err != nil {
			return nil, err
		}
		if row.LoopWrites, err = writes("parse_c"); err != nil {
			return nil, err
		}
		rows = append(rows, row)
	}
	return rows, nil
}
