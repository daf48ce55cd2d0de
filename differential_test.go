// Differential test suite: for EVERY function in the workload corpus,
// install the interpreted original and its compiled twins (WITH RECURSIVE
// and WITH ITERATE) on the same engine and assert identical results across
// a grid of arguments, re-seeding the shared deterministic random() source
// before each evaluation so even the stochastic robot walk must agree
// step for step. The grid below must cover the whole corpus — the test
// fails if a corpus entry has no cases, so new corpus functions cannot
// silently dodge the differential check. TestDifferentialLoopVsGeneric
// adds the third regime: the compiled SQL on the generic recursive-CTE
// plan the Loop lowering replaced.
package plsqlaway_test

import (
	"fmt"
	"strings"
	"testing"

	"plsqlaway"
	"plsqlaway/internal/catalog"
	"plsqlaway/internal/exec"
	"plsqlaway/internal/plan"
	"plsqlaway/internal/sqlparser"
	"plsqlaway/internal/sqltypes"
	"plsqlaway/internal/workload"
)

// diffCase is one corpus function's call template and argument grid.
type diffCase struct {
	tmpl string // e.g. "SELECT %s($1, $2)" — %s is the function name
	args [][]plsqlaway.Value
}

func ints(vals ...int64) []plsqlaway.Value {
	out := make([]plsqlaway.Value, len(vals))
	for i, v := range vals {
		out[i] = plsqlaway.Int(v)
	}
	return out
}

// differentialGrid covers every entry of workload.Corpus.
var differentialGrid = map[string]diffCase{
	"walk": {"SELECT %s($1, $2, $3, $4)", [][]plsqlaway.Value{
		{plsqlaway.Coord(0, 0), plsqlaway.Int(5), plsqlaway.Int(-5), plsqlaway.Int(10)},
		{plsqlaway.Coord(2, 2), plsqlaway.Int(3), plsqlaway.Int(-3), plsqlaway.Int(50)},
		{plsqlaway.Coord(4, 4), plsqlaway.Int(1000000), plsqlaway.Int(-1000000), plsqlaway.Int(200)},
		{plsqlaway.Coord(1, 3), plsqlaway.Int(2), plsqlaway.Int(-8), plsqlaway.Int(0)},
	}},
	"parse": {"SELECT %s($1)", [][]plsqlaway.Value{
		{plsqlaway.Text("")},
		{plsqlaway.Text("abc")},
		{plsqlaway.Text("a1 22 bcd !")},
		{plsqlaway.Text(workload.MakeParseInput(300, 5))},
		{plsqlaway.Text(workload.MakeParseInput(64, 123))},
	}},
	"traverse": {"SELECT %s($1, $2)", [][]plsqlaway.Value{
		ints(0, 0), ints(0, 100), ints(3, 300), ints(42, 7), ints(4000, 50),
	}},
	"fibonacci": {"SELECT %s($1)", [][]plsqlaway.Value{
		ints(0), ints(1), ints(2), ints(10), ints(40), ints(90),
	}},
	"gcd": {"SELECT %s($1, $2)", [][]plsqlaway.Value{
		ints(48, 36), ints(36, 48), ints(7, 13), ints(0, 5), ints(5, 0), ints(270, 192),
	}},
	"collatz": {"SELECT %s($1)", [][]plsqlaway.Value{
		ints(1), ints(2), ints(6), ints(7), ints(27), ints(97),
	}},
	"sumskip": {"SELECT %s($1)", [][]plsqlaway.Value{
		ints(0), ints(1), ints(3), ints(10), ints(100),
	}},
	"nestedloop": {"SELECT %s($1)", [][]plsqlaway.Value{
		ints(0), ints(1), ints(3), ints(40),
	}},
	"clamp": {"SELECT %s($1, $2, $3)", [][]plsqlaway.Value{
		ints(5, 1, 10), ints(-5, 1, 10), ints(50, 1, 10), ints(1, 1, 10), ints(10, 1, 10),
	}},
	"balance": {"SELECT %s($1, $2)", [][]plsqlaway.Value{
		{plsqlaway.Float(500), plsqlaway.Int(24)},
		{plsqlaway.Float(5000), plsqlaway.Int(60)},
		{plsqlaway.Float(0), plsqlaway.Int(5)},
		{plsqlaway.Float(100000), plsqlaway.Int(12)},
	}},
	"ipow": {"SELECT %s($1, $2)", [][]plsqlaway.Value{
		ints(2, 10), ints(3, 0), ints(-2, 5), ints(7, 3),
	}},
}

// newWorkloadEngine builds an engine with every workload schema installed.
func newWorkloadEngine(t *testing.T, opts ...plsqlaway.EngineOption) *plsqlaway.Engine {
	t.Helper()
	e := plsqlaway.NewEngine(append([]plsqlaway.EngineOption{plsqlaway.WithSeed(42)}, opts...)...)
	world := workload.NewRobotWorld(5, 5, 7)
	if err := world.Install(e); err != nil {
		t.Fatal(err)
	}
	if err := workload.InstallFSM(e); err != nil {
		t.Fatal(err)
	}
	if err := workload.InstallGraph(e, 4096, 3); err != nil {
		t.Fatal(err)
	}
	if err := workload.InstallFees(e); err != nil {
		t.Fatal(err)
	}
	return e
}

// TestDifferentialCorpus is the API-level differential suite.
func TestDifferentialCorpus(t *testing.T) {
	for name := range workload.Corpus {
		if _, ok := differentialGrid[name]; !ok {
			t.Errorf("corpus function %q has no differential grid — add cases", name)
		}
	}

	for name, src := range workload.Corpus {
		c, ok := differentialGrid[name]
		if !ok {
			continue
		}
		t.Run(name, func(t *testing.T) {
			e := newWorkloadEngine(t)
			if err := e.Exec(src); err != nil {
				t.Fatalf("install interpreted: %v", err)
			}
			res, err := plsqlaway.Compile(src, plsqlaway.Options{})
			if err != nil {
				t.Fatalf("compile: %v", err)
			}
			if err := plsqlaway.Install(e, name+"_c", res); err != nil {
				t.Fatalf("install compiled: %v", err)
			}
			resIter, err := plsqlaway.Compile(src, plsqlaway.Options{Iterate: true})
			if err != nil {
				t.Fatalf("compile (iterate): %v", err)
			}
			if err := plsqlaway.Install(e, name+"_ci", resIter); err != nil {
				t.Fatalf("install compiled (iterate): %v", err)
			}

			for i, args := range c.args {
				eval := func(fn string) plsqlaway.Value {
					t.Helper()
					e.Seed(99)
					v, err := e.QueryValue(fmt.Sprintf(c.tmpl, fn), args...)
					if err != nil {
						t.Fatalf("case %d: %s: %v", i, fn, err)
					}
					return v
				}
				want := eval(name)
				got := eval(name + "_c")
				gotIter := eval(name + "_ci")
				if !sqltypes.Identical(want, got) {
					t.Errorf("case %d: interpreted=%v compiled=%v (args %v)", i, want, got, args)
				}
				if !sqltypes.Identical(want, gotIter) {
					t.Errorf("case %d: interpreted=%v iterate=%v (args %v)", i, want, gotIter, args)
				}
			}
		})
	}
}

// TestDifferentialOnSessions re-runs a sample of the grid through a
// dedicated Session (not the engine facade), confirming the session layer
// is behaviour-preserving: same seed, same stream, same answers.
func TestDifferentialOnSessions(t *testing.T) {
	e := newWorkloadEngine(t)
	src := workload.Corpus["walk"]
	if err := e.Exec(src); err != nil {
		t.Fatal(err)
	}
	res, err := plsqlaway.Compile(src, plsqlaway.Options{})
	if err != nil {
		t.Fatal(err)
	}
	s := e.NewSession()
	// Install through the session: registration lands in the shared
	// catalog, so the facade sees it too.
	if err := plsqlaway.Install(s, "walk_c", res); err != nil {
		t.Fatal(err)
	}
	for _, steps := range []int64{10, 50, 200} {
		s.Seed(99)
		want, err := s.QueryValue("SELECT walk($1, 1000000, -1000000, $2)", plsqlaway.Coord(2, 2), plsqlaway.Int(steps))
		if err != nil {
			t.Fatal(err)
		}
		s.Seed(99)
		got, err := s.QueryValue("SELECT walk_c($1, 1000000, -1000000, $2)", plsqlaway.Coord(2, 2), plsqlaway.Int(steps))
		if err != nil {
			t.Fatal(err)
		}
		if !sqltypes.Identical(want, got) {
			t.Errorf("steps=%d: session interpreted=%v compiled=%v", steps, want, got)
		}
		e.Seed(99)
		facade, err := e.QueryValue("SELECT walk_c($1, 1000000, -1000000, $2)", plsqlaway.Coord(2, 2), plsqlaway.Int(steps))
		if err != nil {
			t.Fatal(err)
		}
		if !sqltypes.Identical(want, facade) {
			t.Errorf("steps=%d: session=%v facade=%v", steps, want, facade)
		}
	}
}

// TestDifferentialBatchVsTuple is the batch-vs-tuple differential pass:
// every workload in the corpus must produce identical results (same seed)
// through the vectorized batch pipeline at the default batch size, through
// a batch size that forces many mid-stream batch boundaries, and through
// batch size 1 — the configuration in which every NextBatch moves exactly
// one tuple, i.e. the legacy Volcano iteration the batch executor
// replaced.
func TestDifferentialBatchVsTuple(t *testing.T) {
	for name := range workload.Corpus {
		if _, ok := differentialGrid[name]; !ok {
			t.Errorf("corpus function %q has no differential grid — add cases", name)
		}
	}

	engines := []struct {
		label string
		size  int
	}{
		{"tuple(batch=1)", 1},
		{"batch=3", 3},
		{"batch=default", 0},
	}

	for name, src := range workload.Corpus {
		c, ok := differentialGrid[name]
		if !ok {
			continue
		}
		t.Run(name, func(t *testing.T) {
			res, err := plsqlaway.Compile(src, plsqlaway.Options{})
			if err != nil {
				t.Fatalf("compile: %v", err)
			}
			resIter, err := plsqlaway.Compile(src, plsqlaway.Options{Iterate: true})
			if err != nil {
				t.Fatalf("compile (iterate): %v", err)
			}

			es := make([]*plsqlaway.Engine, len(engines))
			for i, spec := range engines {
				var opts []plsqlaway.EngineOption
				if spec.size > 0 {
					opts = append(opts, plsqlaway.WithBatchSize(spec.size))
				}
				e := newWorkloadEngine(t, opts...)
				if err := e.Exec(src); err != nil {
					t.Fatalf("%s: install interpreted: %v", spec.label, err)
				}
				if err := plsqlaway.Install(e, name+"_c", res); err != nil {
					t.Fatalf("%s: install compiled: %v", spec.label, err)
				}
				if err := plsqlaway.Install(e, name+"_ci", resIter); err != nil {
					t.Fatalf("%s: install compiled (iterate): %v", spec.label, err)
				}
				es[i] = e
			}

			for i, args := range c.args {
				for _, fn := range []string{name, name + "_c", name + "_ci"} {
					vals := make([]plsqlaway.Value, len(engines))
					for j, e := range es {
						e.Seed(7)
						v, err := e.QueryValue(fmt.Sprintf(c.tmpl, fn), args...)
						if err != nil {
							t.Fatalf("case %d: %s on %s: %v", i, fn, engines[j].label, err)
						}
						vals[j] = v
					}
					for j := 1; j < len(vals); j++ {
						if !sqltypes.Identical(vals[0], vals[j]) {
							t.Errorf("case %d: %s: %s=%v but %s=%v (args %v)",
								i, fn, engines[0].label, vals[0], engines[j].label, vals[j], args)
						}
					}
				}
			}
		})
	}
}

// compiledRun is one compiled corpus function planned by hand in one
// regime: lowered (the plan the engine builds: trampoline → Loop, lets →
// slots) or generic (plan.Options.NoLoop: the recursive-CTE plan over
// nest-loop let chains the lowering replaced). It mirrors what the
// engine's opaque call path does around such a plan: arguments cast to the
// parameter types, the result to the return type.
type compiledRun struct {
	res *plsqlaway.Result
	p   *plan.Plan
}

func planCompiled(t *testing.T, cat *catalog.Catalog, res *plsqlaway.Result, generic bool) compiledRun {
	t.Helper()
	q, err := sqlparser.ParseQuery(res.SQL)
	if err != nil {
		t.Fatalf("reparse emitted SQL: %v", err)
	}
	hook := func(name string) (int, bool) {
		for i, p := range res.Params {
			if p.Name == name {
				return i + 1, true
			}
		}
		return 0, false
	}
	p, err := plan.Build(cat, q, plan.Options{Hook: hook, NoLoop: generic})
	if err != nil {
		t.Fatalf("plan (generic=%v): %v", generic, err)
	}
	return compiledRun{res: res, p: p}
}

// eval runs the plan under a session-equivalent context — random() seeded
// as Session.Seed(seed) would — and returns the function value and the
// next draw of the random stream, i.e. how far the evaluation advanced it.
func (c compiledRun) eval(t *testing.T, seed uint64, batch int, args []plsqlaway.Value) (plsqlaway.Value, float64) {
	t.Helper()
	ctx := exec.NewCtx()
	ctx.Rand = exec.NewRand(seed)
	if batch > 0 {
		ctx.BatchSize = batch
	}
	for i, a := range args {
		v, err := sqltypes.Cast(a, c.res.Params[i].Type)
		if err != nil {
			t.Fatal(err)
		}
		ctx.Params = append(ctx.Params, v)
	}
	ex, err := exec.Instantiate(c.p, ctx)
	if err != nil {
		t.Fatal(err)
	}
	defer ex.Shutdown()
	rows, err := ex.Run()
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if len(rows) != 1 || len(rows[0]) != 1 {
		t.Fatalf("compiled body returned %v, want one value", rows)
	}
	v, err := sqltypes.Cast(rows[0][0], c.res.ReturnType)
	if err != nil {
		t.Fatal(err)
	}
	return v, ctx.Rand.Float64()
}

// TestDifferentialLoopVsGeneric runs EVERY corpus function in three
// regimes — interpreted, compiled and lowered to a Loop, compiled on the
// generic RecursiveUnion plan — in both spellings (WITH RECURSIVE, WITH
// ITERATE), at batch sizes 1, 7 and the default, over 20 seeds. All three
// must return the identical value AND leave the random stream at the
// identical position: the same number of random() draws, which for walk
// means the lowering kept every stray of the robot in order.
func TestDifferentialLoopVsGeneric(t *testing.T) {
	const seeds = 20
	for name, src := range workload.Corpus {
		c, ok := differentialGrid[name]
		if !ok {
			t.Errorf("corpus function %q has no differential grid — add cases", name)
			continue
		}
		t.Run(name, func(t *testing.T) {
			e := newWorkloadEngine(t)
			s := e.NewSession()
			if err := s.Exec(src); err != nil {
				t.Fatalf("install interpreted: %v", err)
			}
			// The interpreted answers, and where they leave the stream.
			type answer struct {
				v    plsqlaway.Value
				draw float64
			}
			want := make([]answer, seeds)
			argsOf := func(seed int) []plsqlaway.Value { return c.args[seed%len(c.args)] }
			for seed := range want {
				s.Seed(uint64(seed + 1))
				v, err := s.QueryValue(fmt.Sprintf(c.tmpl, name), argsOf(seed)...)
				if err != nil {
					t.Fatalf("interpreted, seed %d: %v", seed+1, err)
				}
				d, err := s.QueryValue("SELECT random()")
				if err != nil {
					t.Fatal(err)
				}
				want[seed] = answer{v, d.Float()}
			}

			for _, iterate := range []bool{false, true} {
				res, err := plsqlaway.Compile(src, plsqlaway.Options{Iterate: iterate})
				if err != nil {
					t.Fatalf("compile (iterate=%v): %v", iterate, err)
				}
				lowered := planCompiled(t, s.Catalog(), res, false)
				generic := planCompiled(t, s.Catalog(), res, true)
				// The regimes are what they claim to be. (Loop-less
				// functions compile to one expression: nothing to lower.)
				recursive := strings.Contains(res.SQL, "WITH ")
				if lt := strings.Join(lowered.p.Explain(), "\n"); recursive &&
					(lowered.p.LoopedCTEs != 1 || strings.Contains(lt, "RecursiveUnion")) {
					t.Fatalf("iterate=%v: compiled plan was not lowered:\n%s", iterate, lt)
				}
				if gt := strings.Join(generic.p.Explain(), "\n"); generic.p.LoopedCTEs != 0 || strings.Contains(gt, "Let") ||
					(recursive && !strings.Contains(gt, "RecursiveUnion")) {
					t.Fatalf("iterate=%v: NoLoop plan is not the generic plan:\n%s", iterate, gt)
				}
				for _, batch := range []int{1, 7, 0} {
					for seed := range want {
						for _, regime := range []struct {
							label string
							run   compiledRun
						}{{"loop", lowered}, {"generic", generic}} {
							v, draw := regime.run.eval(t, uint64(seed+1), batch, argsOf(seed))
							if !sqltypes.Identical(v, want[seed].v) {
								t.Errorf("%s iterate=%v batch=%d seed=%d: %v, interpreted %v (args %v)",
									regime.label, iterate, batch, seed+1, v, want[seed].v, argsOf(seed))
							}
							if draw != want[seed].draw {
								t.Errorf("%s iterate=%v batch=%d seed=%d: random stream position differs from the interpreter's (args %v)",
									regime.label, iterate, batch, seed+1, argsOf(seed))
							}
						}
					}
				}
			}
		})
	}
}
