// Differential test suite: for EVERY function in the workload corpus,
// install the interpreted original and its compiled twins (WITH RECURSIVE
// and WITH ITERATE) on the same engine and assert identical results across
// a grid of arguments, re-seeding the shared deterministic random() source
// before each evaluation so even the stochastic robot walk must agree
// step for step. The grid below must cover the whole corpus — the test
// fails if a corpus entry has no cases, so new corpus functions cannot
// silently dodge the differential check. TestDifferentialLoopVsGeneric
// adds two more regimes: the Loop without memos, and the compiled SQL on
// the generic recursive-CTE plan the Loop lowering replaced.
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
	s := e.NewSession()
	world := workload.NewRobotWorld(5, 5, 7)
	if err := world.Install(s); err != nil {
		t.Fatal(err)
	}
	if err := workload.InstallFSM(s); err != nil {
		t.Fatal(err)
	}
	if err := workload.InstallGraph(s, 4096, 3); err != nil {
		t.Fatal(err)
	}
	if err := workload.InstallFees(s); err != nil {
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
			s := newWorkloadEngine(t).NewSession()
			if err := s.Exec(src); err != nil {
				t.Fatalf("install interpreted: %v", err)
			}
			res, err := plsqlaway.Compile(src, plsqlaway.Options{})
			if err != nil {
				t.Fatalf("compile: %v", err)
			}
			if err := plsqlaway.Install(s, name+"_c", res); err != nil {
				t.Fatalf("install compiled: %v", err)
			}
			resIter, err := plsqlaway.Compile(src, plsqlaway.Options{Iterate: true})
			if err != nil {
				t.Fatalf("compile (iterate): %v", err)
			}
			if err := plsqlaway.Install(s, name+"_ci", resIter); err != nil {
				t.Fatalf("install compiled (iterate): %v", err)
			}

			for i, args := range c.args {
				eval := func(fn string) plsqlaway.Value {
					t.Helper()
					s.Seed(99)
					v, err := s.QueryValue(fmt.Sprintf(c.tmpl, fn), args...)
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

// TestDifferentialOnSessions re-runs a sample of the grid on two sessions
// of one engine, confirming the session layer is behaviour-preserving:
// same seed, same stream, same answers, whichever session registered a
// function.
func TestDifferentialOnSessions(t *testing.T) {
	e := newWorkloadEngine(t)
	s, other := e.NewSession(), e.NewSession()
	src := workload.Corpus["walk"]
	if err := other.Exec(src); err != nil {
		t.Fatal(err)
	}
	res, err := plsqlaway.Compile(src, plsqlaway.Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Install through s: registration lands in the shared catalog, so
	// the other session sees it too.
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
		other.Seed(99)
		fromOther, err := other.QueryValue("SELECT walk_c($1, 1000000, -1000000, $2)", plsqlaway.Coord(2, 2), plsqlaway.Int(steps))
		if err != nil {
			t.Fatal(err)
		}
		if !sqltypes.Identical(want, fromOther) {
			t.Errorf("steps=%d: session=%v other session=%v", steps, want, fromOther)
		}
	}
}

// batchDiffQueries is the plain-SQL grid of TestDifferentialBatchVsTuple,
// run over the workload schemas (graph edges, robot world, fee schedule):
// scans, filters, projections, joins, aggregates, sorts, NULL handling,
// mixed types, recursion and set operations.
var batchDiffQueries = []string{
	// Scans + filters over int columns, including empty results.
	"SELECT count(*) FROM edges WHERE src % 7 = 0",
	"SELECT count(*) FROM edges WHERE src < 0",
	"SELECT min(dst), max(dst), sum(dst) FROM edges WHERE src % 3 <> 1",
	// Projection: arithmetic, comparisons, boolean logic.
	"SELECT count(*) FROM edges WHERE src + dst > 4000 AND (src % 2 = 0 OR dst % 5 = 1)",
	"SELECT sum(src * 2 - dst) FROM edges WHERE dst % 11 < 4",
	// Grouped aggregation and HAVING.
	"SELECT src % 16 AS bucket, count(*), sum(dst) FROM edges GROUP BY src % 16 ORDER BY bucket",
	"SELECT src % 8 AS bucket, avg(dst) FROM edges GROUP BY src % 8 HAVING count(*) > 10 ORDER BY bucket",
	// Hash join, plus join + aggregate.
	"SELECT count(*) FROM edges a JOIN edges b ON a.dst = b.src WHERE a.src % 101 = 5",
	"SELECT a.src % 10 AS g, count(*) FROM edges a JOIN edges b ON a.dst = b.src WHERE a.src % 37 = 2 GROUP BY a.src % 10 ORDER BY g",
	// Sort + limit over projected expressions.
	"SELECT src, dst FROM edges WHERE src % 211 = 3 ORDER BY dst DESC, src LIMIT 25",
	// NULL-producing expressions and NULL-aware aggregates.
	"SELECT count(*), count(CASE WHEN src % 2 = 0 THEN 1 ELSE NULL END) FROM edges WHERE src % 13 = 4",
	"SELECT NULL, src FROM edges WHERE src % 509 = 1 ORDER BY src LIMIT 10",
	// Mixed types: floats and text through scans and filters.
	"SELECT count(*), sum(amount) FROM fees WHERE amount > 1.0",
	"SELECT lo, hi, amount FROM fees ORDER BY lo",
	"SELECT state, count(*), min(next) FROM fsm GROUP BY state ORDER BY state LIMIT 15",
	"SELECT action, count(*) FROM actions GROUP BY action ORDER BY action",
	// Recursive CTE (the graph-traversal shape).
	"WITH RECURSIVE r(n, i) AS (SELECT src, 0 FROM edges WHERE src = 42 UNION ALL SELECT e.dst, r.i + 1 FROM r JOIN edges e ON e.src = r.n WHERE r.i < 4) SELECT count(*), max(i) FROM r",
	// DISTINCT and set operations.
	"SELECT count(*) FROM (SELECT DISTINCT src % 64 FROM edges) d",
	"SELECT src FROM edges WHERE src % 797 = 0 UNION SELECT dst FROM edges WHERE dst % 797 = 0 ORDER BY src LIMIT 20",
}

// TestDifferentialBatchVsTuple is the batch-vs-tuple differential pass:
// every workload in the corpus, and the plain-SQL grid, must produce
// identical results (same seed) through the batch pipeline at the default
// batch size, through a batch size that forces many mid-stream batch
// boundaries, and through batch size 1 — the configuration in which every
// NextBatch moves exactly one tuple, i.e. the legacy Volcano iteration the
// batch executor replaced. A last pass pins the volatile rule: a plan
// containing random() runs at batch size 1 whatever the configured size,
// so the deterministic random() stream is the same in every engine.
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

			ss := make([]*plsqlaway.Session, len(engines))
			for i, spec := range engines {
				var opts []plsqlaway.EngineOption
				if spec.size > 0 {
					opts = append(opts, plsqlaway.WithBatchSize(spec.size))
				}
				s := newWorkloadEngine(t, opts...).NewSession()
				if err := s.Exec(src); err != nil {
					t.Fatalf("%s: install interpreted: %v", spec.label, err)
				}
				if err := plsqlaway.Install(s, name+"_c", res); err != nil {
					t.Fatalf("%s: install compiled: %v", spec.label, err)
				}
				if err := plsqlaway.Install(s, name+"_ci", resIter); err != nil {
					t.Fatalf("%s: install compiled (iterate): %v", spec.label, err)
				}
				ss[i] = s
			}

			for i, args := range c.args {
				for _, fn := range []string{name, name + "_c", name + "_ci"} {
					vals := make([]plsqlaway.Value, len(engines))
					for j, s := range ss {
						s.Seed(7)
						v, err := s.QueryValue(fmt.Sprintf(c.tmpl, fn), args...)
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

	// formatted runs q on every engine of the grid, reseeding each first.
	formatted := func(t *testing.T, ss []*plsqlaway.Session, q string) []string {
		t.Helper()
		texts := make([]string, len(ss))
		for j, s := range ss {
			s.Seed(1234)
			res, err := s.Query(q)
			if err != nil {
				t.Fatalf("%s: %v\n%s", engines[j].label, err, q)
			}
			texts[j] = res.Format()
		}
		return texts
	}
	ss := make([]*plsqlaway.Session, len(engines))
	for i, spec := range engines {
		var opts []plsqlaway.EngineOption
		if spec.size > 0 {
			opts = append(opts, plsqlaway.WithBatchSize(spec.size))
		}
		ss[i] = newWorkloadEngine(t, opts...).NewSession()
	}
	t.Run("plain-sql", func(t *testing.T) {
		for i, q := range batchDiffQueries {
			texts := formatted(t, ss, q)
			for j := 1; j < len(texts); j++ {
				if texts[0] != texts[j] {
					t.Errorf("query %d diverged:\n%s\n%s:\n%s\n%s:\n%s", i, q, engines[0].label, texts[0], engines[j].label, texts[j])
				}
			}
		}
	})
	t.Run("volatile-batch-1", func(t *testing.T) {
		q := "WITH RECURSIVE g(i) AS (SELECT 1 UNION ALL SELECT i + 1 FROM g WHERE i < 200) SELECT i, random() FROM g"
		texts := formatted(t, ss, q)
		for j := 1; j < len(texts); j++ {
			if texts[0] != texts[j] {
				t.Errorf("volatile stream diverged:\n%s:\n%s\n%s:\n%s", engines[0].label, texts[0], engines[j].label, texts[j])
			}
		}
	})
}

// compiledRun is one compiled corpus function planned by hand in one
// regime: lowered (the plan the engine builds: trampoline → Loop, lets →
// slots, embedded queries memoised), unmemoised (Skip: plan.PassMemo —
// the same Loop running every embedded query per iteration) or generic
// (Skip: plan.PassLoop — the recursive-CTE plan over nest-loop let chains
// the lowering replaced). It mirrors what the engine's opaque call path
// does around such a plan: arguments cast to the parameter types, the
// result to the return type.
type compiledRun struct {
	res *plsqlaway.Result
	p   *plan.Plan
}

func planCompiled(t *testing.T, cat *catalog.Catalog, res *plsqlaway.Result, opts plan.Options) compiledRun {
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
	opts.Hook = hook
	p, err := plan.Build(cat, q, opts)
	if err != nil {
		t.Fatalf("plan (%+v): %v", opts, err)
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

// TestDifferentialLoopVsGeneric runs EVERY corpus function in four
// regimes — interpreted, compiled and lowered to a Loop with its embedded
// queries memoised, the same Loop unmemoised, compiled on the generic
// RecursiveUnion plan — in both spellings (WITH RECURSIVE, WITH ITERATE),
// at batch sizes 1, 7 and the default, over 20 seeds. All four must
// return the identical value AND leave the random stream at the identical
// position: the same number of random() draws, which for walk means
// neither the lowering nor the memos dropped or reordered a stray of the
// robot.
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
				lowered := planCompiled(t, s.Catalog(), res, plan.Options{})
				unmemoised := planCompiled(t, s.Catalog(), res, plan.Options{Skip: plan.PassMemo})
				generic := planCompiled(t, s.Catalog(), res, plan.Options{Skip: plan.PassLoop})
				// The regimes are what they claim to be. (Loop-less
				// functions compile to one expression: nothing to lower.)
				recursive := strings.Contains(res.SQL, "WITH ")
				if lt := strings.Join(lowered.p.Explain(), "\n"); recursive &&
					(lowered.p.LoopedCTEs != 1 || strings.Contains(lt, "RecursiveUnion")) {
					t.Fatalf("iterate=%v: compiled plan was not lowered:\n%s", iterate, lt)
				}
				// Every embedded query of the corpus is pure and reads no
				// CTE: each one gets a memo, and skipping the memo pass takes them away.
				if lt := strings.Join(lowered.p.Explain(), "\n"); strings.Count(lt, "Memo [") != strings.Count(lt, "\n  subplan(") {
					t.Fatalf("iterate=%v: not every embedded query is memoised:\n%s", iterate, lt)
				}
				if ut := strings.Join(unmemoised.p.Explain(), "\n"); strings.Contains(ut, "Memo") {
					t.Fatalf("iterate=%v: memo-skipped plan has a memo:\n%s", iterate, ut)
				}
				if gt := strings.Join(generic.p.Explain(), "\n"); generic.p.LoopedCTEs != 0 || strings.Contains(gt, "Let") ||
					(recursive && !strings.Contains(gt, "RecursiveUnion")) {
					t.Fatalf("iterate=%v: loop-skipped plan is not the generic plan:\n%s", iterate, gt)
				}
				for _, batch := range []int{1, 7, 0} {
					for seed := range want {
						for _, regime := range []struct {
							label string
							run   compiledRun
						}{{"loop", lowered}, {"unmemoised", unmemoised}, {"generic", generic}} {
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
