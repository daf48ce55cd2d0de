package main

import (
	"fmt"
	"math/rand/v2"

	"plsqlaway"
	"plsqlaway/internal/obs"
	"plsqlaway/internal/workload"
)

// The udf pair runs the paper's four corpus functions (Table 1, Fig. 10)
// once each per op, a quartet, with identical arguments and session
// seeds: udf_compiled calls the WITH RECURSIVE forms plsqlaway.Compile
// emits, udf_interp calls the PL/pgSQL originals through plinterp. Each
// is the other's reference.
const (
	udfIterations = 64   // walk steps, parse input length, traverse hops
	udfDistinct   = 25   // distinct argument tuples the schedule cycles through
	udfGraphNodes = 4096 // traverse's successor graph
	udfWorldSeed  = 7
	udfGraphSeed  = 3

	udfCompiledOps = 400
	udfInterpOps   = 200
)

var quartet = []string{"walk", "parse", "traverse", "fibonacci"}

// udfPinned is the sum of every answer of the default-seed schedule's
// distinct quartets: interpreted and compiled must both hit it.
const udfPinned = 27777724494380

var udfCompiled = workloadDef{
	name: "udf_compiled", clients: 1, tailPct: 95, opsPerRound: udfCompiledOps, quickOps: 10,
	why:   "Paper's after line: walk/parse/traverse/fibonacci compiled to WITH RECURSIVE. 1 embedded session, closed loop, 400 quartets/round, p95. Time is in exec's recursive union and storage tuplestores.",
	setup: func(c *config, ops int, reg *obs.Registry) (instance, error) { return setupUDF(c, ops, reg, true) },
}

var udfInterp = workloadDef{
	name: "udf_interp", clients: 1, tailPct: 95, opsPerRound: udfInterpOps, quickOps: 5,
	why:   "Paper's before line: the same quartets interpreted by plinterp. 1 embedded session, closed loop, 200 quartets/round, p95. Thousands of tiny plan-cached queries: per-statement overhead dominates.",
	setup: func(c *config, ops int, reg *obs.Registry) (instance, error) { return setupUDF(c, ops, reg, false) },
}

// udfArgs is one quartet's arguments.
type udfArgs struct {
	seed        uint64
	x, y        int64
	input       string
	start, fibN int64
	ref         [4]string // answers from the other regime
}

type udfInstance struct {
	c        *config
	e        *plsqlaway.Engine
	s        *plsqlaway.Session
	compiled bool
	ops      int
	args     []udfArgs
}

func installInterpreted(s *plsqlaway.Session) error {
	for _, name := range quartet {
		if err := s.Exec(workload.Corpus[name]); err != nil {
			return fmt.Errorf("install %s: %w", name, err)
		}
	}
	return nil
}

func installCompiled(s *plsqlaway.Session) (sqlBytes int, err error) {
	for _, name := range quartet {
		res, err := plsqlaway.Compile(workload.Corpus[name], plsqlaway.Options{})
		if err != nil {
			return 0, fmt.Errorf("compile %s: %w", name, err)
		}
		if err := plsqlaway.Install(s, name+"_c", res); err != nil {
			return 0, fmt.Errorf("install %s_c: %w", name, err)
		}
		sqlBytes += len(res.SQL)
	}
	return sqlBytes, nil
}

// installCorpusTables creates the robot grid, the FSM and the successor
// graph the corpus functions read. World and graph are the same for every
// seed: the seed shapes the schedule, not the data the functions walk.
func installCorpusTables(s *plsqlaway.Session) error {
	if err := workload.NewRobotWorld(5, 5, udfWorldSeed).Install(s); err != nil {
		return err
	}
	if err := workload.InstallFSM(s); err != nil {
		return err
	}
	return workload.InstallGraph(s, udfGraphNodes, udfGraphSeed)
}

func setupUDF(c *config, ops int, reg *obs.Registry, compiled bool) (instance, error) {
	e := plsqlaway.NewEngine(c.engineOpts(reg)...)
	s := e.NewSession()
	if err := installCorpusTables(s); err != nil {
		return nil, err
	}
	in := &udfInstance{c: c, e: e, s: s, compiled: compiled, ops: ops}
	if compiled {
		if _, err := installCompiled(s); err != nil {
			return nil, err
		}
	} else if err := installInterpreted(s); err != nil {
		return nil, err
	}
	// The seed decides which arguments meet in a quartet and in what
	// order, never how much work the schedule holds: every seed draws from
	// the same pools (all 25 grid cells, 25 fixed start nodes, 25 fixed n),
	// so runs with different seeds stay comparable.
	rng := rand.New(rand.NewPCG(c.seed, 0x756466))
	cells, starts, fibs := rng.Perm(udfDistinct), rng.Perm(udfDistinct), rng.Perm(udfDistinct)
	for i := 0; i < udfDistinct; i++ {
		in.args = append(in.args, udfArgs{
			seed:  c.seed*1000 + uint64(i),
			x:     int64(cells[i] % 5),
			y:     int64(cells[i] / 5),
			input: workload.MakeParseInput(udfIterations, c.seed+uint64(i)),
			start: int64(starts[i] * 120),
			fibN:  int64(40 + fibs[i]),
		})
	}
	return in, nil
}

// quartetStmts lists one quartet's four statements in the given form.
func quartetStmts(a *udfArgs, compiled bool) [4]stmt {
	sfx := "" // the originals keep the corpus names, the compiled twins get _c
	if compiled {
		sfx = "_c"
	}
	return [4]stmt{
		{"SELECT walk" + sfx + "($1, $2, $3, $4)", []plsqlaway.Value{plsqlaway.Coord(a.x, a.y), plsqlaway.Int(1e9), plsqlaway.Int(-1e9), plsqlaway.Int(udfIterations)}},
		{"SELECT parse" + sfx + "($1)", []plsqlaway.Value{plsqlaway.Text(a.input)}},
		{"SELECT traverse" + sfx + "($1, $2)", []plsqlaway.Value{plsqlaway.Int(a.start), plsqlaway.Int(udfIterations)}},
		{"SELECT fibonacci" + sfx + "($1)", []plsqlaway.Value{plsqlaway.Int(a.fibN)}},
	}
}

// quartetCalls runs the four functions in the given form and returns
// their answers as text.
func (in *udfInstance) quartetCalls(a *udfArgs, compiled bool, c *clientRec, span, index int) ([4]string, error) {
	calls := quartetStmts(a, compiled)
	var out [4]string
	in.s.Seed(a.seed)
	for i, q := range calls {
		var v plsqlaway.Value
		err := c.call(span, "engine.query", index, func() (err error) {
			v, err = in.s.QueryValue(q.sql, q.params...)
			return err
		})
		if err != nil {
			return out, fmt.Errorf("%s: %w", quartet[i], err)
		}
		out[i] = v.String()
	}
	return out, nil
}

func (in *udfInstance) prepare() error {
	// The reference regime's functions are the checker's, not the
	// system's set-up, so they install here, outside setup_s.
	if in.compiled {
		if err := installInterpreted(in.s); err != nil {
			return err
		}
	} else if _, err := installCompiled(in.s); err != nil {
		return err
	}
	var sum int64
	for i := range in.args {
		a := &in.args[i]
		ref, err := in.quartetCalls(a, !in.compiled, nil, 0, i)
		if err != nil {
			return fmt.Errorf("reference quartet %d: %w", i, err)
		}
		a.ref = ref
		for _, v := range ref {
			var n int64
			fmt.Sscan(v, &n)
			sum += n
		}
	}
	if in.c.seed == defaultSeed && sum != udfPinned {
		return fmt.Errorf("pinned answer sum for seed %d: got %d, want %d", defaultSeed, sum, udfPinned)
	}
	if in.c.wrongRef {
		in.args[0].ref[0] += "x"
	}
	return nil
}

func (in *udfInstance) round(r *round) {
	c := r.clients[0]
	for i := 0; i < in.ops; i++ {
		a := &in.args[i%len(in.args)]
		c.op(i, func(span int) error {
			got, err := in.quartetCalls(a, in.compiled, c, span, i)
			if err != nil {
				return err
			}
			if got != a.ref {
				return fmt.Errorf("quartet %v, reference %v", got, a.ref)
			}
			return nil
		})
	}
}

func (in *udfInstance) finish() error             { return nil }
func (in *udfInstance) engine() *plsqlaway.Engine { return in.e }
func (in *udfInstance) close()                    {}

func (in *udfInstance) statements() []stmt {
	calls := quartetStmts(&in.args[0], in.compiled)
	return calls[:]
}

// layer reports the paper's Table 1 for the interpreted quartets: the
// session's profile counters over one more pass of the schedule's
// distinct quartets, so the shares are per op, not per process.
func (in *udfInstance) layer(m map[string]float64, opsPerS float64) {
	if in.compiled {
		return
	}
	ctr := in.s.Counters()
	ctr.Reset()
	for i := range in.args {
		if _, err := in.quartetCalls(&in.args[i], false, nil, 0, i); err != nil {
			return
		}
	}
	start, run, end, interp := ctr.Breakdown()
	m["plinterp.ctx_switches"] = float64(ctr.CtxSwitchFQ) / float64(len(in.args))
	m["plinterp.start_pct"] = start
	m["plinterp.run_pct"] = run
	m["plinterp.end_pct"] = end
	m["plinterp.interp_pct"] = interp
}
