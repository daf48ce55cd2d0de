package main

import (
	"fmt"
	"math/rand/v2"
	"sort"
	"strings"

	"plsqlaway"
	"plsqlaway/internal/obs"
	"plsqlaway/internal/workload"
)

// inline_scan is the set-oriented side: one cycle of five analytic
// queries over a probe table, two of which call compiled lookup UDFs
// that the planner must inline into hash joins.
const (
	inlineProbes    = 10_000 // rows in probes; every query but the recursive one scans them all
	inlineQuickRows = 500
	inlineOps       = 64
	inlineDepth     = 8 // graph-frontier recursion depth
	inlineStarts    = 16
)

// The two lookup functions are PL/pgSQL on purpose: the workload measures
// what the compiler and the planner's inliner make of them.
const (
	actionOfSrc = `
CREATE FUNCTION action_of(l coord) RETURNS text AS $$
BEGIN
  RETURN (SELECT p.action FROM policy AS p WHERE p.loc = l);
END
$$ LANGUAGE plpgsql`
	fsmNextSrc = `
CREATE FUNCTION fsm_next(s int, c int) RETURNS int AS $$
BEGIN
  RETURN (SELECT f.next FROM fsm AS f WHERE f.state = s AND f.class = c);
END
$$ LANGUAGE plpgsql`
)

const (
	qFilterAgg = "SELECT count(*), sum(pr.x) FROM probes AS pr WHERE pr.st = 1 AND pr.x > 50.0"
	qActionOf  = "SELECT count(action_of(pr.loc)) FROM probes AS pr"
	qActionRef = "SELECT count(p.action) FROM probes AS pr, policy AS p WHERE pr.loc = p.loc"
	qFSMNext   = "SELECT sum(fsm_next(pr.st, pr.cls)) FROM probes AS pr"
	qFSMRef    = "SELECT sum(f.next) FROM probes AS pr, fsm AS f WHERE f.state = pr.st AND f.class = pr.cls"
	qGroupText = "SELECT pr.tag, count(*), sum(pr.x) FROM probes AS pr GROUP BY pr.tag ORDER BY pr.tag"
	qFrontier  = "WITH RECURSIVE r(n, d) AS (SELECT $1, 0 UNION ALL SELECT e.dst, r.d + 1 FROM r, edges AS e WHERE e.src = r.n AND r.d < $2) SELECT count(*), max(r.n) FROM r"
)

var inlineScan = workloadDef{
	name: "inline_scan", clients: 1, tailPct: 90, opsPerRound: inlineOps, quickOps: 3,
	why:   "Set-oriented side: 5-query cycles over 10k probe rows (filter-agg, two inlined-UDF hash joins, text group-by, recursive frontier). 1 embedded session, closed loop, 64 cycles/round, p90.",
	setup: setupInline,
}

type inlineInstance struct {
	c      *config
	e      *plsqlaway.Engine
	s      *plsqlaway.Session
	ops    int
	rows   int
	starts []int64
	// References, as rendered result text.
	refFilter, refAction, refFSM, refGroup string
	refFrontier                            map[int64]string
	// Generator-side aggregates the references are computed from.
	filterN   int64
	filterSum float64
	groupN    map[string]int64
	groupSum  map[string]float64
}

// bulkInsert loads n generated rows, 1000 per INSERT statement.
func bulkInsert(ex workload.Execer, table string, n int, row func(i int) string) error {
	var sb strings.Builder
	for lo := 0; lo < n; lo += 1000 {
		sb.Reset()
		sb.WriteString("INSERT INTO " + table + " VALUES ")
		for i := lo; i < lo+1000 && i < n; i++ {
			if i > lo {
				sb.WriteString(", ")
			}
			sb.WriteString(row(i))
		}
		if err := ex.Exec(sb.String()); err != nil {
			return fmt.Errorf("load %s: %w", table, err)
		}
	}
	return nil
}

// installLookups compiles and installs action_of and fsm_next.
func installLookups(s *plsqlaway.Session, srcs ...string) error {
	for _, src := range srcs {
		res, err := plsqlaway.Compile(src, plsqlaway.Options{})
		if err != nil {
			return err
		}
		if err := plsqlaway.Install(s, res.Function.Name, res); err != nil {
			return err
		}
	}
	return nil
}

func setupInline(c *config, ops int, reg *obs.Registry) (instance, error) {
	e := plsqlaway.NewEngine(c.engineOpts(reg)...)
	s := e.NewSession()
	if err := installCorpusTables(s); err != nil {
		return nil, err
	}
	if err := installLookups(s, actionOfSrc, fsmNextSrc); err != nil {
		return nil, err
	}
	in := &inlineInstance{c: c, e: e, s: s, ops: ops, rows: c.scale(inlineProbes, inlineQuickRows),
		groupN: map[string]int64{}, groupSum: map[string]float64{}}
	if err := s.Exec("CREATE TABLE probes (id int, loc coord, st int, cls int, tag text, x float)"); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewPCG(c.seed, 0x696e6c))
	err := bulkInsert(s, "probes", in.rows, func(i int) string {
		st, cls := rng.IntN(3), rng.IntN(3)+1
		tag := fmt.Sprintf("tag%02d", rng.IntN(17))
		x := float64(rng.IntN(200)) / 2 // multiples of 0.5 sum exactly in any order
		if st == 1 && x > 50 {
			in.filterN++
			in.filterSum += x
		}
		in.groupN[tag]++
		in.groupSum[tag] += x
		return fmt.Sprintf("(%d, coord(%d, %d), %d, %d, '%s', %g)", i, rng.IntN(5), rng.IntN(5), st, cls, tag, x)
	})
	if err != nil {
		return nil, err
	}
	// Frontier sizes depend on the start node, so every seed uses the
	// same start nodes and only their order is drawn.
	for _, i := range rng.Perm(inlineStarts) {
		in.starts = append(in.starts, int64(i*200))
	}
	return in, nil
}

// render flattens a result to text for comparison with a reference.
func render(rows [][]plsqlaway.Value) string {
	var sb strings.Builder
	for _, row := range rows {
		for _, v := range row {
			sb.WriteString(v.String())
			sb.WriteByte('|')
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}

func (in *inlineInstance) query(sql string, params ...plsqlaway.Value) (string, error) {
	res, err := in.s.Query(sql, params...)
	if err != nil {
		return "", err
	}
	return render(res.Rows), nil
}

func (in *inlineInstance) prepare() error {
	// Scan and group-by: the generator's own arithmetic.
	in.refFilter = render([][]plsqlaway.Value{{plsqlaway.Int(in.filterN), plsqlaway.Float(in.filterSum)}})
	var tags []string
	for t := range in.groupN {
		tags = append(tags, t)
	}
	sort.Strings(tags)
	var group [][]plsqlaway.Value
	for _, t := range tags {
		group = append(group, []plsqlaway.Value{plsqlaway.Text(t), plsqlaway.Int(in.groupN[t]), plsqlaway.Float(in.groupSum[t])})
	}
	in.refGroup = render(group)
	// Inlined UDF calls: the joins a programmer would write instead.
	var err error
	if in.refAction, err = in.query(qActionRef); err != nil {
		return err
	}
	if in.refFSM, err = in.query(qFSMRef); err != nil {
		return err
	}
	// Frontier: breadth-first expansion in Go over the edge list read
	// back with a plain scan.
	res, err := in.s.Query("SELECT e.src, e.dst FROM edges AS e")
	if err != nil {
		return err
	}
	succ := map[int64][]int64{}
	for _, r := range res.Rows {
		succ[r[0].Int()] = append(succ[r[0].Int()], r[1].Int())
	}
	in.refFrontier = map[int64]string{}
	for _, start := range in.starts {
		level := []int64{start}
		count, maxN := int64(0), start
		for d := 0; len(level) > 0; d++ {
			var next []int64
			for _, n := range level {
				count++
				if n > maxN {
					maxN = n
				}
				if d < inlineDepth {
					next = append(next, succ[n]...)
				}
			}
			level = next
		}
		in.refFrontier[start] = render([][]plsqlaway.Value{{plsqlaway.Int(count), plsqlaway.Int(maxN)}})
	}
	if in.c.wrongRef {
		in.refFilter += "x"
	}
	return nil
}

func (in *inlineInstance) round(r *round) {
	c := r.clients[0]
	for i := 0; i < in.ops; i++ {
		start := in.starts[i%len(in.starts)]
		c.op(i, func(span int) error {
			for _, q := range []struct {
				sql, ref string
				params   []plsqlaway.Value
			}{
				{qFilterAgg, in.refFilter, nil},
				{qActionOf, in.refAction, nil},
				{qFSMNext, in.refFSM, nil},
				{qGroupText, in.refGroup, nil},
				{qFrontier, in.refFrontier[start], []plsqlaway.Value{plsqlaway.Int(start), plsqlaway.Int(inlineDepth)}},
			} {
				var got string
				err := c.call(span, "engine.query", i, func() (err error) {
					got, err = in.query(q.sql, q.params...)
					return err
				})
				if err != nil {
					return err
				}
				if got != q.ref {
					return fmt.Errorf("%s: got %q, reference %q", q.sql, got, q.ref)
				}
			}
			return nil
		})
	}
}

func (in *inlineInstance) finish() error             { return nil }
func (in *inlineInstance) engine() *plsqlaway.Engine { return in.e }
func (in *inlineInstance) close()                    {}

func (in *inlineInstance) statements() []stmt {
	return []stmt{{qFilterAgg, nil}, {qActionOf, nil}, {qFSMNext, nil}, {qGroupText, nil},
		{qFrontier, []plsqlaway.Value{plsqlaway.Int(in.starts[0]), plsqlaway.Int(inlineDepth)}}}
}

// layer reports input rows scanned per second: four full scans of probes
// per cycle (the frontier query reads edges, not probes).
func (in *inlineInstance) layer(m map[string]float64, opsPerS float64) {
	m["exec.rows_per_s"] = float64(4*in.rows) * opsPerS
}
