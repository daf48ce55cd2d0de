// Full-plan golden: every statement whose plan the planner's rewrite
// passes decide — the compiled corpus bodies in both spellings and their
// call queries, the plain-SQL differential grid, and the benchmark's
// statement texts — rendered as EXPLAIN plus the operator tree of every
// plan nested in an expression, and pinned byte for byte. A refactor of
// the planner's traversal must leave this file unchanged; a deliberate
// plan change rewrites it with
//
//	go test -run TestFullPlanGolden -update .
package plsqlaway_test

import (
	"flag"
	"fmt"
	"os"
	"reflect"
	"sort"
	"strings"
	"testing"

	"plsqlaway"
	"plsqlaway/internal/catalog"
	"plsqlaway/internal/plan"
	"plsqlaway/internal/sqlparser"
	"plsqlaway/internal/workload"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/fullplan.golden from the current planner")

const fullPlanGolden = "testdata/fullplan.golden"

var (
	planPkg     = reflect.TypeOf(plan.Plan{}).PkgPath()
	subplanType = reflect.TypeOf(&plan.SubplanExpr{})
)

// nestedSubplans returns every SubplanExpr reachable from v, in the order
// a depth-first walk over the exported fields of the planner's types
// meets them. The walk is by reflection, so it leans on none of the
// planner's own traversal code — the code this golden checks.
func nestedSubplans(v reflect.Value) []*plan.SubplanExpr {
	var out []*plan.SubplanExpr
	seen := map[uintptr]bool{}
	var visit func(v reflect.Value)
	visit = func(v reflect.Value) {
		switch v.Kind() {
		case reflect.Interface:
			if !v.IsNil() {
				visit(v.Elem())
			}
		case reflect.Pointer:
			if v.IsNil() || v.Type().Elem().PkgPath() != planPkg || seen[v.Pointer()] {
				return
			}
			seen[v.Pointer()] = true
			if v.Type() == subplanType {
				out = append(out, v.Interface().(*plan.SubplanExpr))
			}
			visit(v.Elem())
		case reflect.Struct:
			if v.Type().PkgPath() != planPkg {
				return
			}
			for i := 0; i < v.NumField(); i++ {
				if v.Type().Field(i).IsExported() {
					visit(v.Field(i))
				}
			}
		case reflect.Slice, reflect.Array:
			for i := 0; i < v.Len(); i++ {
				visit(v.Index(i))
			}
		}
	}
	visit(v)
	return out
}

// subplanTrees renders the operator tree of each plan nested in p's
// expressions, in nestedSubplans order.
func subplanTrees(p *plan.Plan) []string {
	var out []string
	for _, sp := range nestedSubplans(reflect.ValueOf(p)) {
		var sb strings.Builder
		for _, l := range (&plan.Plan{Root: sp.Plan}).Explain()[1:] {
			sb.WriteString("  " + l + "\n")
		}
		out = append(out, sb.String())
	}
	return out
}

// fullPlan renders p as EXPLAIN does, then the tree of each nested
// subplan, which EXPLAIN shows only as a mention (outside a Loop).
func fullPlan(p *plan.Plan) string {
	var sb strings.Builder
	for _, l := range p.Explain() {
		sb.WriteString(l + "\n")
	}
	for i, tree := range subplanTrees(p) {
		fmt.Fprintf(&sb, "subplan %d:\n%s", i+1, tree)
	}
	return sb.String()
}

// buildPlan plans sql against cat the way a session does (default
// options), with hook binding unresolved names to parameters.
func buildPlan(t *testing.T, cat *catalog.Catalog, sql string, hook plan.VarHook) *plan.Plan {
	t.Helper()
	q, err := sqlparser.ParseQuery(sql)
	if err != nil {
		t.Fatalf("parse %q: %v", sql, err)
	}
	p, err := plan.Build(cat, q, plan.Options{Hook: hook})
	if err != nil {
		t.Fatalf("plan %q: %v", sql, err)
	}
	return p
}

// The benchmark's statement texts (its inline_scan, remote_point,
// remote_stream and write_durable workloads), copied so the golden pins
// the plans the benchmark measures. UPDATE … SET v = v + 1 WHERE k = $1
// runs its row clauses through the planner as SELECT <where>, <set> FROM
// the table; those are the texts given here.
const (
	benchActionOf = `
CREATE FUNCTION action_of(l coord) RETURNS text AS $$
BEGIN
  RETURN (SELECT p.action FROM policy AS p WHERE p.loc = l);
END
$$ LANGUAGE plpgsql`
	benchFSMNext = `
CREATE FUNCTION fsm_next(s int, c int) RETURNS int AS $$
BEGIN
  RETURN (SELECT f.next FROM fsm AS f WHERE f.state = s AND f.class = c);
END
$$ LANGUAGE plpgsql`
	benchTables = `CREATE TABLE probes (id int, loc coord, st int, cls int, tag text, x float);
CREATE TABLE kv (k int, v int); CREATE INDEX kv_k ON kv (k);
CREATE TABLE wide (k int, v float, s text);
CREATE TABLE acct (k int, v int, pad text); CREATE INDEX acct_k ON acct (k)`
)

var benchStatements = []string{
	"SELECT count(*), sum(pr.x) FROM probes AS pr WHERE pr.st = 1 AND pr.x > 50.0",
	"SELECT count(action_of(pr.loc)) FROM probes AS pr",
	"SELECT count(p.action) FROM probes AS pr, policy AS p WHERE pr.loc = p.loc",
	"SELECT sum(fsm_next(pr.st, pr.cls)) FROM probes AS pr",
	"SELECT sum(f.next) FROM probes AS pr, fsm AS f WHERE f.state = pr.st AND f.class = pr.cls",
	"SELECT pr.tag, count(*), sum(pr.x) FROM probes AS pr GROUP BY pr.tag ORDER BY pr.tag",
	"WITH RECURSIVE r(n, d) AS (SELECT $1, 0 UNION ALL SELECT e.dst, r.d + 1 FROM r, edges AS e WHERE e.src = r.n AND r.d < $2) SELECT count(*), max(r.n) FROM r",
	"SELECT v FROM kv WHERE k = $1",
	"SELECT action_of(coord($1, $2))",
	"SELECT k = $1, v + 1 FROM kv",
	"SELECT w.k, w.v, w.s FROM wide AS w",
	"SELECT k = $1, v + 1 FROM acct",
}

// fullPlanText renders every covered statement with render, in a fixed
// order.
func fullPlanText(t *testing.T, render func(*plan.Plan) string) string {
	t.Helper()
	s := newWorkloadEngine(t).NewSession()
	if err := s.Exec(benchTables); err != nil {
		t.Fatal(err)
	}
	for _, src := range []string{benchActionOf, benchFSMNext} {
		res, err := plsqlaway.Compile(src, plsqlaway.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if err := plsqlaway.Install(s, res.Function.Name, res); err != nil {
			t.Fatal(err)
		}
	}
	var names []string
	for name := range workload.Corpus {
		names = append(names, name)
	}
	sort.Strings(names)

	var sb strings.Builder
	section := func(label string, p *plan.Plan) {
		fmt.Fprintf(&sb, "=== %s\n%s\n", label, render(p))
	}
	for _, name := range names {
		src := workload.Corpus[name]
		if err := s.Exec(src); err != nil {
			t.Fatalf("install %s: %v", name, err)
		}
		for _, sp := range []struct {
			suffix  string
			iterate bool
		}{{"_c", false}, {"_ci", true}} {
			res, err := plsqlaway.Compile(src, plsqlaway.Options{Iterate: sp.iterate})
			if err != nil {
				t.Fatalf("compile %s: %v", name, err)
			}
			if err := plsqlaway.Install(s, name+sp.suffix, res); err != nil {
				t.Fatal(err)
			}
			hook := func(n string) (int, bool) {
				for i, p := range res.Params {
					if p.Name == n {
						return i + 1, true
					}
				}
				return 0, false
			}
			section("body "+name+sp.suffix, buildPlan(t, s.Catalog(), res.SQL, hook))
		}
		for _, fn := range []string{name, name + "_c", name + "_ci"} {
			q := fmt.Sprintf(differentialGrid[name].tmpl, fn)
			section("call "+q, buildPlan(t, s.Catalog(), q, nil))
		}
	}
	for _, q := range batchDiffQueries {
		section("grid "+q, buildPlan(t, s.Catalog(), q, nil))
	}
	for _, q := range benchStatements {
		section("bench "+q, buildPlan(t, s.Catalog(), q, nil))
	}
	return sb.String()
}

// TestFullPlanGolden pins the full plan of every covered statement.
func TestFullPlanGolden(t *testing.T) {
	got := fullPlanText(t, fullPlan)
	if *updateGolden {
		if err := os.WriteFile(fullPlanGolden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(fullPlanGolden)
	if err != nil {
		t.Fatalf("%v (record it with -update)", err)
	}
	if got == string(want) {
		return
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gl) && i < len(wl); i++ {
		if gl[i] != wl[i] {
			lo := max(0, i-8)
			t.Fatalf("full plans differ from %s at line %d:\ngot:\n%s\nwant:\n%s", fullPlanGolden, i+1,
				strings.Join(gl[lo:min(len(gl), i+4)], "\n"), strings.Join(wl[lo:min(len(wl), i+4)], "\n"))
		}
	}
	t.Fatalf("full plans differ from %s in length: got %d lines, want %d", fullPlanGolden, len(gl), len(wl))
}

// TestSubqueryPositionsPlanAlike: a subquery gets the same access path
// and join wherever it sits — in the SELECT list, a WHERE predicate,
// LIMIT, a string_agg separator or a window's PARTITION BY — and each
// statement returns the rows it returns with the subquery's value
// written in as a literal.
func TestSubqueryPositionsPlanAlike(t *testing.T) {
	s := plsqlaway.NewEngine().NewSession()
	if err := s.Exec(`CREATE TABLE t (a int, b int, s text); CREATE INDEX t_a ON t (a);
INSERT INTO t VALUES (1, 2, 'p'), (2, 3, 'q'), (3, 1, 'r'), (4, 4, 's'), (5, 2, 't')`); err != nil {
		t.Fatal(err)
	}
	subqueries := []struct{ sql, op string }{
		{"(SELECT w.b FROM t AS w WHERE w.a = 2)", "IndexScan t"},
		{"(SELECT max(x.b) FROM t AS x, t AS y WHERE x.a = y.b)", "HashJoin"},
	}
	positions := []string{
		"SELECT a FROM t WHERE a <= %s ORDER BY a",
		"SELECT a FROM t ORDER BY a LIMIT %s",
		"SELECT string_agg(s, CAST(%s AS text)) FROM t",
		"SELECT a, row_number() OVER (PARTITION BY %s ORDER BY a) FROM t ORDER BY a",
	}
	rows := func(sql string) string {
		t.Helper()
		res, err := s.Query(sql)
		if err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
		return res.Format()
	}
	for _, sq := range subqueries {
		ref := subplanTrees(buildPlan(t, s.Catalog(), "SELECT "+sq.sql+" FROM t", nil))
		if len(ref) != 1 || !strings.Contains(ref[0], sq.op) {
			t.Fatalf("%s in the SELECT list plans to %q, want one subplan with %s", sq.sql, ref, sq.op)
		}
		v, err := s.QueryValue("SELECT " + sq.sql)
		if err != nil {
			t.Fatal(err)
		}
		for _, pos := range positions {
			sql := fmt.Sprintf(pos, sq.sql)
			trees := subplanTrees(buildPlan(t, s.Catalog(), sql, nil))
			if len(trees) != 1 || trees[0] != ref[0] {
				t.Errorf("%s: subplans\n%s\nwant the SELECT list's\n%s", sql, strings.Join(trees, "\n"), ref[0])
			}
			if got, want := rows(sql), rows(fmt.Sprintf(pos, "(0 + "+v.String()+")")); got != want {
				t.Errorf("%s: rows\n%s\nwant\n%s", sql, got, want)
			}
		}
	}
}
