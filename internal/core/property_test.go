package core

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"plsqlaway/internal/engine"
	"plsqlaway/internal/sqltypes"
)

// progGen generates random PL/pgSQL programs over integer arithmetic with
// nested IF / WHILE / FOR control flow. Every generated program terminates
// (loops are bounded) and uses only deterministic expressions, so the
// interpreter and the compiled WITH RECURSIVE form must agree exactly.
type progGen struct {
	r       *rand.Rand
	vars    []string
	depth   int
	buf     strings.Builder
	ind     string
	loopSeq int
}

func (g *progGen) w(format string, args ...any) {
	g.buf.WriteString(g.ind)
	fmt.Fprintf(&g.buf, format, args...)
	g.buf.WriteString("\n")
}

// expr yields a small integer expression over the declared variables.
// Division/modulo guard against zero via abs(x)+1 denominators.
func (g *progGen) expr(depth int) string {
	if depth <= 0 || g.r.Intn(3) == 0 {
		if g.r.Intn(2) == 0 {
			return fmt.Sprintf("%d", g.r.Intn(19)-9)
		}
		return g.vars[g.r.Intn(len(g.vars))]
	}
	a, b := g.expr(depth-1), g.expr(depth-1)
	switch g.r.Intn(6) {
	case 0:
		return fmt.Sprintf("(%s + %s)", a, b)
	case 1:
		return fmt.Sprintf("(%s - %s)", a, b)
	case 2:
		return fmt.Sprintf("(%s * %s)", a, b)
	case 3:
		return fmt.Sprintf("(%s / (abs(%s) + 1))", a, b)
	case 4:
		return fmt.Sprintf("(%s %% (abs(%s) + 1))", a, b)
	default:
		return fmt.Sprintf("least(%s, %s)", a, b)
	}
}

func (g *progGen) cond() string {
	ops := []string{"<", "<=", ">", ">=", "=", "<>"}
	c := fmt.Sprintf("%s %s %s", g.expr(1), ops[g.r.Intn(len(ops))], g.expr(1))
	if g.r.Intn(4) == 0 {
		c += fmt.Sprintf(" AND %s %s %s", g.expr(1), ops[g.r.Intn(len(ops))], g.expr(1))
	}
	return c
}

func (g *progGen) stmts(n int) {
	for i := 0; i < n; i++ {
		g.stmt()
	}
}

func (g *progGen) stmt() {
	v := g.vars[g.r.Intn(len(g.vars))]
	choice := g.r.Intn(10)
	if g.depth >= 2 && choice >= 6 {
		choice = g.r.Intn(6) // cap nesting
	}
	switch {
	case choice < 5: // assignment
		g.w("%s = %s;", v, g.expr(2))
	case choice < 7: // IF
		g.w("IF %s THEN", g.cond())
		g.nest(func() { g.stmts(1 + g.r.Intn(2)) })
		if g.r.Intn(2) == 0 {
			g.w("ELSE")
			g.nest(func() { g.stmts(1 + g.r.Intn(2)) })
		}
		g.w("END IF;")
	case choice < 9: // bounded FOR (fresh variable per loop, as PL/pgSQL scopes them)
		lo, hi := g.r.Intn(4), 2+g.r.Intn(6)
		g.loopSeq++
		iv := fmt.Sprintf("it%d", g.loopSeq)
		g.w("FOR %s IN %d..%d LOOP", iv, lo, hi)
		g.vars = append(g.vars, iv)
		g.nest(func() { g.stmts(1 + g.r.Intn(2)) })
		g.vars = g.vars[:len(g.vars)-1]
		g.w("END LOOP;")
	default: // bounded WHILE with a dedicated counter
		cv := g.vars[0] // w0 is reserved as a loop fuel counter
		g.w("%s = %d;", cv, 3+g.r.Intn(5))
		g.w("WHILE %s > 0 LOOP", cv)
		g.nest(func() {
			g.stmts(1)
			g.w("%s = %s - 1;", cv, cv)
		})
		g.w("END LOOP;")
	}
}

func (g *progGen) nest(fn func()) {
	saved := g.ind
	g.ind += "  "
	g.depth++
	fn()
	g.depth--
	g.ind = saved
}

// generate builds a full CREATE FUNCTION source with parameters p1, p2.
func generateProgram(seed int64) string {
	g := &progGen{r: rand.New(rand.NewSource(seed))}
	g.vars = []string{"w0", "v1", "v2", "v3", "p1", "p2"}
	g.ind = "  "
	g.stmts(3 + g.r.Intn(4))
	body := g.buf.String()
	return fmt.Sprintf(`CREATE FUNCTION prog(p1 int, p2 int) RETURNS int AS $$
DECLARE
  w0 int = 0;
  v1 int = 1;
  v2 int = %d;
  v3 int = -2;
BEGIN
%s  RETURN v1 + 10 * v2 + 100 * v3 + 1000 * w0;
END;
$$ LANGUAGE plpgsql`, g.r.Intn(7), body)
}

// TestRandomProgramsDifferential is the central property test: for many
// random programs, the interpreter and the compiled pure-SQL form must
// produce identical results on several inputs, in both CTE modes.
func TestRandomProgramsDifferential(t *testing.T) {
	seeds := 60
	if testing.Short() {
		seeds = 15
	}
	for seed := int64(0); seed < int64(seeds); seed++ {
		src := generateProgram(seed)
		s := engine.New().NewSession()
		if err := s.Exec(src); err != nil {
			t.Fatalf("seed %d: install: %v\n%s", seed, err, src)
		}
		res, err := Compile(src, Options{})
		if err != nil {
			t.Fatalf("seed %d: compile: %v\n%s", seed, err, src)
		}
		if err := s.InstallCompiled("prog_c", res.Params, res.ReturnType, res.Query); err != nil {
			t.Fatalf("seed %d: install compiled: %v", seed, err)
		}
		resIter, err := Compile(src, Options{Iterate: true})
		if err != nil {
			t.Fatalf("seed %d: compile iterate: %v", seed, err)
		}
		if err := s.InstallCompiled("prog_i", resIter.Params, resIter.ReturnType, resIter.Query); err != nil {
			t.Fatalf("seed %d: install iterate: %v", seed, err)
		}
		for _, args := range [][2]int64{{0, 0}, {1, -1}, {5, 3}, {-7, 11}} {
			p1, p2 := sqltypes.NewInt(args[0]), sqltypes.NewInt(args[1])
			want, err := s.QueryValue("SELECT prog($1, $2)", p1, p2)
			if err != nil {
				t.Fatalf("seed %d args %v: interpreted: %v\n%s", seed, args, err, src)
			}
			got, err := s.QueryValue("SELECT prog_c($1, $2)", p1, p2)
			if err != nil {
				t.Fatalf("seed %d args %v: compiled: %v\n%s\n%s", seed, args, err, src, res.SQL)
			}
			if !sqltypes.Identical(want, got) {
				t.Fatalf("seed %d args %v: interpreted=%v compiled=%v\n%s\n%s",
					seed, args, want, got, src, res.SQL)
			}
			gotIter, err := s.QueryValue("SELECT prog_i($1, $2)", p1, p2)
			if err != nil {
				t.Fatalf("seed %d args %v: iterate: %v", seed, args, err)
			}
			if !sqltypes.Identical(want, gotIter) {
				t.Fatalf("seed %d args %v: interpreted=%v iterate=%v\n%s",
					seed, args, want, gotIter, src)
			}
		}
	}
}

// TestRandomProgramsSSAValid checks the optimizer preserves SSA validity on
// the same corpus (Validate runs inside Optimize; this just compiles).
func TestRandomProgramsSSAValid(t *testing.T) {
	for seed := int64(100); seed < 140; seed++ {
		src := generateProgram(seed)
		if _, err := Compile(src, Options{}); err != nil {
			t.Fatalf("seed %d: %v\n%s", seed, err, src)
		}
		if _, err := Compile(src, Options{NoOptimize: true}); err != nil {
			t.Fatalf("seed %d (no-opt): %v\n%s", seed, err, src)
		}
	}
}
