package plparser

import (
	"testing"

	"plsqlaway/internal/plast"
	"plsqlaway/internal/sqlast"
	"plsqlaway/internal/sqlparser"
	"plsqlaway/internal/sqltypes"
)

// The paper's running example (Figure 3), verbatim modulo whitespace.
const walkSrc = `
CREATE FUNCTION walk(origin coord, win int, loose int, steps int)
RETURNS int AS $$
DECLARE
  reward int = 0;
  location coord = origin;
  movement text = '';
  roll float;
BEGIN
  -- move robot repeatedly
  FOR step IN 1..steps LOOP
    -- where does the Markov policy send the robot from here?
    movement = (SELECT p.action
                FROM policy AS p
                WHERE location = p.loc);
    -- compute new location of robot,
    -- robot may randomly stray from policy's direction
    roll = random();
    location =
      (SELECT move.loc
       FROM (SELECT a.there AS loc,
                    COALESCE(SUM(a.prob) OVER lt, 0.0) AS lo,
                    SUM(a.prob) OVER leq AS hi
             FROM actions AS a
             WHERE location = a.here AND movement = a.action
             WINDOW leq AS (ORDER BY a.there),
                    lt  AS (leq ROWS UNBOUNDED PRECEDING
                            EXCLUDE CURRENT ROW)
            ) AS move(loc, lo, hi)
       WHERE roll BETWEEN move.lo AND move.hi);
    -- robot collects reward (or penalty) at new location
    reward = reward + (SELECT c.reward
                       FROM cells AS c
                       WHERE location = c.loc);
    -- bail out if we win or loose early
    IF reward >= win OR reward <= loose THEN
      RETURN step * sign(reward);
    END IF;
  END LOOP;
  -- draw: robot performed all steps without winning or losing
  RETURN 0;
END;
$$ LANGUAGE PLPGSQL`

func parseFn(t *testing.T, src string) *plast.Function {
	t.Helper()
	stmt, err := sqlparser.ParseStatement(src)
	if err != nil {
		t.Fatalf("sql parse: %v", err)
	}
	cf, ok := stmt.(*sqlast.CreateFunction)
	if !ok {
		t.Fatalf("not a CREATE FUNCTION: %T", stmt)
	}
	f, err := ParseFunction(cf)
	if err != nil {
		t.Fatalf("plpgsql parse: %v", err)
	}
	return f
}

func TestParseWalk(t *testing.T) {
	f := parseFn(t, walkSrc)
	if f.Name != "walk" {
		t.Errorf("name: %s", f.Name)
	}
	if len(f.Params) != 4 || f.Params[0].Type != sqltypes.TypeCoord {
		t.Errorf("params: %+v", f.Params)
	}
	if f.ReturnType != sqltypes.TypeInt {
		t.Errorf("return type: %v", f.ReturnType)
	}
	if len(f.Decls) != 4 {
		t.Fatalf("decls: %d", len(f.Decls))
	}
	if f.Decls[0].Name != "reward" || f.Decls[0].Init == nil {
		t.Errorf("decl reward: %+v", f.Decls[0])
	}
	if f.Decls[3].Name != "roll" || f.Decls[3].Init != nil {
		t.Errorf("decl roll: %+v", f.Decls[3])
	}
	if len(f.Body) != 2 {
		t.Fatalf("body stmts: %d", len(f.Body))
	}
	loop, ok := f.Body[0].(*plast.ForRange)
	if !ok {
		t.Fatalf("first stmt: %T", f.Body[0])
	}
	if loop.Var != "step" || loop.Reverse {
		t.Errorf("for: %+v", loop)
	}
	if len(loop.Body) != 5 {
		t.Fatalf("loop body stmts: %d", len(loop.Body))
	}
	// The embedded movement query must be a scalar subquery.
	asg := loop.Body[0].(*plast.Assign)
	if asg.Name != "movement" {
		t.Errorf("assign: %+v", asg)
	}
	if _, ok := asg.Expr.(*sqlast.ScalarSubquery); !ok {
		t.Errorf("movement rhs: %T", asg.Expr)
	}
	// reward = reward + (SELECT …)
	radd := loop.Body[3].(*plast.Assign)
	bin, ok := radd.Expr.(*sqlast.Binary)
	if !ok || bin.Op != "+" {
		t.Errorf("reward rhs: %#v", radd.Expr)
	}
	// IF with RETURN inside
	ifs := loop.Body[4].(*plast.If)
	if len(ifs.Then) != 1 {
		t.Fatalf("if then: %d", len(ifs.Then))
	}
	if _, ok := ifs.Then[0].(*plast.Return); !ok {
		t.Errorf("if body: %T", ifs.Then[0])
	}
	if _, ok := f.Body[1].(*plast.Return); !ok {
		t.Errorf("final stmt: %T", f.Body[1])
	}
}

func TestParseBodyDirect(t *testing.T) {
	decls, stmts, err := ParseBody(`
DECLARE
  n int = 10;
  acc int := 1;
BEGIN
  WHILE n > 0 LOOP
    acc = acc * n;
    n = n - 1;
  END LOOP;
  RETURN acc;
END;`)
	if err != nil {
		t.Fatal(err)
	}
	if len(decls) != 2 || len(stmts) != 2 {
		t.Fatalf("decls=%d stmts=%d", len(decls), len(stmts))
	}
	w := stmts[0].(*plast.While)
	if len(w.Body) != 2 {
		t.Errorf("while body: %d", len(w.Body))
	}
}

func TestLabelsExitContinue(t *testing.T) {
	_, stmts, err := ParseBody(`
BEGIN
  <<outer>>
  LOOP
    LOOP
      EXIT outer WHEN x > 10;
      CONTINUE WHEN x % 2 = 0;
      x = x + 1;
    END LOOP;
  END LOOP;
  RETURN x;
END`)
	if err != nil {
		t.Fatal(err)
	}
	outer := stmts[0].(*plast.Loop)
	if outer.Label != "outer" {
		t.Errorf("label: %q", outer.Label)
	}
	inner := outer.Body[0].(*plast.Loop)
	exit := inner.Body[0].(*plast.Exit)
	if exit.Label != "outer" || exit.When == nil {
		t.Errorf("exit: %+v", exit)
	}
	cont := inner.Body[1].(*plast.Continue)
	if cont.Label != "" || cont.When == nil {
		t.Errorf("continue: %+v", cont)
	}
}

func TestIfElsifElse(t *testing.T) {
	_, stmts, err := ParseBody(`
BEGIN
  IF a THEN
    x = 1;
  ELSIF b THEN
    x = 2;
  ELSIF c THEN
    x = 3;
  ELSE
    x = 4;
  END IF;
  RETURN x;
END`)
	if err != nil {
		t.Fatal(err)
	}
	ifs := stmts[0].(*plast.If)
	if len(ifs.ElseIfs) != 2 || len(ifs.Else) != 1 {
		t.Errorf("if: %+v", ifs)
	}
}

func TestForReverseAndBy(t *testing.T) {
	_, stmts, err := ParseBody(`
BEGIN
  FOR i IN REVERSE 10..1 BY 2 LOOP
    s = s + i;
  END LOOP;
  RETURN s;
END`)
	if err != nil {
		t.Fatal(err)
	}
	fr := stmts[0].(*plast.ForRange)
	if !fr.Reverse || fr.Step == nil {
		t.Errorf("for: %+v", fr)
	}
}

func TestPerformRaiseNull(t *testing.T) {
	_, stmts, err := ParseBody(`
BEGIN
  PERFORM SELECT 1 FROM t;
  RAISE NOTICE 'x = %', x;
  RAISE EXCEPTION 'boom';
  NULL;
  RETURN 0;
END`)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := stmts[0].(*plast.Perform); !ok {
		t.Errorf("perform: %T", stmts[0])
	}
	r := stmts[1].(*plast.Raise)
	if r.Level != "NOTICE" || len(r.Args) != 1 {
		t.Errorf("raise: %+v", r)
	}
	r2 := stmts[2].(*plast.Raise)
	if r2.Level != "EXCEPTION" {
		t.Errorf("raise exception: %+v", r2)
	}
	if _, ok := stmts[3].(*plast.NullStmt); !ok {
		t.Errorf("null stmt: %T", stmts[3])
	}
}

func TestAssignColonEquals(t *testing.T) {
	_, stmts, err := ParseBody("BEGIN x := 1 + 2; RETURN x; END")
	if err != nil {
		t.Fatal(err)
	}
	if a := stmts[0].(*plast.Assign); a.Name != "x" {
		t.Errorf("assign: %+v", a)
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"BEGIN RETURN 1",                        // missing END
		"BEGIN x = ; END",                       // missing expr
		"BEGIN IF a THEN END LOOP; END",         // wrong end
		"BEGIN FOR i IN 1 LOOP END LOOP; END",   // missing ..
		"BEGIN banana; END",                     // not a statement
		"DECLARE x blob; BEGIN RETURN 0; END",   // unknown type
		"BEGIN WHILE LOOP x = 1; END LOOP; END", // missing cond
	}
	for _, src := range bad {
		if _, _, err := ParseBody(src); err == nil {
			t.Errorf("ParseBody(%q) should error", src)
		}
	}
}
