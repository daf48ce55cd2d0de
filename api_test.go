package plsqlaway_test

import (
	"strings"
	"testing"

	"plsqlaway"
	"plsqlaway/internal/workload"
)

// TestPublicAPIRoundTrip exercises exactly the surface the README shows.
func TestPublicAPIRoundTrip(t *testing.T) {
	s := plsqlaway.NewEngine(plsqlaway.WithSeed(7)).NewSession()
	if err := s.Exec(workload.GcdSrc); err != nil {
		t.Fatal(err)
	}
	res, err := plsqlaway.Compile(workload.GcdSrc, plsqlaway.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := plsqlaway.Install(s, "gcd_c", res); err != nil {
		t.Fatal(err)
	}
	a, err := s.QueryValue("SELECT gcd($1, $2)", plsqlaway.Int(48), plsqlaway.Int(18))
	if err != nil {
		t.Fatal(err)
	}
	b, err := s.QueryValue("SELECT gcd_c($1, $2)", plsqlaway.Int(48), plsqlaway.Int(18))
	if err != nil {
		t.Fatal(err)
	}
	if a.Int() != 6 || b.Int() != 6 {
		t.Errorf("gcd: %v vs %v", a, b)
	}
	// Every intermediate stage is reachable from the result.
	if res.CFG == nil || res.SSA == nil || res.ANF == nil || res.UDF == nil || res.Query == nil {
		t.Error("missing intermediate forms")
	}
	if !strings.Contains(res.SQL, "WITH RECURSIVE") {
		t.Errorf("final SQL: %s", res.SQL)
	}
}

func TestPublicValueConstructors(t *testing.T) {
	s := plsqlaway.NewEngine().NewSession()
	v, err := s.QueryValue("SELECT $1", plsqlaway.Coord(3, 2))
	if err != nil || v.String() != "(3,2)" {
		t.Errorf("coord param: %v %v", v, err)
	}
	v, _ = s.QueryValue("SELECT $1 || $2", plsqlaway.Text("a"), plsqlaway.Text("b"))
	if v.Text() != "ab" {
		t.Errorf("text: %v", v)
	}
	v, _ = s.QueryValue("SELECT $1 AND true", plsqlaway.Bool(false))
	if v.Bool() {
		t.Errorf("bool: %v", v)
	}
	v, _ = s.QueryValue("SELECT $1 * 2.0", plsqlaway.Float(1.25))
	if v.Float() != 2.5 {
		t.Errorf("float: %v", v)
	}
	v, _ = s.QueryValue("SELECT coalesce($1, 9)", plsqlaway.Null)
	if v.Int() != 9 {
		t.Errorf("null: %v", v)
	}
}

// TestProfilesExposed checks the three engine profiles behave as the paper
// describes at the API level.
func TestProfilesExposed(t *testing.T) {
	lite := plsqlaway.NewEngine(plsqlaway.WithProfile(plsqlaway.ProfileSQLite)).NewSession()
	if err := lite.Exec(workload.FibSrc); err == nil {
		t.Error("sqlite must reject plpgsql")
	}
	res, err := plsqlaway.Compile(workload.FibSrc, plsqlaway.Options{Dialect: plsqlaway.DialectSQLite})
	if err != nil {
		t.Fatal(err)
	}
	if err := plsqlaway.Install(lite, "fib", res); err != nil {
		t.Fatal(err)
	}
	v, err := lite.QueryValue("SELECT fib($1)", plsqlaway.Int(10))
	if err != nil || v.Int() != 55 {
		t.Errorf("fib on sqlite: %v %v", v, err)
	}

	ora := plsqlaway.NewEngine(plsqlaway.WithProfile(plsqlaway.ProfileOracle)).NewSession()
	if err := ora.Exec(workload.FibSrc); err != nil {
		t.Fatal(err)
	}
	v, err = ora.QueryValue("SELECT fibonacci($1)", plsqlaway.Int(10))
	if err != nil || v.Int() != 55 {
		t.Errorf("fib on oracle profile: %v %v", v, err)
	}
}
