package workload

import (
	"strings"
	"testing"

	"plsqlaway/internal/engine"
	"plsqlaway/internal/sqltypes"
)

func TestRobotWorldDeterministic(t *testing.T) {
	a := NewRobotWorld(5, 5, 7)
	b := NewRobotWorld(5, 5, 7)
	for y := 0; y < 5; y++ {
		for x := 0; x < 5; x++ {
			if a.Rewards[y][x] != b.Rewards[y][x] || a.Policy[y][x] != b.Policy[y][x] {
				t.Fatalf("world not deterministic at (%d,%d)", x, y)
			}
		}
	}
	c := NewRobotWorld(5, 5, 8)
	diff := false
	for y := 0; y < 5; y++ {
		for x := 0; x < 5; x++ {
			if a.Rewards[y][x] != c.Rewards[y][x] {
				diff = true
			}
		}
	}
	if !diff {
		t.Error("different seeds should give different rewards")
	}
}

func TestOutcomesAreDistributions(t *testing.T) {
	w := NewRobotWorld(5, 5, 7)
	for y := 0; y < 5; y++ {
		for x := 0; x < 5; x++ {
			for d := 0; d < 4; d++ {
				total := 0.0
				for _, o := range w.outcomes(x, y, d) {
					if o.x < 0 || o.x >= 5 || o.y < 0 || o.y >= 5 {
						t.Fatalf("outcome off grid: %+v", o)
					}
					total += o.p
				}
				if total < 0.999 || total > 1.001 {
					t.Errorf("(%d,%d) dir %d: probabilities sum to %f", x, y, d, total)
				}
			}
		}
	}
}

func TestPolicyIsGreedyForValues(t *testing.T) {
	w := NewRobotWorld(5, 5, 7)
	// The policy's chosen direction must achieve the maximal Q-value.
	const gamma = 0.9
	q := func(x, y, d int) float64 {
		v := 0.0
		for _, o := range w.outcomes(x, y, d) {
			v += o.p * (float64(w.Rewards[o.y][o.x]) + gamma*w.Values[o.y][o.x])
		}
		return v
	}
	for y := 0; y < 5; y++ {
		for x := 0; x < 5; x++ {
			chosen := -1
			for d, dir := range directions {
				if dir.Arrow == w.Policy[y][x] {
					chosen = d
				}
			}
			if chosen < 0 {
				t.Fatalf("unknown policy arrow %q", w.Policy[y][x])
			}
			best := q(x, y, chosen)
			for d := 0; d < 4; d++ {
				if q(x, y, d) > best+1e-9 {
					t.Errorf("(%d,%d): policy %s is not greedy", x, y, w.Policy[y][x])
				}
			}
		}
	}
}

func TestInstallTables(t *testing.T) {
	s := engine.New().NewSession()
	w := NewRobotWorld(4, 3, 7)
	if err := w.Install(s); err != nil {
		t.Fatal(err)
	}
	n, err := s.QueryValue("SELECT count(*) FROM cells")
	if err != nil || n.Int() != 12 {
		t.Errorf("cells: %v %v", n, err)
	}
	n, _ = s.QueryValue("SELECT count(*) FROM policy")
	if n.Int() != 12 {
		t.Errorf("policy rows: %v", n)
	}
	// Every (here, action) group's probabilities sum to 1.
	res, err := s.Query("SELECT sum(a.prob) FROM actions AS a GROUP BY a.here, a.action")
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range res.Rows {
		if p := row[0].AsFloat(); p < 0.999 || p > 1.001 {
			t.Errorf("action group sums to %f", p)
		}
	}
}

func TestMakeParseInput(t *testing.T) {
	s := MakeParseInput(500, 5)
	if len(s) != 500 {
		t.Fatalf("length %d", len(s))
	}
	if s != MakeParseInput(500, 5) {
		t.Error("not deterministic")
	}
	hasDigit, hasAlpha, hasSpace := false, false, false
	for _, c := range s {
		switch {
		case c >= '0' && c <= '9':
			hasDigit = true
		case c >= 'a' && c <= 'z':
			hasAlpha = true
		case c == ' ':
			hasSpace = true
		default:
			t.Fatalf("unexpected character %q", c)
		}
	}
	if !hasDigit || !hasAlpha || !hasSpace {
		t.Error("input should mix all three classes")
	}
}

func TestInstallFSMAndGraph(t *testing.T) {
	s := engine.New().NewSession()
	if err := InstallFSM(s); err != nil {
		t.Fatal(err)
	}
	n, _ := s.QueryValue("SELECT count(*) FROM fsm")
	if n.Int() != 9 {
		t.Errorf("fsm rows: %v", n)
	}
	if err := InstallGraph(s, 300, 3); err != nil {
		t.Fatal(err)
	}
	// Sinks (multiples of 97 except 0) have no outgoing edges.
	n, _ = s.QueryValue("SELECT count(*) FROM edges AS e WHERE e.src = 97")
	if n.Int() != 0 {
		t.Errorf("node 97 should be a sink, has %v edges", n)
	}
	n, _ = s.QueryValue("SELECT count(*) FROM edges AS e WHERE e.dst >= 300")
	if n.Int() != 0 {
		t.Errorf("%v edges point off graph", n)
	}
	if err := InstallFees(s); err != nil {
		t.Fatal(err)
	}
	n, _ = s.QueryValue("SELECT count(*) FROM fees")
	if n.Int() != 3 {
		t.Errorf("fees rows: %v", n)
	}
}

func TestCorpusAllInstallAndParse(t *testing.T) {
	for name, src := range Corpus {
		s := engine.New().NewSession()
		if err := s.Exec(src); err != nil {
			t.Errorf("%s: %v", name, err)
		}
		if !strings.Contains(src, "LANGUAGE") {
			t.Errorf("%s: missing LANGUAGE clause", name)
		}
	}
}

func TestParseFunctionSemantics(t *testing.T) {
	s := engine.New().NewSession()
	if err := InstallFSM(s); err != nil {
		t.Fatal(err)
	}
	if err := s.Exec(ParseSrc); err != nil {
		t.Fatal(err)
	}
	cases := map[string]int64{
		"":            0,
		"abc":         1,
		"abc 123":     2,
		"a1":          2, // word then number: two tokens
		"  ":          0,
		"1 2 3":       3,
		"foo bar baz": 3,
	}
	for input, want := range cases {
		got, err := s.QueryValue("SELECT parse($1)", sqltypes.NewText(input))
		if err != nil {
			t.Fatalf("parse(%q): %v", input, err)
		}
		if got.Int() != want {
			t.Errorf("parse(%q) = %v, want %d", input, got, want)
		}
	}
}
