package engine

// The memo pass end to end: EXPLAIN ANALYZE and the obs counters report
// hits, and a memo never outlives its statement — a write between two
// calls is seen by the second, and an UPDATE whose SET calls a compiled
// function that reads the updated table computes what the unmemoised
// plan computes.

import (
	"fmt"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"plsqlaway/internal/core"
	"plsqlaway/internal/exec"
	"plsqlaway/internal/obs"
	"plsqlaway/internal/plan"
	"plsqlaway/internal/sqltypes"
	"plsqlaway/internal/workload"
)

func TestMemoExplainAnalyzeAndCounters(t *testing.T) {
	reg := obs.NewRegistry()
	s := newQuartetEngine(t, WithMetricsRegistry(reg)).NewSession()
	res, err := s.Query("EXPLAIN ANALYZE SELECT parse_c('ab 12 c ab 12 c')")
	if err != nil {
		t.Fatal(err)
	}
	var lines []string
	for _, r := range res.Rows {
		lines = append(lines, r[0].Text())
	}
	text := strings.Join(lines, "\n")
	m := regexp.MustCompile(`(?m)^ +Memo \[outer\(3\)\.#4\]  \(memo hits=(\d+) misses=(\d+)\)$`).FindStringSubmatch(text)
	if m == nil {
		t.Fatalf("no memo actuals on the fsm lookup:\n%s", text)
	}
	hits, _ := strconv.Atoi(m[1])
	misses, _ := strconv.Atoi(m[2])
	// One lookup per character; the automaton has few states.
	if hits+misses != 15 || misses > 4 {
		t.Errorf("hits=%d misses=%d, want 15 lookups over at most 4 states:\n%s", hits, misses, text)
	}
	counter := func(name string) int {
		for _, fam := range reg.Gather() {
			if fam.Name == name {
				for _, smp := range fam.Samples {
					if smp.Value != nil {
						return int(*smp.Value)
					}
				}
			}
		}
		return -1
	}
	if got := counter("plsql_exec_memo_hits_total"); got != hits {
		t.Errorf("plsql_exec_memo_hits_total = %d, want %d", got, hits)
	}
	if got := counter("plsql_exec_memo_misses_total"); got != misses {
		t.Errorf("plsql_exec_memo_misses_total = %d, want %d", got, misses)
	}
}

// hopSrc walks a ten-node cycle of t, summing the v it reads: the loop
// revisits every key, so its lookup memoises with hits.
const hopSrc = `
CREATE FUNCTION hop(start int, n int) RETURNS int AS $$
DECLARE
  node int;
  total int = 0;
  i int = 0;
BEGIN
  node = start;
  WHILE i < n LOOP
    total = total + (SELECT t.v FROM t WHERE t.k = node);
    node = (node * 3 + 1) % 10;
    i = i + 1;
  END LOOP;
  RETURN total;
END;
$$ LANGUAGE plpgsql`

// newHopSession installs t(k, v = k*k) for k in 0..9 and hop, interpreted
// and compiled (hop_c).
func newHopSession(t *testing.T) *Session {
	t.Helper()
	s := New(WithSeed(42)).NewSession()
	if err := s.Exec("CREATE TABLE t (k int, v int)"); err != nil {
		t.Fatal(err)
	}
	for k := 0; k < 10; k++ {
		if err := s.Exec(fmt.Sprintf("INSERT INTO t VALUES (%d, %d)", k, k*k)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Exec(hopSrc); err != nil {
		t.Fatal(err)
	}
	res, err := core.Compile(hopSrc, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.InstallCompiled("hop_c", res.Params, res.ReturnType, res.Query); err != nil {
		t.Fatal(err)
	}
	return s
}

func TestMemoSeesUpdatesBetweenCalls(t *testing.T) {
	s := newHopSession(t)
	if text := explainText(t, s, "EXPLAIN SELECT hop_c(1, 20)"); !strings.Contains(text, "Memo [") {
		t.Fatalf("hop_c's lookup is not memoised:\n%s", text)
	}
	prep, err := s.Prepare("SELECT hop_c($1, 20)")
	if err != nil {
		t.Fatal(err)
	}
	calls := map[string]func() sqltypes.Value{
		"statement": func() sqltypes.Value { return mustValue(t)(s.QueryValue("SELECT hop_c(1, 20)")) },
		"prepared":  func() sqltypes.Value { return mustValue(t)(prep.QueryValue(sqltypes.NewInt(1))) },
	}
	for name, call := range calls {
		for _, block := range []bool{false, true} {
			before := call()
			if block {
				if err := s.Exec("BEGIN"); err != nil {
					t.Fatal(err)
				}
			}
			if err := s.Exec("UPDATE t SET v = v + 1000 WHERE k = 4"); err != nil {
				t.Fatal(err)
			}
			after := call()
			want := mustValue(t)(s.QueryValue("SELECT hop(1, 20)"))
			if block {
				if err := s.Exec("COMMIT"); err != nil {
					t.Fatal(err)
				}
			}
			if !sqltypes.Identical(after, want) || sqltypes.Identical(after, before) {
				t.Errorf("%s, in block %v: %v before the UPDATE, %v after; the interpreter says %v", name, block, before, after, want)
			}
		}
	}
}

// TestMemoUpdateSetCallsALoopReadingTheTable: each row's call memoises
// its lookups of t while the statement writes t. Writes land after every
// row is computed, so each call must see the statement's snapshot —
// exactly what the body plan without memo computes there. (This UPDATE
// failed before the memo PR: the inlined body was hoisted into an Apply
// the row-at-a-time SET evaluation could not see; DML clauses now keep
// such calls opaque.)
func TestMemoUpdateSetCallsALoopReadingTheTable(t *testing.T) {
	s := newHopSession(t)
	fn, _ := s.Catalog().Function("hop_c")
	hook := func(name string) (int, bool) {
		for i, p := range fn.Params {
			if p.Name == name {
				return i + 1, true
			}
		}
		return 0, false
	}
	p, err := plan.Build(s.Catalog(), fn.SQLBody, plan.Options{Hook: hook, NoMemo: true})
	if err != nil {
		t.Fatal(err)
	}
	want := map[int64]sqltypes.Value{}
	for k := int64(0); k < 10; k++ {
		ctx := s.newCtx()
		ctx.Params = []sqltypes.Value{sqltypes.NewInt(k), sqltypes.NewInt(20)}
		ex, err := exec.Instantiate(p, ctx)
		if err != nil {
			t.Fatal(err)
		}
		rows, err := ex.Run()
		ex.Shutdown()
		if err != nil {
			t.Fatal(err)
		}
		want[k] = rows[0][0]
	}
	if err := s.Exec("UPDATE t SET v = hop_c(k, 20)"); err != nil {
		t.Fatal(err)
	}
	res, err := s.Query("SELECT k, v FROM t ORDER BY k")
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range res.Rows {
		if k := r[0].Int(); !sqltypes.Identical(r[1], want[k]) {
			t.Errorf("k=%d: UPDATE wrote %v, the NoMemo plan computes %v", k, r[1], want[k])
		}
	}
}

func explainText(t *testing.T, s *Session, sql string) string {
	t.Helper()
	res, err := s.Query(sql)
	if err != nil {
		t.Fatal(err)
	}
	var lines []string
	for _, r := range res.Rows {
		lines = append(lines, r[0].Text())
	}
	return strings.Join(lines, "\n")
}

func mustValue(t *testing.T) func(sqltypes.Value, error) sqltypes.Value {
	return func(v sqltypes.Value, err error) sqltypes.Value {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
}

// BenchmarkTraverseCompiled is the memo's worst case: traverse follows a
// 4096-node graph, so its min(dst) lookup almost never repeats a key and
// every evaluation is a miss. It must cost what the unmemoised loop costs.
func BenchmarkTraverseCompiled(b *testing.B) {
	e := New(WithSeed(42))
	if err := workload.InstallGraph(e, 4096, 3); err != nil {
		b.Fatal(err)
	}
	res, err := core.Compile(workload.Corpus["traverse"], core.Options{})
	if err != nil {
		b.Fatal(err)
	}
	if err := e.InstallCompiled("traverse_c", res.Params, res.ReturnType, res.Query); err != nil {
		b.Fatal(err)
	}
	s := e.NewSession()
	prep, err := s.Prepare("SELECT traverse_c($1, $2)")
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; b.Loop(); i++ {
		if _, err := prep.QueryValue(sqltypes.NewInt(int64(i*37%4096)), sqltypes.NewInt(64)); err != nil {
			b.Fatal(err)
		}
	}
}
