package engine

import (
	"fmt"
	"strings"
	"testing"

	"plsqlaway/internal/sqltypes"
)

// fillTable creates kv-style table name with n rows (k = 0..n-1, v = k).
func fillTable(t *testing.T, s *Session, name string, n int) {
	t.Helper()
	if err := s.Exec(fmt.Sprintf("CREATE TABLE %s (k int, v int)", name)); err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	for base := 0; base < n; {
		sb.Reset()
		fmt.Fprintf(&sb, "INSERT INTO %s VALUES ", name)
		for i := 0; i < 512 && base < n; i++ {
			if i > 0 {
				sb.WriteString(", ")
			}
			fmt.Fprintf(&sb, "(%d, %d)", base, base)
			base++
		}
		if err := s.Exec(sb.String()); err != nil {
			t.Fatal(err)
		}
	}
}

// TestUpdateNoMatchAllocs pins the no-match fast path: an UPDATE or
// DELETE whose predicate matches nothing must not copy or re-encode the
// table, so its allocation count must not scale with table size. (The
// pre-MVCC Heap.Replace path rewrote every row, allocating O(rows).)
func TestUpdateNoMatchAllocs(t *testing.T) {
	measure := func(n int, stmt string) float64 {
		s := New().NewSession()
		fillTable(t, s, "big", n)
		p, err := s.Prepare(stmt)
		if err != nil {
			t.Fatal(err)
		}
		// Warm plan caches and the heap snapshot cache.
		if err := p.Exec(); err != nil {
			t.Fatal(err)
		}
		return testing.AllocsPerRun(20, func() {
			if err := p.Exec(); err != nil {
				t.Fatal(err)
			}
		})
	}
	for _, stmt := range []string{
		"UPDATE big SET v = v + 1 WHERE k = -1",
		"DELETE FROM big WHERE k = -1",
	} {
		small := measure(1_000, stmt)
		large := measure(8_000, stmt)
		// Allow fixed overhead plus slack, but nothing O(rows): the old
		// path allocated ≥ 2 allocations per row (tuple copy + encode).
		if large > small+200 {
			t.Errorf("%s: allocs scale with table size: %.0f @1k rows vs %.0f @8k rows", stmt, small, large)
		}
	}
}

// TestUpdateNoMatchNoCommit checks the fast path does not publish a
// commit: a no-match UPDATE must not advance the heap generation, so
// snapshot caches and hash indexes stay warm.
func TestUpdateNoMatchNoCommit(t *testing.T) {
	e := New()
	s := e.NewSession()
	fillTable(t, s, "quiet", 100)
	tbl, ok := e.Catalog().Table("quiet")
	if !ok {
		t.Fatal("table missing")
	}
	gen := tbl.Heap.Gen()
	if err := s.Exec("UPDATE quiet SET v = 0 WHERE k = -5; DELETE FROM quiet WHERE k = -5"); err != nil {
		t.Fatal(err)
	}
	if got := tbl.Heap.Gen(); got != gen {
		t.Errorf("no-match DML moved the heap generation %d → %d", gen, got)
	}
}

// TestVacuumBoundsDeadVersions runs enough single-row updates to cross
// the vacuum threshold repeatedly and checks dead versions stay bounded —
// the opportunistic vacuum is actually reclaiming.
func TestVacuumBoundsDeadVersions(t *testing.T) {
	e := New()
	s := e.NewSession()
	fillTable(t, s, "churn", 200)
	p, err := s.Prepare("UPDATE churn SET v = v + 1 WHERE k = $1")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 500; i++ {
		if err := p.Exec(sqltypes.NewInt(int64(i % 200))); err != nil {
			t.Fatal(err)
		}
	}
	tbl, _ := e.Catalog().Table("churn")
	if tbl.Heap.Len() != 200 {
		t.Fatalf("live rows %d, want 200", tbl.Heap.Len())
	}
	// Threshold is max(vacuumMinDead, live/4) = 64; the vacuum lags one
	// commit, so allow a little headroom above the trigger point.
	if dead := tbl.Heap.DeadCount(); dead > 2*vacuumMinDead {
		t.Errorf("dead versions unbounded: %d after 500 updates (vacuum threshold %d)", dead, vacuumMinDead)
	}
	// The table still answers correctly after vacuums.
	v, err := s.QueryValue("SELECT sum(v) FROM churn")
	if err != nil {
		t.Fatal(err)
	}
	want := int64(199*200/2 + 500)
	if v.Int() != want {
		t.Errorf("sum=%d, want %d", v.Int(), want)
	}
}
