package exec

import (
	"fmt"
	"reflect"
	"testing"

	"plsqlaway/internal/catalog"
	"plsqlaway/internal/plan"
	"plsqlaway/internal/sqlparser"
	"plsqlaway/internal/sqltypes"
	"plsqlaway/internal/storage"
)

// holdsData reports whether a node that held data in a run still holds
// any of it, or state carried across its Opens.
func holdsData(h holder) bool {
	switch n := h.(type) {
	case *seqScanNode:
		return n.scan != nil
	case *indexScanNode:
		return n.rows != nil || n.hits != nil
	case *hashJoinNode:
		return n.built || n.rightOpened || n.table.size > 0 || n.cand != nil
	case *materializeNode:
		return n.built || n.rows != nil
	case *sortNode:
		return n.rows != nil
	case *aggNode:
		return n.out != nil
	case *windowNode:
		return n.out != nil
	case *distinctNode:
		return n.seen != nil
	case *setOpNode:
		return n.out != nil
	case *recursiveUnionNode:
		return n.working != nil || n.batch != nil || n.seen != nil
	case *cteScanNode:
		return n.set != nil || n.iter != nil
	case *memoNode:
		return n.rows != nil || n.entries != nil || n.slots != nil || n.hits+n.misses > 0
	}
	return true // a holder this test does not know yet
}

// TestPoolResetDropsRunData runs queries covering every kind of node that
// holds data through a Pool: once a tree is back in the pool none of its
// nodes — subplan nodes included — holds rows, a hash table, a scanner or
// a memo table of the run, and its next run returns what a fresh tree
// returns.
func TestPoolResetDropsRunData(t *testing.T) {
	cat := catalog.New(&storage.Stats{})
	cols := []catalog.Column{{Name: "k", Type: sqltypes.TypeInt}, {Name: "v", Type: sqltypes.TypeInt}}
	for _, name := range []string{"t", "u"} {
		tbl, err := cat.CreateTable(name, cols, false)
		if err != nil {
			t.Fatal(err)
		}
		for k := int64(0); k < 40; k++ {
			tbl.Heap.Insert(storage.Tuple{sqltypes.NewInt(k), sqltypes.NewInt(k % 7)})
		}
	}
	if err := cat.DeclareIndex("u", "k"); err != nil {
		t.Fatal(err)
	}
	queries := []string{
		"SELECT t.v, count(*), sum(u.v) FROM t, u WHERE t.k = u.k GROUP BY t.v ORDER BY 1",
		"SELECT count(*) FROM t, (SELECT u.k FROM u) AS s WHERE t.k < s.k",
		"SELECT DISTINCT t.v FROM t ORDER BY 1",
		"SELECT t.k, sum(t.v) OVER (ORDER BY t.k) FROM t ORDER BY t.k",
		"SELECT t.v FROM t INTERSECT SELECT u.k FROM u ORDER BY 1",
		"WITH RECURSIVE r(n) AS (SELECT 1 UNION SELECT (n * 3) % 17 + 1 FROM r) SELECT count(*), sum(n) FROM r",
		"SELECT t.k, (SELECT u.v FROM u WHERE u.k = t.k) FROM t ORDER BY t.k",
		`WITH RECURSIVE st(go_on, i, acc) AS (
  SELECT true, 0, 0
  UNION ALL
  SELECT (nx.x).f1, (nx.x).f2, (nx.x).f3
  FROM st AS s, LATERAL (SELECT CASE WHEN s.i < 20
                                     THEN ROW(true, s.i + 1, s.acc + (SELECT u.v FROM u WHERE u.k = s.i % 5))
                                     ELSE ROW(false, s.i, s.acc) END AS x) AS nx
  WHERE s.go_on)
SELECT s.acc FROM st AS s WHERE NOT s.go_on`,
	}
	kinds := map[reflect.Type]bool{}
	for _, sql := range queries {
		q, err := sqlparser.ParseQuery(sql)
		if err != nil {
			t.Fatal(err)
		}
		p, err := plan.Build(cat, q, plan.Options{})
		if err != nil {
			t.Fatal(err)
		}
		want, err := mustInstantiate(t, p, NewCtx()).Run()
		if err != nil {
			t.Fatal(err)
		}
		var pool Pool
		for run := 0; run < 4; run++ {
			e, err := pool.Get(p, NewCtx())
			if err != nil {
				t.Fatal(err)
			}
			got, err := e.Run()
			if err != nil || fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("%s, run %d: %v (%v), a fresh tree returns %v", sql, run, got, err, want)
			}
			held := append([]holder(nil), e.ctx.held...)
			pool.Put(e, true)
			if run == 0 {
				continue // a plan's first run only marks it: no tree is kept
			}
			if pool.Idle() != 1 {
				t.Fatalf("%s, run %d: %d trees idle, want 1", sql, run, pool.Idle())
			}
			for _, h := range held {
				kinds[reflect.TypeOf(h)] = true
				if holdsData(h) {
					t.Errorf("%s, run %d: a pooled %T still holds its run's data", sql, run, h)
				}
			}
		}
	}
	for _, n := range []holder{&seqScanNode{}, &indexScanNode{}, &hashJoinNode{}, &materializeNode{}, &sortNode{},
		&aggNode{}, &windowNode{}, &distinctNode{}, &setOpNode{}, &recursiveUnionNode{}, &cteScanNode{}, &memoNode{}} {
		if !kinds[reflect.TypeOf(n)] {
			t.Errorf("no query ran a %T", n)
		}
	}
}

func mustInstantiate(t *testing.T, p *plan.Plan, ctx *Ctx) *Executor {
	t.Helper()
	e, err := Instantiate(p, ctx)
	if err != nil {
		t.Fatal(err)
	}
	return e
}
