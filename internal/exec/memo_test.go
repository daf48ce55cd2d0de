package exec

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"testing"

	"plsqlaway/internal/plan"
	"plsqlaway/internal/sqltypes"
	"plsqlaway/internal/storage"
)

// keyedRows is a memo child whose rows are a function of outer row 0's
// first column k: (k, 0), (k, 1), (k, 2). It counts how often it runs
// and fails its next run when failNext is set.
type keyedRows struct {
	opens, rescans, closes int
	failNext               bool
	rows                   []storage.Tuple
	pos                    int
	fail                   bool
}

func (c *keyedRows) Open(ctx *Ctx) error   { c.opens++; return c.reset(ctx) }
func (c *keyedRows) Rescan(ctx *Ctx) error { c.rescans++; return c.reset(ctx) }
func (c *keyedRows) Close(ctx *Ctx) error  { c.closes++; return nil }
func (c *keyedRows) reset(ctx *Ctx) error {
	k, err := ctx.outerAt(0)
	if err != nil {
		return err
	}
	c.rows, c.pos = nil, 0
	for i := 0; i < 3; i++ {
		c.rows = append(c.rows, storage.Tuple{k[0], sqltypes.NewInt(int64(i))})
	}
	c.fail, c.failNext = c.failNext, false
	return nil
}
func (c *keyedRows) NextBatch(ctx *Ctx, out *Batch) error {
	out.begin()
	if c.fail && c.pos == 1 {
		return errors.New("child failed")
	}
	for c.pos < len(c.rows) && !out.Full() {
		out.Add(c.rows[c.pos])
		c.pos++
	}
	return nil
}

func newMemo(child Node) *memoNode {
	return &memoNode{src: &plan.Memo{}, child: child, keys: []plan.OuterRef{{Depth: 0, Idx: 0}}}
}

// pull opens n under outer row (key), drains it through a batch of the
// given limit, closes it, and renders the rows.
func pull(ctx *Ctx, n Node, key sqltypes.Value, limit int) (string, error) {
	ctx.pushOuter(storage.Tuple{key})
	defer ctx.popOuter()
	if err := n.Open(ctx); err != nil {
		return "", err
	}
	defer n.Close(ctx)
	var rows []storage.Tuple
	err := drainNode(ctx, n, NewBatch(limit), func(t storage.Tuple) error {
		rows = append(rows, t)
		return nil
	})
	return fmt.Sprint(rows), err
}

func TestMemoHitReplaysIdenticalRows(t *testing.T) {
	for _, limit := range []int{1, 2, 8} {
		child := &keyedRows{}
		m := newMemo(child)
		ctx := NewCtx()
		first, err := pull(ctx, m, sqltypes.NewInt(5), limit)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 3; i++ {
			again, err := pull(ctx, m, sqltypes.NewInt(5), limit)
			if err != nil || again != first {
				t.Fatalf("limit %d: hit %d gave %s (%v), first run %s", limit, i, again, err, first)
			}
		}
		if first != "[[5 0] [5 1] [5 2]]" || child.opens != 1 || m.hits != 3 || m.misses != 1 {
			t.Errorf("limit %d: rows %s, child opened %d times, hits=%d misses=%d; want 1 open, 3 hits, 1 miss",
				limit, first, child.opens, m.hits, m.misses)
		}
	}
}

func TestMemoNeverCachesAnError(t *testing.T) {
	child := &keyedRows{failNext: true}
	m := newMemo(child)
	ctx := NewCtx()
	if _, err := pull(ctx, m, sqltypes.NewInt(1), 1); err == nil {
		t.Fatal("the child's error did not surface")
	}
	got, err := pull(ctx, m, sqltypes.NewInt(1), 1)
	if err != nil || got != "[[1 0] [1 1] [1 2]]" {
		t.Fatalf("after an error: %s (%v)", got, err)
	}
	if _, err := pull(ctx, m, sqltypes.NewInt(1), 1); err != nil || child.opens != 2 || m.hits != 1 {
		t.Errorf("the retry should have been recorded: opens=%d hits=%d (%v)", child.opens, m.hits, err)
	}
}

func TestMemoAbandonedEvaluationRecordsNothing(t *testing.T) {
	child := &keyedRows{}
	m := newMemo(child)
	ctx := NewCtx()
	ctx.pushOuter(storage.Tuple{sqltypes.NewInt(3)})
	if err := m.Open(ctx); err != nil {
		t.Fatal(err)
	}
	if err := m.NextBatch(ctx, NewBatch(1)); err != nil {
		t.Fatal(err)
	}
	m.Close(ctx) // the consumer had what it needed (EXISTS)
	ctx.popOuter()
	got, err := pull(ctx, m, sqltypes.NewInt(3), 4)
	if err != nil || got != "[[3 0] [3 1] [3 2]]" || m.hits != 0 || child.opens != 2 {
		t.Errorf("after an abandoned run: %s (%v), hits=%d opens=%d; want a second miss", got, err, m.hits, child.opens)
	}
}

// TestMemoKeysAreKindExact: 1, 1.0 and '1' are three keys, so are 0.0
// and -0.0, and NULL matches NULL. The child echoes the key into its rows,
// so a wrong hit would replay a value of the wrong kind.
func TestMemoKeysAreKindExact(t *testing.T) {
	child := &keyedRows{}
	m := newMemo(child)
	ctx := NewCtx()
	keys := []sqltypes.Value{sqltypes.NewInt(1), sqltypes.NewFloat(1), sqltypes.NewText("1"), sqltypes.Null,
		sqltypes.NewFloat(0), sqltypes.NewFloat(math.Copysign(0, -1))}
	for round := 0; round < 2; round++ {
		for _, k := range keys {
			ctx.pushOuter(storage.Tuple{k})
			if err := m.Open(ctx); err != nil {
				t.Fatal(err)
			}
			b, eof := NewBatch(8), NewBatch(8)
			if err := m.NextBatch(ctx, b); err != nil {
				t.Fatal(err)
			}
			if err := m.NextBatch(ctx, eof); err != nil || eof.Len() != 0 {
				t.Fatalf("want end of stream after 3 rows: %d rows (%v)", eof.Len(), err)
			}
			m.Close(ctx)
			ctx.popOuter()
			got := b.Row(0)[0]
			if b.Len() != 3 || !bytes.Equal(storage.AppendValue(nil, got), storage.AppendValue(nil, k)) {
				t.Errorf("round %d, key %v (%s): replayed %v (%s)", round, k, k.Kind(), got, got.Kind())
			}
		}
	}
	if m.misses != int64(len(keys)) || m.hits != int64(len(keys)) {
		t.Errorf("misses=%d hits=%d, want %d distinct keys, each hit once", m.misses, m.hits, len(keys))
	}
}

func TestMemoWorkMemCapsTheTable(t *testing.T) {
	child := &keyedRows{}
	m := newMemo(child)
	ctx := NewCtx()
	entry := 3*storage.TupleDiskSize(storage.Tuple{sqltypes.NewInt(0), sqltypes.NewInt(0)}) +
		len(storage.AppendValue(nil, sqltypes.NewInt(0)))
	ctx.WorkMem = 2*entry + 1
	for round := 0; round < 3; round++ {
		for k := int64(0); k < 4; k++ {
			got, err := pull(ctx, m, sqltypes.NewInt(k), 2)
			want := fmt.Sprintf("[[%d 0] [%d 1] [%d 2]]", k, k, k)
			if err != nil || got != want {
				t.Fatalf("round %d key %d: %s (%v), want %s", round, k, got, err, want)
			}
		}
	}
	if len(m.entries) != 2 || !m.full || m.used > ctx.WorkMem {
		t.Errorf("entries=%d full=%v used=%d, want 2 entries within %d bytes", len(m.entries), m.full, m.used, ctx.WorkMem)
	}
	if m.hits != 4 || m.misses != 8 {
		t.Errorf("hits=%d misses=%d, want the two cached keys hit twice each", m.hits, m.misses)
	}
}

func TestMemoRescanUnderNewOuterValues(t *testing.T) {
	child := &keyedRows{}
	m := newMemo(child)
	ctx := NewCtx()
	ctx.pushOuter(storage.Tuple{sqltypes.NewInt(1)})
	if err := m.Open(ctx); err != nil {
		t.Fatal(err)
	}
	drain := func() string {
		var rows []storage.Tuple
		if err := drainNode(ctx, m, NewBatch(2), func(t storage.Tuple) error { rows = append(rows, t); return nil }); err != nil {
			t.Fatal(err)
		}
		return fmt.Sprint(rows)
	}
	first := drain()
	for _, k := range []int64{2, 1, 2} {
		ctx.Outer[0] = storage.Tuple{sqltypes.NewInt(k)}
		if err := m.Rescan(ctx); err != nil {
			t.Fatal(err)
		}
		if got, want := drain(), fmt.Sprintf("[[%d 0] [%d 1] [%d 2]]", k, k, k); got != want {
			t.Errorf("rescan under %d: %s, want %s", k, got, want)
		}
	}
	m.Close(ctx)
	if first != "[[1 0] [1 1] [1 2]]" || child.opens != 2 || child.closes != 2 || m.hits != 2 {
		t.Errorf("first %s; opens=%d closes=%d hits=%d, want keys 1 and 2 each run (and closed) once, 2 hits", first, child.opens, child.closes, m.hits)
	}
}
