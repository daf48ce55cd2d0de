package exec

import (
	"bytes"
	"hash/maphash"

	"plsqlaway/internal/plan"
	"plsqlaway/internal/storage"
)

// memoNode runs a plan.Memo: it caches its child's rows keyed on the
// outer values the child reads, for one run of its executor — one
// statement at one snapshot; a pooled tree starts the next run with an
// empty table (release). Each Open reads the key; a key seen before
// replays the rows its first evaluation produced without opening the
// child (a hit), any other key runs the child and records the rows as the
// consumer pulls them (a miss).
//
// A miss pulls exactly what the consumer pulls, no more: the recording is
// kept only once the child reports end of stream. An evaluation its
// consumer abandons earlier (EXISTS, the scalar cardinality error) or
// that fails records nothing — the rows it did not pull are unknown, and
// errors are never cached. Keys match kind-exactly, as their storage
// encoding (1, 1.0 and '1' are three keys; NULL matches NULL): a subtree
// may tell those apart. The table is bounded by ctx.WorkMem; past it the
// node stops inserting and misses run the child as if there were no memo.
//
// Misses are the common case for some loops (a graph walk that never
// revisits a node), so the table costs them as little as possible: keys,
// entries and the index are pointer-free slabs (nothing for the garbage
// collector to scan), and rows share one slab of headers.
type memoNode struct {
	src   *plan.Memo // the plan node: EXPLAIN ANALYZE's key
	child Node
	keys  []plan.OuterRef

	// The table: an open-addressing index of entry numbers (+1; 0 is an
	// empty slot) over entries, whose keys live in keyBytes and rows in
	// rows.
	slots    []int32
	entries  []memoEntry
	keyBytes []byte
	rows     []storage.Tuple
	used     int  // bytes charged against ctx.WorkMem
	full     bool // the bound was reached: no more inserts

	// The current evaluation.
	probe    []byte // its key, encoded
	hash     uint64
	state    memoState
	pos, end int  // memoReplay: rows[pos:end] still to emit
	start    int  // memoRecord: where its rows begin in rows
	pending  int  // memoRecord: their bytes
	live     bool // the child is open for it

	hits, misses int64
	held         bool // registered with the run (Ctx.hold)
}

// memoEntry is one cached key: its hash, its encoding keyBytes[klo:khi]
// and its rows rows[lo:hi].
type memoEntry struct {
	hash             uint64
	klo, khi, lo, hi int32
}

type memoState uint8

const (
	memoPass   memoState = iota // run the child, record nothing
	memoRecord                  // run the child, record its rows
	memoReplay                  // emit cached rows
)

// memoSeed seeds every memo's key hash; the tables never leave the
// process, so one seed serves them all.
var memoSeed = maphash.MakeSeed()

func instantiateMemo(x *plan.Memo, ana *Analyzer) (Node, error) {
	child, err := instantiateNode(x.Child, ana)
	if err != nil {
		return nil, err
	}
	return &memoNode{src: x, child: child, keys: x.Keys}, nil
}

// Rescan is Open: a miss runs the child from a fresh Open, because the
// previous evaluation closed it (or was a hit and never opened it).
func (n *memoNode) Rescan(ctx *Ctx) error { return n.Open(ctx) }

func (n *memoNode) Open(ctx *Ctx) error {
	ctx.hold(n, &n.held)
	n.drop()
	if n.live {
		n.live = false
		if err := n.child.Close(ctx); err != nil {
			return err
		}
	}
	if n.readKey(ctx) {
		if e := n.lookup(); e >= 0 {
			n.hits++
			n.state = memoReplay
			n.pos, n.end = int(n.entries[e].lo), int(n.entries[e].hi)
			return nil
		}
		if !n.full {
			n.state = memoRecord
			n.start, n.pending = len(n.rows), 0
		}
	}
	n.misses++
	n.live = true
	return n.child.Open(ctx)
}

// readKey encodes the current key into probe and hashes it. A reference
// the outer stack cannot satisfy leaves the evaluation to the child, which
// reports it exactly when (and if) the un-memoised plan would.
func (n *memoNode) readKey(ctx *Ctx) bool {
	n.probe = n.probe[:0]
	for _, k := range n.keys {
		row, err := ctx.outerAt(k.Depth)
		if err != nil || k.Idx >= len(row) {
			return false
		}
		n.probe = storage.AppendValue(n.probe, row[k.Idx])
	}
	n.hash = maphash.Bytes(memoSeed, n.probe)
	return true
}

// lookup returns the entry holding the current key, or -1.
func (n *memoNode) lookup() int {
	mask := uint64(len(n.slots) - 1)
	for i := n.hash & mask; len(n.slots) > 0; i = (i + 1) & mask {
		s := n.slots[i]
		if s == 0 {
			break
		}
		if e := &n.entries[s-1]; e.hash == n.hash && bytes.Equal(n.keyBytes[e.klo:e.khi], n.probe) {
			return int(s - 1)
		}
	}
	return -1
}

func (n *memoNode) NextBatch(ctx *Ctx, out *Batch) error {
	if n.state == memoReplay {
		out.begin()
		m := min(out.Cap(), n.end-n.pos)
		out.Append(n.rows[n.pos : n.pos+m])
		n.pos += m
		return nil
	}
	if err := n.child.NextBatch(ctx, out); err != nil {
		n.drop()
		return err
	}
	if n.state != memoRecord {
		return nil
	}
	if out.Len() == 0 {
		n.commit()
		return nil
	}
	rows := out.Rows()
	for _, t := range rows {
		n.pending += storage.TupleDiskSize(t)
	}
	budget := ctx.WorkMem
	if budget <= 0 {
		budget = storage.DefaultWorkMem
	}
	if n.used+n.pending > budget {
		n.full = true
		n.drop()
		return nil
	}
	n.rows = append(n.rows, rows...)
	return nil
}

// commit files the recording under the current key; further pulls of this
// evaluation see end of stream.
func (n *memoNode) commit() {
	if 2*(len(n.entries)+1) > len(n.slots) {
		n.grow()
	}
	klo := len(n.keyBytes)
	n.keyBytes = append(n.keyBytes, n.probe...)
	n.entries = append(n.entries, memoEntry{hash: n.hash,
		klo: int32(klo), khi: int32(len(n.keyBytes)), lo: int32(n.start), hi: int32(len(n.rows))})
	n.place(len(n.entries) - 1)
	n.used += n.pending + len(n.probe)
	n.state = memoReplay
	n.pos, n.end = len(n.rows), len(n.rows)
}

// grow doubles the index (at least 16 slots) and re-places every entry.
func (n *memoNode) grow() {
	n.slots = make([]int32, max(16, 2*len(n.slots)))
	for e := range n.entries {
		n.place(e)
	}
}

func (n *memoNode) place(e int) {
	mask := uint64(len(n.slots) - 1)
	i := n.entries[e].hash & mask
	for n.slots[i] != 0 {
		i = (i + 1) & mask
	}
	n.slots[i] = int32(e + 1)
}

// drop discards an unfinished recording.
func (n *memoNode) drop() {
	if n.state == memoRecord {
		clear(n.rows[n.start:])
		n.rows = n.rows[:n.start]
	}
	n.state = memoPass
}

func (n *memoNode) Close(ctx *Ctx) error {
	n.drop()
	if !n.live {
		return nil
	}
	n.live = false
	return n.child.Close(ctx)
}

// release empties the table and the counts for the tree's next run.
func (n *memoNode) release() {
	*n = memoNode{src: n.src, child: n.child, keys: n.keys, probe: n.probe[:0]}
}

// flushMemos adds this run's memo counts to the shared counters.
func (c *Ctx) flushMemos() {
	if c.Stats == nil {
		return
	}
	for _, h := range c.held {
		if m, ok := h.(*memoNode); ok {
			c.Stats.MemoHits.Add(m.hits)
			c.Stats.MemoMisses.Add(m.misses)
		}
	}
}
