package exec

import (
	"fmt"
	"math"

	"plsqlaway/internal/plan"
	"plsqlaway/internal/sqltypes"
	"plsqlaway/internal/storage"
)

// rowTable maps join-key values to build-side rows. Bucketing must be a
// SUPERSET of SQL equality — any pair sqltypes.Compare calls equal lands
// in the same bucket — because a missed pair is a silently lost row, while
// a spurious bucket-mate is rejected by the residual predicate (which
// always carries the original equality conjuncts). Compare treats mixed
// int/float operands as equal when their float64 images coincide and that
// relation is not transitive for |v| ≥ 2⁵³ (both 2⁵³ and 2⁵³+1 equal
// 2⁵³.0), so no exact partition exists: numeric keys hash by their
// canonical float64 image (-0 folded into +0, NaNs canonicalized), with
// single-column numeric keys taking an allocation-free map keyed by the
// raw bits. Everything else hashes its encoded form.
type rowTable struct {
	ints map[int64][]storage.Tuple
	strs map[string][]storage.Tuple
	size int

	// Exactness tracking: a bucket match can differ from Compare-equality
	// only when (a) an int component (bare or inside a coord) is |v| >=
	// 2^53, where distinct ints share one float64 image, or (b) KindRow
	// keys (whose images conflate shapes Compare errors on or
	// distinguishes; coords are always two ints, and cross-class probes
	// are rejected by colKinds before bucketing). When the build side has
	// neither, bucket-match is key equality, and a residual that consists
	// solely of the key equalities can be skipped outright.
	bigInt bool
	rowKey bool

	// colKinds tracks, per key column, the comparison classes present on
	// the build side (numerics are one class — mutually comparable — every
	// other kind its own); colRowWid tracks the widths of row-kind keys.
	// Probing with a key that sqltypes.Compare could not compare against
	// some build key raises the same error the nest-loop plan raised when
	// it reached such a pair, instead of silently reporting a non-match.
	colKinds  []uint16
	colRowWid []map[int]bool
}

func (t *rowTable) reset() {
	t.ints = nil
	t.strs = nil
	t.size = 0
	t.bigInt = false
	t.rowKey = false
	t.colKinds = nil
	t.colRowWid = nil
}

// keyClass buckets kinds into comparison classes: Compare accepts any
// numeric pair and same-kind pairs, and errors on everything else.
func keyClass(k sqltypes.Value) uint16 {
	switch k.Kind() {
	case sqltypes.KindInt, sqltypes.KindFloat:
		return 1
	case sqltypes.KindText:
		return 2
	case sqltypes.KindBool:
		return 4
	case sqltypes.KindCoord:
		return 8
	case sqltypes.KindRow:
		return 16
	}
	return 0
}

// exact reports that bucket membership implies key equality for any probe.
func (t *rowTable) exact() bool { return !t.bigInt && !t.rowKey }

const exactIntLimit = int64(1) << 53 // beyond this, int64s collide in float64

func (t *rowTable) noteKey(k sqltypes.Value) {
	switch k.Kind() {
	case sqltypes.KindInt:
		if v := k.Int(); v >= exactIntLimit || v <= -exactIntLimit {
			t.bigInt = true
		}
	case sqltypes.KindCoord:
		x, y := k.Coord()
		if x >= exactIntLimit || x <= -exactIntLimit || y >= exactIntLimit || y <= -exactIntLimit {
			t.bigInt = true
		}
	case sqltypes.KindRow:
		t.rowKey = true
	}
}

// numericHashBits returns the canonical float64 bit image of a numeric
// value — equal-per-Compare numerics always share it.
func numericHashBits(v sqltypes.Value) int64 {
	f := v.AsFloat()
	if f == 0 {
		f = 0 // fold -0.0 into +0.0 (Compare treats them as equal)
	} else if math.IsNaN(f) {
		f = math.NaN() // canonical NaN payload (Compare: NaN == NaN)
	}
	return int64(math.Float64bits(f))
}

// hashNormValue maps a key value onto its bucket representative: numerics
// collapse to their canonical float64 image, coords and rows recurse.
func hashNormValue(v sqltypes.Value) sqltypes.Value {
	switch v.Kind() {
	case sqltypes.KindInt, sqltypes.KindFloat:
		return sqltypes.NewFloat(math.Float64frombits(uint64(numericHashBits(v))))
	case sqltypes.KindCoord:
		x, y := v.Coord()
		return sqltypes.NewRow([]sqltypes.Value{hashNormValue(sqltypes.NewInt(x)), hashNormValue(sqltypes.NewInt(y))})
	case sqltypes.KindRow:
		fields := v.Row()
		norm := make([]sqltypes.Value, len(fields))
		for i, f := range fields {
			norm[i] = hashNormValue(f)
		}
		return sqltypes.NewRow(norm)
	default:
		return v
	}
}

// hashKeyString encodes a (possibly multi-column) key for the string map.
func hashKeyString(keys []sqltypes.Value) string {
	norm := make(storage.Tuple, len(keys))
	for i, k := range keys {
		norm[i] = hashNormValue(k)
	}
	return string(storage.EncodeTuple(norm))
}

// insert files row under keys. Rows with any NULL key component are
// skipped: SQL equality never matches NULL, and the residual predicate
// would reject the pair anyway, so dropping them at build time is both
// sound and cheaper.
func (t *rowTable) insert(keys []sqltypes.Value, row storage.Tuple) {
	for _, k := range keys {
		if k.IsNull() {
			return
		}
	}
	t.size++
	if t.colKinds == nil {
		t.colKinds = make([]uint16, len(keys))
		t.colRowWid = make([]map[int]bool, len(keys))
	}
	for i, k := range keys {
		t.noteKey(k)
		t.colKinds[i] |= keyClass(k)
		if k.Kind() == sqltypes.KindRow {
			if t.colRowWid[i] == nil {
				t.colRowWid[i] = map[int]bool{}
			}
			t.colRowWid[i][k.NumFields()] = true
		}
	}
	if len(keys) == 1 && keys[0].IsNumeric() {
		if t.ints == nil {
			t.ints = make(map[int64][]storage.Tuple)
		}
		k := numericHashBits(keys[0])
		t.ints[k] = append(t.ints[k], row)
		return
	}
	if t.strs == nil {
		t.strs = make(map[string][]storage.Tuple)
	}
	k := hashKeyString(keys)
	t.strs[k] = append(t.strs[k], row)
}

// probe returns the build rows filed under keys (nil for NULL keys). It
// errors when the build side holds a key this probe key could not be
// compared with — exactly the pairs the nest-loop plan errored on.
func (t *rowTable) probe(keys []sqltypes.Value) ([]storage.Tuple, error) {
	for _, k := range keys {
		if k.IsNull() {
			return nil, nil
		}
	}
	if t.colKinds != nil {
		for i, k := range keys {
			cls := keyClass(k)
			if t.colKinds[i]&^cls != 0 {
				return nil, fmt.Errorf("exec: cannot compare join key of kind %s with every build-side key", k.Kind())
			}
			if k.Kind() == sqltypes.KindRow && t.colRowWid[i] != nil {
				for w := range t.colRowWid[i] {
					if w != k.NumFields() {
						return nil, fmt.Errorf("exec: cannot compare join keys: rows of %d and %d fields", k.NumFields(), w)
					}
				}
			}
		}
	}
	if len(keys) == 1 && keys[0].IsNumeric() {
		if t.ints == nil {
			return nil, nil
		}
		return t.ints[numericHashBits(keys[0])], nil
	}
	if t.strs == nil {
		return nil, nil
	}
	return t.strs[hashKeyString(keys)], nil
}

// hashJoinNode executes an equi-join by hashing the right (build) side once
// and probing it with left batches — the batch executor's replacement for
// the O(left × right) nest-loop rescan. The headline beneficiary is the
// working-table probe inside recursiveUnionNode: with a static build side
// the hash table survives every Rescan of the recursive term, turning the
// per-iteration join from O(working × build) into O(working) probes.
//
// Hashing is purely an accelerator: the residual carries the original
// equality conjuncts, so NULL keys and cross-type comparisons behave
// exactly as the nest-loop plan did. Pure residuals on inner joins
// evaluate vectorized over gathered batches (and are skipped wholesale
// when the bucket is provably exact — see rowTable); left joins and
// impure residuals check per candidate.
type hashJoinNode struct {
	left, right Node
	kind        plan.JoinKind
	leftKeys    []*ExprState
	rightKeys   []*ExprState
	residual    *ExprState
	rightWidth  int
	rightStatic bool
	single      bool // decorrelated scalar subplan: >1 match per left row errors

	stats *NodeStats // EXPLAIN ANALYZE build-side row count; nil otherwise

	table       rowTable
	built       bool
	rightOpened bool
	held        bool // registered with the run (Ctx.hold)

	in         *Batch // left rows
	inIdx      int
	leftEOF    bool
	keyCols    [][]sqltypes.Value // leftKeys evaluated over the current left batch
	keysEvaled bool               // keyCols valid for the current left batch

	keyRow []sqltypes.Value // per-row probe key scratch

	cand    []storage.Tuple // build candidates for the current left row
	candIdx int
	curLeft storage.Tuple
	haveCur bool
	matched bool

	// Columnar probe state (gatherColumnar). The columnar and boxed paths
	// share n.in/n.inIdx/n.leftEOF, so either can pick up a left batch the
	// other started — but each keeps its own mid-row resume state and only
	// hands off at row boundaries.
	keyCol     *Column   // probe-key lane of the current left batch
	leftSrc    []*Column // left columns of the current left batch
	colKeyed   bool
	colCand    []storage.Tuple
	colCandIdx int
	colLeftIdx int
	colHaveCur bool
	outCols    []Column
	outPtrs    []*Column
	selOne     [1]int32

	// slab is the output-row arena: joined rows of one batch slice off a
	// single allocation instead of paying one make per pair. A slot only
	// advances when the residual accepts the pair, so rejected candidates
	// reuse it. Slabs are never recycled — emitted rows own their slices —
	// unless reuse is set (the fused project wrapper owns the output and
	// never lets a combined row escape the current batch), in which case
	// one arena is recycled across every NextBatch call.
	slab  []sqltypes.Value
	reuse bool
	arena []sqltypes.Value

	residualAllKeys bool             // residual is exactly the key equalities
	resBuf          []sqltypes.Value // deferred-residual scratch column
}

// hashJoinProjectNode fuses a projection into the hash join below it. The
// combined rows of the join are pipeline-internal here — no consumer ever
// retains them — so they live in one recycled arena: the joined row of the
// hot WITH RECURSIVE probe loop costs zero allocations, and the projection
// evaluates vectorized straight over the arena batch.
type hashJoinProjectNode struct {
	join  *hashJoinNode
	exprs []*ExprState
	mid   *Batch
	cols  [][]sqltypes.Value
	pcols []*Column
}

func (n *hashJoinProjectNode) Open(ctx *Ctx) error {
	if n.mid == nil {
		n.mid = NewBatch(ctx.BatchSize)
		n.cols = make([][]sqltypes.Value, len(n.exprs))
		n.pcols = make([]*Column, len(n.exprs))
	}
	return n.join.Open(ctx)
}

func (n *hashJoinProjectNode) Rescan(ctx *Ctx) error { return n.join.Rescan(ctx) }
func (n *hashJoinProjectNode) Close(ctx *Ctx) error  { return n.join.Close(ctx) }

func (n *hashJoinProjectNode) NextBatch(ctx *Ctx, out *Batch) error {
	out.begin()
	n.mid.SetLimit(out.Cap())
	if err := n.join.NextBatch(ctx, n.mid); err != nil {
		return err
	}
	if n.mid.Len() == 0 {
		return nil
	}
	if ctx.Columnar && n.mid.HasCols() && allColable(n.exprs) {
		ok, err := projectColumnarBatch(ctx, n.exprs, n.mid, n.pcols, out)
		if err != nil || ok {
			return err
		}
	}
	return projectColumns(ctx, n.exprs, n.mid.Rows(), n.cols, out)
}

// instantiateHashJoinProject builds the fused Project(HashJoin) node.
func instantiateHashJoinProject(p *plan.Project, hj *plan.HashJoin) (Node, error) {
	jn, err := instantiateHashJoin(hj, nil)
	if err != nil {
		return nil, err
	}
	join := jn.(*hashJoinNode)
	join.reuse = true
	exprs, err := instantiateAll(p.Exprs...)
	if err != nil {
		return nil, err
	}
	return &hashJoinProjectNode{join: join, exprs: exprs}, nil
}

func instantiateHashJoin(x *plan.HashJoin, ana *Analyzer) (Node, error) {
	l, err := instantiateNode(x.Left, ana)
	if err != nil {
		return nil, err
	}
	r, err := instantiateNode(x.Right, ana)
	if err != nil {
		return nil, err
	}
	n := &hashJoinNode{
		left: l, right: r,
		kind:            x.Kind,
		rightWidth:      x.Right.Width(),
		rightStatic:     x.RightStatic,
		single:          x.SingleRow,
		residualAllKeys: x.ResidualAllKeys,
	}
	n.leftKeys, err = instantiateAll(x.LeftKeys...)
	if err != nil {
		return nil, err
	}
	n.rightKeys, err = instantiateAll(x.RightKeys...)
	if err != nil {
		return nil, err
	}
	if x.Residual != nil {
		n.residual, err = instantiateExpr(x.Residual)
		if err != nil {
			return nil, err
		}
	}
	return n, nil
}

func (n *hashJoinNode) Open(ctx *Ctx) error {
	ctx.hold(n, &n.held)
	if n.in == nil {
		n.in = NewBatch(ctx.BatchSize)
		n.keyCols = make([][]sqltypes.Value, len(n.leftKeys))
		n.keyRow = make([]sqltypes.Value, len(n.leftKeys))
	}
	if err := n.left.Open(ctx); err != nil {
		return err
	}
	if !n.built || !n.rightStatic {
		if !n.rightOpened {
			if err := n.right.Open(ctx); err != nil {
				return err
			}
			n.rightOpened = true
		} else if err := n.right.Rescan(ctx); err != nil {
			return err
		}
		if err := n.build(ctx); err != nil {
			return err
		}
	}
	n.resetProbe()
	return nil
}

func (n *hashJoinNode) Rescan(ctx *Ctx) error {
	if err := n.left.Rescan(ctx); err != nil {
		return err
	}
	// A build side that reads CTE state (the recursive working table, or a
	// store rematerialized by an enclosing withNode) must rebuild; a static
	// one keeps its table across every rescan of the probe loop.
	if !n.rightStatic {
		if err := n.right.Rescan(ctx); err != nil {
			return err
		}
		if err := n.build(ctx); err != nil {
			return err
		}
	}
	n.resetProbe()
	return nil
}

// release drops the build table, so the next run builds from its own
// snapshot even when the build side is static, and opens (not rescans)
// the build side again.
func (n *hashJoinNode) release() {
	n.table.reset()
	n.built, n.rightOpened, n.held = false, false, false
	n.cand, n.colCand, n.curLeft = nil, nil, nil
}

func (n *hashJoinNode) resetProbe() {
	n.in.begin()
	n.inIdx = 0
	n.leftEOF = false
	n.haveCur = false
	n.keysEvaled = false
	n.colKeyed = false
	n.colHaveCur = false
}

func (n *hashJoinNode) Close(ctx *Ctx) error {
	err1 := n.left.Close(ctx)
	var err2 error
	if n.rightOpened {
		err2 = n.right.Close(ctx)
	}
	if err1 != nil {
		return err1
	}
	return err2
}

// build drains the right side and hashes every row on its key columns,
// evaluating the key expressions vectorized per batch.
func (n *hashJoinNode) build(ctx *Ctx) error {
	n.table.reset()
	n.built = false
	b := NewBatch(ctx.BatchSize)
	cols := make([][]sqltypes.Value, len(n.rightKeys))
	keyRow := make([]sqltypes.Value, len(n.rightKeys))
	for {
		if err := n.right.NextBatch(ctx, b); err != nil {
			return err
		}
		m := b.Len()
		if m == 0 {
			break
		}
		rows := b.Rows()
		for k, ke := range n.rightKeys {
			cols[k] = growVals(cols[k], m)
			if err := ke.EvalBatch(ctx, rows, cols[k]); err != nil {
				return err
			}
		}
		for i := 0; i < m; i++ {
			for k := range n.rightKeys {
				keyRow[k] = cols[k][i]
			}
			n.table.insert(keyRow, rows[i])
		}
		if n.stats != nil {
			n.stats.BuildRows += int64(m)
		}
	}
	n.built = true
	return nil
}

// combine writes left ++ right into the next slab slot without advancing
// it; commit (slab advance) happens only once the residual accepts.
func (n *hashJoinNode) combine(out *Batch, left, right storage.Tuple) storage.Tuple {
	w := len(left) + len(right)
	if len(n.slab) < w {
		need := (out.Cap() - out.Len()) * w
		if need < w {
			need = w
		}
		n.slab = make([]sqltypes.Value, need)
		if n.reuse {
			n.arena = n.slab
		}
	}
	t := n.slab[:w:w]
	copy(t, left)
	copy(t[len(left):], right)
	return storage.Tuple(t)
}

// NextBatch defers a pure residual on inner joins: hash-matched rows
// gather unfiltered into the batch, then the residual evaluates vectorized
// over the whole batch and survivors compact in place — the equality
// re-check costs one batched comparison column instead of one expression
// tree walk per candidate. Left joins (matched bookkeeping drives null
// extension) and impure residuals keep the per-candidate path.
func (n *hashJoinNode) NextBatch(ctx *Ctx, out *Batch) error {
	if n.canGatherColumnar(ctx) {
		handled, err := n.gatherColumnar(ctx, out)
		if err != nil {
			return err
		}
		if handled {
			return nil
		}
		// Not columnar-probeable right now (row-major left batch, non-lane
		// key, or the boxed path is mid-row): fall through — the boxed path
		// resumes from the shared batch cursor.
	}
	if n.residualAllKeys && n.table.exact() {
		// Bucket membership already decides the key equalities — for any
		// join kind: match, left-join null-extension, and the single-row
		// error all follow from the bucket alone.
		return n.gatherBatch(ctx, out, false)
	}
	if n.kind == plan.JoinInner && n.residual != nil && n.residual.pure {
		for {
			if err := n.gatherBatch(ctx, out, false); err != nil {
				return err
			}
			if out.Len() == 0 {
				return nil
			}
			if err := n.compactResidual(ctx, out); err != nil {
				return err
			}
			if out.Len() > 0 {
				return nil
			}
		}
	}
	return n.gatherBatch(ctx, out, true)
}

// compactResidual keeps only the rows of out whose residual holds.
func (n *hashJoinNode) compactResidual(ctx *Ctx, out *Batch) error {
	rows := out.Rows()
	n.resBuf = growVals(n.resBuf, len(rows))
	if err := n.residual.EvalBatch(ctx, rows, n.resBuf); err != nil {
		return err
	}
	kept := 0
	for i, v := range n.resBuf[:len(rows)] {
		if v.IsTrue() {
			rows[kept] = rows[i]
			kept++
		}
	}
	out.truncate(kept)
	return nil
}

func (n *hashJoinNode) gatherBatch(ctx *Ctx, out *Batch, applyResidual bool) error {
	out.begin()
	if n.reuse {
		n.slab = n.arena
	}
	for {
		// Emit pending candidates of the current left row.
		if n.haveCur {
			for n.candIdx < len(n.cand) {
				if out.Full() {
					return nil
				}
				rt := n.cand[n.candIdx]
				n.candIdx++
				combined := n.combine(out, n.curLeft, rt)
				if applyResidual && n.residual != nil {
					ok, err := n.residual.Eval(ctx, combined)
					if err != nil {
						return err
					}
					if !ok.IsTrue() {
						continue
					}
				}
				if n.single && n.matched {
					// Decorrelated scalar subplan: the subquery it replaced
					// would have raised this on its second row.
					return fmt.Errorf("exec: more than one row returned by a subquery used as an expression")
				}
				n.matched = true
				n.slab = n.slab[len(combined):]
				out.Add(combined)
			}
			if n.kind == plan.JoinLeft && !n.matched {
				if out.Full() {
					return nil
				}
				n.matched = true
				combined := n.combine(out, n.curLeft, nullTuple(n.rightWidth))
				n.slab = n.slab[len(combined):]
				out.Add(combined)
			}
			n.haveCur = false
			if out.Full() {
				// The last candidate filled the batch: stop before pulling
				// (and computing) more left rows — a LIMIT above may never
				// ask for them.
				return nil
			}
		}
		// Advance to the next left row, refilling (and batch-evaluating the
		// probe keys over) the left batch as needed.
		if n.inIdx >= n.in.Len() {
			if n.leftEOF {
				return nil
			}
			// Bound the pull by the consumer's cap so a LIMIT above never
			// makes the probe pipeline compute past the cut; under a
			// consumer bounded below the configured batch size (LIMIT,
			// subplan pulls) degrade to one left row at a time — one left
			// row can fan out to many matches, so even a cap-bounded batch
			// could compute left rows the cut never needs.
			lim := out.Cap()
			if lim > 1 && lim < ctx.BatchSize {
				lim = 1
			}
			n.in.SetLimit(lim)
			if err := n.left.NextBatch(ctx, n.in); err != nil {
				return err
			}
			n.inIdx = 0
			n.keysEvaled = false
			n.colKeyed = false
			if n.in.Len() == 0 {
				n.leftEOF = true
				return nil
			}
		}
		// Probe keys evaluate lazily per left batch: a batch the columnar
		// path started (and handed off mid-way) has its keys evaluated here,
		// once, on first boxed consumption.
		if !n.keysEvaled {
			rows := n.in.Rows()
			for k, ke := range n.leftKeys {
				n.keyCols[k] = growVals(n.keyCols[k], len(rows))
				if err := ke.EvalBatch(ctx, rows, n.keyCols[k]); err != nil {
					return err
				}
			}
			n.keysEvaled = true
		}
		i := n.inIdx
		n.inIdx++
		n.curLeft = n.in.Row(i)
		for k := range n.leftKeys {
			n.keyRow[k] = n.keyCols[k][i]
		}
		cand, err := n.table.probe(n.keyRow)
		if err != nil {
			return err
		}
		n.cand = cand
		n.candIdx = 0
		n.matched = false
		n.haveCur = true
	}
}

// canGatherColumnar reports the plan-shape half of the columnar probe's
// eligibility: an inner join on one key lane with no residual work left
// after the bucket match — either no residual at all, or a pure residual
// that is exactly the key equalities over a provably exact table. (Valid
// only after build; NextBatch runs post-Open.)
func (n *hashJoinNode) canGatherColumnar(ctx *Ctx) bool {
	if !ctx.Columnar || n.kind != plan.JoinInner || len(n.leftKeys) != 1 || !n.leftKeys[0].colable {
		return false
	}
	if n.residual == nil {
		return true
	}
	return n.residual.pure && n.residualAllKeys && n.table.exact()
}

// gatherColumnar probes the int map with unboxed key lanes and gathers
// matches into typed output columns: left columns gather per-pair from the
// (columnar) left batch, build-side values append from the stored tuples.
// The joined batch is emitted columnar — no combined row is ever
// materialized. Returns handled=false (out untouched) when the current left
// batch is not columnar-probeable; the boxed path picks the cursor up at
// the exact row this path stopped at.
func (n *hashJoinNode) gatherColumnar(ctx *Ctx, out *Batch) (bool, error) {
	if n.haveCur {
		return false, nil // boxed path is mid-row; let it finish
	}
	out.begin()
	emitted := 0
	prepared := false
	var leftW, w int
	prep := func() {
		leftW = n.in.NumCols()
		w = leftW + n.rightWidth
		if cap(n.outCols) < w {
			n.outCols = make([]Column, w)
			n.outPtrs = make([]*Column, w)
		}
		n.outCols = n.outCols[:w]
		n.outPtrs = n.outPtrs[:w]
		for c := 0; c < w; c++ {
			n.outCols[c].reset()
			n.outPtrs[c] = &n.outCols[c]
		}
		prepared = true
	}
	for {
		// Emit pending candidates of the current left row.
		if n.colHaveCur {
			if !prepared {
				prep()
			}
			for n.colCandIdx < len(n.colCand) {
				if emitted >= out.Cap() {
					out.SetCols(n.outPtrs, emitted)
					return true, nil
				}
				rt := n.colCand[n.colCandIdx]
				n.colCandIdx++
				n.selOne[0] = int32(n.colLeftIdx)
				for c := 0; c < leftW; c++ {
					n.outCols[c].appendFrom(n.leftSrc[c], n.selOne[:])
				}
				for c := 0; c < n.rightWidth; c++ {
					n.outCols[leftW+c].appendValue(rt[c])
				}
				emitted++
			}
			n.colHaveCur = false
			if emitted >= out.Cap() {
				// Stop before pulling (and computing) more left rows — a
				// LIMIT above may never ask for them.
				out.SetCols(n.outPtrs, emitted)
				return true, nil
			}
		}
		// Advance to the next left row, refilling as needed.
		if n.inIdx >= n.in.Len() {
			if n.leftEOF {
				if emitted > 0 {
					out.SetCols(n.outPtrs, emitted)
				}
				return true, nil
			}
			lim := out.Cap()
			if lim > 1 && lim < ctx.BatchSize {
				lim = 1
			}
			n.in.SetLimit(lim)
			if err := n.left.NextBatch(ctx, n.in); err != nil {
				return true, err
			}
			n.inIdx = 0
			n.keysEvaled = false
			n.colKeyed = false
			if n.in.Len() == 0 {
				n.leftEOF = true
				if emitted > 0 {
					out.SetCols(n.outPtrs, emitted)
				}
				return true, nil
			}
		}
		if !n.in.HasCols() {
			// Row-major left batch: hand it to the boxed path whole (or
			// flush what this path already gathered first).
			if emitted > 0 {
				out.SetCols(n.outPtrs, emitted)
				return true, nil
			}
			return false, nil
		}
		if !n.colKeyed {
			col, err := n.leftKeys[0].EvalCol(ctx, n.in)
			if err != nil {
				return true, err
			}
			if col == nil || (col.Kind != ColInt && col.Kind != ColFloat && col.Kind != ColNull) {
				if emitted > 0 {
					out.SetCols(n.outPtrs, emitted)
					return true, nil
				}
				return false, nil
			}
			n.keyCol = col
			n.leftSrc = n.leftSrc[:0]
			for c := 0; c < n.in.NumCols(); c++ {
				src, cerr := n.in.Col(c)
				if cerr != nil {
					return true, cerr
				}
				n.leftSrc = append(n.leftSrc, src)
			}
			n.colKeyed = true
		}
		// A numeric probe lane against any non-numeric build key raises the
		// same error rowTable.probe raises, on the first non-NULL probe row.
		mismatch := n.table.colKinds != nil && n.table.colKinds[0]&^1 != 0
		for n.inIdx < n.in.Len() {
			i := n.inIdx
			if n.keyCol.null(i) {
				n.inIdx++
				continue
			}
			if mismatch {
				kind := sqltypes.KindInt
				if n.keyCol.Kind == ColFloat {
					kind = sqltypes.KindFloat
				}
				return true, fmt.Errorf("exec: cannot compare join key of kind %s with every build-side key", kind)
			}
			var bits int64
			if n.keyCol.Kind == ColInt {
				bits = int64(math.Float64bits(float64(n.keyCol.Ints[i])))
			} else {
				f := n.keyCol.Floats[i]
				if f == 0 {
					f = 0
				} else if math.IsNaN(f) {
					f = math.NaN()
				}
				bits = int64(math.Float64bits(f))
			}
			n.inIdx++
			if n.table.ints == nil {
				continue
			}
			cand := n.table.ints[bits]
			if len(cand) == 0 {
				continue
			}
			n.colCand = cand
			n.colCandIdx = 0
			n.colLeftIdx = i
			n.colHaveCur = true
			break
		}
	}
}
