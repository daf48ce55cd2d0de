package wire

import (
	"encoding/binary"
	"math"

	"plsqlaway/internal/sqltypes"
)

// ColBatch is the result chunk — the only one: one executor batch shipped
// column-at-a-time as unboxed typed arrays instead of kind-tagged values.
// A homogeneous column costs 8 bytes per int/float (1 bit per bool) with
// no per-value tag byte; the server fills each lane from the executor's
// rows in one pass per column. Columns that stay mixed-type fall back to
// the tagged Value encoding inside the same frame (ColTagAny), so any
// result shape fits.
//
// Layout: uvarint row count, uvarint column count, then per column a tag
// byte, a has-nulls flag byte, an optional null bitmap (ceil(n/8) bytes,
// LSB-first), and the tag's payload lane. NULL slots in typed lanes carry
// zero values; the bitmap is authoritative. ColTagNull columns (every
// value NULL, e.g. SELECT NULL) always carry the bitmap so that every
// column of every tag costs at least ceil(n/8) payload bytes — that keeps
// the decoder's allocations proportional to bytes actually received even
// for hostile row counts.
type ColBatch struct {
	NumRows int
	Cols    []ColData
}

// ColData is one encoded column. Exactly the lane matching Tag is
// populated; Nulls is nil when no value in the column is NULL.
type ColData struct {
	Tag    byte
	Nulls  []bool
	Ints   []int64
	Floats []float64
	Bools  []bool
	Texts  []string
	Anys   []sqltypes.Value
}

// Column tags: which lane a ColData ships.
const (
	ColTagAny   byte = 0 // kind-tagged Values (mixed-type or rare kinds)
	ColTagInt   byte = 1
	ColTagFloat byte = 2
	ColTagBool  byte = 3
	ColTagText  byte = 4
	ColTagNull  byte = 5 // all-NULL column: bitmap only, no value lane
)

// MaxColBatchRows bounds the row count a single ColBatch frame may claim.
// Servers chunk larger batches; the decoder rejects anything above it
// before allocating.
const MaxColBatchRows = 1 << 20

func (m *ColBatch) Type() byte { return TypeColBatch }

func (m *ColBatch) encode(e *Encoder) {
	n := m.NumRows
	e.Uvarint(uint64(n))
	e.Uvarint(uint64(len(m.Cols)))
	for i := range m.Cols {
		c := &m.Cols[i]
		e.Byte(c.Tag)
		hasNulls := c.Nulls != nil || c.Tag == ColTagNull
		e.Bool(hasNulls)
		if hasNulls {
			e.bitmap(c.Nulls, n, c.Tag == ColTagNull)
		}
		switch c.Tag {
		case ColTagInt:
			for i := 0; i < n; i++ {
				e.Int64(laneAt(c.Ints, i))
			}
		case ColTagFloat:
			for i := 0; i < n; i++ {
				e.Uint64(math.Float64bits(laneAt(c.Floats, i)))
			}
		case ColTagBool:
			e.bitmap(c.Bools, n, false)
		case ColTagText:
			for i := 0; i < n; i++ {
				e.String(laneAt(c.Texts, i))
			}
		case ColTagAny:
			for i := 0; i < n; i++ {
				v := sqltypes.Null
				if i < len(c.Anys) {
					v = c.Anys[i]
				}
				e.Value(v)
			}
		case ColTagNull:
			// bitmap only
		}
	}
}

// laneAt reads lane[i], tolerating short lanes (zero value) so that a
// hand-built message can never make encode panic.
func laneAt[T any](lane []T, i int) T {
	if i < len(lane) {
		return lane[i]
	}
	var zero T
	return zero
}

// bitmap appends ceil(n/8) bytes, bit i set when bits[i] (LSB-first
// within each byte). allOnes substitutes an all-true bitmap (the
// canonical ColTagNull form when Nulls was left nil). Padding bits in the
// final byte are always zero, so decode→re-encode is byte-stable.
func (e *Encoder) bitmap(bits []bool, n int, allOnes bool) {
	var cur byte
	for i := 0; i < n; i++ {
		if allOnes || laneAt(bits, i) {
			cur |= 1 << (i % 8)
		}
		if i%8 == 7 {
			e.Byte(cur)
			cur = 0
		}
	}
	if n%8 != 0 {
		e.Byte(cur)
	}
}

func (m *ColBatch) decode(d *Decoder) {
	rows := d.Uvarint()
	if d.err == nil && rows > MaxColBatchRows {
		d.fail("column batch claims %d rows (max %d)", rows, MaxColBatchRows)
	}
	n := int(rows)
	ncols := d.Uvarint()
	// Every column costs at least 2 header bytes, so the claimed count is
	// bounded by the remaining payload before anything is allocated.
	if d.err == nil && ncols > uint64(d.Remaining())/2 {
		d.fail("column batch claims %d columns, only %d payload bytes remain", ncols, d.Remaining())
	}
	// With zero columns there are no per-row payload bytes to bound n, so
	// an empty-width batch must be empty.
	if d.err == nil && n > 0 && ncols == 0 {
		d.fail("column batch claims %d rows with no columns", n)
	}
	if d.err != nil {
		return
	}
	cols := make([]ColData, 0, capHint(int(ncols)))
	for i := 0; i < int(ncols); i++ {
		var c ColData
		c.Tag = d.Byte()
		hasNulls := d.Bool()
		if hasNulls {
			c.Nulls = d.bitmap(n)
		}
		switch c.Tag {
		case ColTagInt:
			c.Ints = d.intLane(n)
		case ColTagFloat:
			c.Floats = d.floatLane(n)
		case ColTagBool:
			c.Bools = d.bitmap(n)
		case ColTagText:
			c.Texts = d.textLane(n)
		case ColTagAny:
			c.Anys = d.anyLane(n)
		case ColTagNull:
			if d.err == nil && !hasNulls {
				d.fail("all-NULL column without its null bitmap")
			}
		default:
			d.fail("unknown column tag %d", c.Tag)
		}
		if d.err != nil {
			return
		}
		cols = append(cols, c)
	}
	m.NumRows = n
	m.Cols = cols
}

// bitmap reads ceil(n/8) LSB-first bytes into n bools. Padding bits are
// ignored so re-encoding (which zeroes them) stays stable.
func (d *Decoder) bitmap(n int) []bool {
	raw := d.take((n + 7) / 8)
	if raw == nil {
		return nil
	}
	bits := make([]bool, n)
	for i := range bits {
		bits[i] = raw[i/8]&(1<<(i%8)) != 0
	}
	return bits
}

func (d *Decoder) intLane(n int) []int64 {
	raw := d.take(n * 8)
	if raw == nil {
		return nil
	}
	lane := make([]int64, n)
	for i := range lane {
		lane[i] = int64(binary.BigEndian.Uint64(raw[i*8:]))
	}
	return lane
}

func (d *Decoder) floatLane(n int) []float64 {
	raw := d.take(n * 8)
	if raw == nil {
		return nil
	}
	lane := make([]float64, n)
	for i := range lane {
		lane[i] = math.Float64frombits(binary.BigEndian.Uint64(raw[i*8:]))
	}
	return lane
}

func (d *Decoder) textLane(n int) []string {
	lane := make([]string, 0, capHint(n))
	for i := 0; i < n; i++ {
		s := d.String()
		if d.err != nil {
			return nil
		}
		lane = append(lane, s)
	}
	return lane
}

func (d *Decoder) anyLane(n int) []sqltypes.Value {
	lane := make([]sqltypes.Value, 0, capHint(n))
	for i := 0; i < n; i++ {
		v := d.Value()
		if d.err != nil {
			return nil
		}
		lane = append(lane, v)
	}
	return lane
}

// Rows boxes the batch back into row-major tuples — the client-side
// bridge from typed lanes to a materialized Result. One backing
// allocation serves all rows.
func (m *ColBatch) Rows() [][]sqltypes.Value {
	n, w := m.NumRows, len(m.Cols)
	if n == 0 {
		return nil
	}
	backing := make([]sqltypes.Value, n*w)
	rows := make([][]sqltypes.Value, n)
	for r := range rows {
		rows[r] = backing[r*w : (r+1)*w : (r+1)*w]
	}
	for c := range m.Cols {
		col := &m.Cols[c]
		for r := 0; r < n; r++ {
			rows[r][c] = col.valueAt(r)
		}
	}
	return rows
}

// valueAt boxes row r of the column.
func (c *ColData) valueAt(r int) sqltypes.Value {
	if c.Tag == ColTagNull || (r < len(c.Nulls) && c.Nulls[r]) {
		return sqltypes.Null
	}
	switch c.Tag {
	case ColTagInt:
		return sqltypes.NewInt(laneAt(c.Ints, r))
	case ColTagFloat:
		return sqltypes.NewFloat(laneAt(c.Floats, r))
	case ColTagBool:
		return sqltypes.NewBool(laneAt(c.Bools, r))
	case ColTagText:
		return sqltypes.NewText(laneAt(c.Texts, r))
	default:
		if r < len(c.Anys) {
			return c.Anys[r]
		}
		return sqltypes.Null
	}
}
