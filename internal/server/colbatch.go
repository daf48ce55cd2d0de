package server

import (
	"errors"
	"fmt"

	"plsqlaway/internal/exec"
	"plsqlaway/internal/sqltypes"
	"plsqlaway/internal/storage"
	"plsqlaway/internal/wire"
)

// writeBatch emits one executor batch as a ColBatch frame.
func (c *conn) writeBatch(b *exec.Batch) error {
	if err := colBatch(b.Rows(), &c.cb); err != nil {
		return err
	}
	return c.writeRows(0, c.cb.NumRows)
}

// writeRows ships rows [lo, hi) of c.cb as one frame. A range whose
// encoding exceeds the frame limit is halved until it fits (write checks
// the size before emitting any bytes, so the stream stays intact); a
// single over-limit row fails the whole response, which respondRows
// terminates with an Error frame.
func (c *conn) writeRows(lo, hi int) error {
	if hi-lo <= wire.MaxColBatchRows {
		m := &c.cb
		if lo > 0 || hi < c.cb.NumRows {
			m = &c.part
			sliceCols(&c.cb, m, lo, hi)
		}
		if err := c.write(m); !errors.Is(err, wire.ErrFrameTooLarge) {
			return err
		}
	}
	if hi-lo == 1 {
		return fmt.Errorf("result row exceeds the %d-byte frame limit", wire.MaxFrameLen)
	}
	mid := lo + (hi-lo)/2
	if err := c.writeRows(lo, mid); err != nil {
		return err
	}
	return c.writeRows(mid, hi)
}

// sliceCols points dst at rows [lo, hi) of src, lane by lane.
func sliceCols(src, dst *wire.ColBatch, lo, hi int) {
	dst.NumRows = hi - lo
	dst.Cols = append(dst.Cols[:0], src.Cols...)
	for i := range dst.Cols {
		cd := &dst.Cols[i]
		if cd.Nulls != nil {
			cd.Nulls = cd.Nulls[lo:hi]
		}
		switch cd.Tag {
		case wire.ColTagInt:
			cd.Ints = cd.Ints[lo:hi]
		case wire.ColTagFloat:
			cd.Floats = cd.Floats[lo:hi]
		case wire.ColTagBool:
			cd.Bools = cd.Bools[lo:hi]
		case wire.ColTagText:
			cd.Texts = cd.Texts[lo:hi]
		case wire.ColTagAny:
			cd.Anys = cd.Anys[lo:hi]
		}
	}
}

// colBatch re-frames the rows of one executor batch as the wire ColBatch
// m, reusing the lanes m already holds. The message is valid until the
// next call, which is fine: the caller encodes and writes it first.
func colBatch(rows []storage.Tuple, m *wire.ColBatch) error {
	w := 0
	if len(rows) > 0 {
		w = len(rows[0])
	}
	for r, row := range rows {
		if len(row) != w {
			return fmt.Errorf("result row %d has %d columns, want %d", r, len(row), w)
		}
	}
	if cap(m.Cols) < w {
		m.Cols = append(m.Cols[:cap(m.Cols)], make([]wire.ColData, w-cap(m.Cols))...)
	}
	m.Cols = m.Cols[:w]
	m.NumRows = len(rows)
	for c := range m.Cols {
		fillCol(&m.Cols[c], rows, c)
	}
	return nil
}

// fillCol transposes column c of rows into cd in one pass. The first
// non-NULL value picks the lane (Int, Float, Bool or Text); a value of
// another kind, or of a composite kind, makes the column kind-tagged
// values (Any), which carry their NULLs inline. A column without a
// non-NULL value is Null. The Nulls bitmap of a typed lane stays nil
// unless the column has a NULL.
func fillCol(cd *wire.ColData, rows []storage.Tuple, c int) {
	n, old := len(rows), *cd
	*cd = wire.ColData{Tag: wire.ColTagNull}
	markNull := func(r int) {
		if cd.Nulls == nil {
			cd.Nulls = zeroed(old.Nulls, n)
		}
		cd.Nulls[r] = true
	}
	for r, row := range rows {
		v := row[c]
		if v.IsNull() {
			if cd.Tag != wire.ColTagNull {
				markNull(r)
			}
			continue
		}
		tag := laneTag(v.Kind())
		if cd.Tag == wire.ColTagNull {
			cd.Tag = tag
			for i := 0; i < r; i++ {
				markNull(i)
			}
			switch tag {
			case wire.ColTagInt:
				cd.Ints = zeroed(old.Ints, n)
			case wire.ColTagFloat:
				cd.Floats = zeroed(old.Floats, n)
			case wire.ColTagBool:
				cd.Bools = zeroed(old.Bools, n)
			case wire.ColTagText:
				cd.Texts = zeroed(old.Texts, n)
			}
		}
		switch {
		case tag != cd.Tag || tag == wire.ColTagAny:
			*cd = wire.ColData{Tag: wire.ColTagAny, Anys: zeroed(old.Anys, n)}
			for i, row := range rows {
				cd.Anys[i] = row[c]
			}
			return
		case tag == wire.ColTagInt:
			cd.Ints[r] = v.Int()
		case tag == wire.ColTagFloat:
			cd.Floats[r] = v.Float()
		case tag == wire.ColTagBool:
			cd.Bools[r] = v.Bool()
		default:
			cd.Texts[r] = v.Text()
		}
	}
}

// laneTag names the typed lane of a value kind, ColTagAny for the rest.
func laneTag(k sqltypes.Kind) byte {
	switch k {
	case sqltypes.KindInt:
		return wire.ColTagInt
	case sqltypes.KindFloat:
		return wire.ColTagFloat
	case sqltypes.KindBool:
		return wire.ColTagBool
	case sqltypes.KindText:
		return wire.ColTagText
	}
	return wire.ColTagAny
}

// zeroed returns buf resized to n zero values, reallocating only when it
// must.
func zeroed[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	buf = buf[:n]
	clear(buf)
	return buf
}
