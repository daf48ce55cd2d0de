package server

import (
	"errors"
	"fmt"

	"plsqlaway/internal/exec"
	"plsqlaway/internal/wire"
)

// writeBatch emits one executor batch as a columnar ColBatch frame, the
// typed lanes aliased straight into the encoder.
func (c *conn) writeBatch(b *exec.Batch) error {
	if err := colBatch(b, &c.cb); err != nil {
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

// colBatch re-frames one executor batch as a wire ColBatch, aliasing the
// executor's typed column lanes — zero copies for int, float, bool, and
// text columns. The message is valid only until the executor's next pull
// (the lanes are producer-owned), which is fine: the caller encodes and
// writes it before pulling again.
func colBatch(b *exec.Batch, m *wire.ColBatch) error {
	n, w := b.Len(), b.Width()
	if cap(m.Cols) < w {
		m.Cols = make([]wire.ColData, w)
	}
	m.Cols = m.Cols[:w]
	m.NumRows = n
	for i := 0; i < w; i++ {
		col, err := b.Col(i)
		if err != nil {
			return err
		}
		cd := &m.Cols[i]
		*cd = wire.ColData{}
		switch col.Kind {
		case exec.ColInt:
			cd.Tag = wire.ColTagInt
			cd.Ints = col.Ints[:n]
		case exec.ColFloat:
			cd.Tag = wire.ColTagFloat
			cd.Floats = col.Floats[:n]
		case exec.ColBool:
			cd.Tag = wire.ColTagBool
			cd.Bools = col.Bools[:n]
		case exec.ColStr:
			cd.Tag = wire.ColTagText
			cd.Texts = col.Strs[:n]
		case exec.ColNull:
			cd.Tag = wire.ColTagNull
			continue // the bitmap is implied all-true; no value lane
		default: // ColAny and anything future: kind-tagged values
			cd.Tag = wire.ColTagAny
			cd.Anys = col.Vals[:n]
			continue // NULLs travel inside the boxed values
		}
		if col.Nulls != nil {
			cd.Nulls = col.Nulls[:n]
		}
	}
	return nil
}
