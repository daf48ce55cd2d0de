// Package storage implements the on-page representation used by base
// tables and by spilling tuple stores. The layout constants follow
// PostgreSQL (8 KiB pages, 24-byte page header, 4-byte line pointers,
// 23-byte tuple headers, 8-byte MAXALIGN) so that the buffer-page-write
// counts of Table 2 land in the same regime as the paper's measurements.
package storage

import (
	"encoding/binary"
	"fmt"
	"math"

	"plsqlaway/internal/sqltypes"
)

// Layout constants (PostgreSQL-compatible).
const (
	PageSize        = 8192
	PageHeaderSize  = 24
	LinePointerSize = 4
	TupleHeaderSize = 23
	MaxAlign        = 8
)

// Tuple is one row of values.
type Tuple = []sqltypes.Value

// align rounds n up to the next MaxAlign boundary.
func align(n int) int { return (n + MaxAlign - 1) &^ (MaxAlign - 1) }

// TupleDiskSize returns the number of page bytes the tuple occupies: line
// pointer + aligned (header + payload).
func TupleDiskSize(t Tuple) int {
	return LinePointerSize + align(TupleHeaderSize+payloadSize(t))
}

func payloadSize(t Tuple) int {
	n := 2 // field count
	for _, v := range t {
		n += 1 + sqltypes.SizeBytes(v) // kind tag + payload
		if v.Kind() == sqltypes.KindText {
			n += 4 // varlena length word
		}
	}
	return n
}

// EncodeTuple serializes a tuple. The encoding is self-delimiting so pages
// can be decoded without a schema; kinds are tagged per field. This is
// also the database's on-disk tuple format: WAL commit records and
// checkpoint snapshots (internal/wal) carry tuples as EncodeTuple bytes,
// so the in-memory page layout and the durable log/snapshot layout never
// drift apart.
func EncodeTuple(t Tuple) []byte {
	buf := make([]byte, 0, payloadSize(t))
	buf = binary.LittleEndian.AppendUint16(buf, uint16(len(t)))
	for _, v := range t {
		buf = AppendValue(buf, v)
	}
	return buf
}

// AppendValue appends v's self-delimiting, kind-tagged encoding — one field
// of EncodeTuple's format — to buf. Two values encode to the same bytes
// exactly when they have the same kind and payload: 1, 1.0 and '1' differ,
// floats compare bit for bit, NULL equals NULL.
func AppendValue(buf []byte, v sqltypes.Value) []byte {
	buf = append(buf, byte(v.Kind()))
	switch v.Kind() {
	case sqltypes.KindNull:
	case sqltypes.KindBool:
		if v.Bool() {
			buf = append(buf, 1)
		} else {
			buf = append(buf, 0)
		}
	case sqltypes.KindInt:
		buf = binary.LittleEndian.AppendUint64(buf, uint64(v.Int()))
	case sqltypes.KindFloat:
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(v.Float()))
	case sqltypes.KindText:
		s := v.Text()
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(s)))
		buf = append(buf, s...)
	case sqltypes.KindCoord:
		x, y := v.Coord()
		buf = binary.LittleEndian.AppendUint64(buf, uint64(x))
		buf = binary.LittleEndian.AppendUint64(buf, uint64(y))
	case sqltypes.KindRow:
		fields := v.Row()
		buf = binary.LittleEndian.AppendUint16(buf, uint16(len(fields)))
		for _, f := range fields {
			buf = AppendValue(buf, f)
		}
	}
	return buf
}

// DecodeTuple deserializes a tuple encoded by EncodeTuple.
func DecodeTuple(buf []byte) (Tuple, error) {
	if len(buf) < 2 {
		return nil, fmt.Errorf("storage: truncated tuple")
	}
	n := int(binary.LittleEndian.Uint16(buf))
	buf = buf[2:]
	t := make(Tuple, n)
	var err error
	for i := 0; i < n; i++ {
		t[i], buf, err = decodeValue(buf)
		if err != nil {
			return nil, err
		}
	}
	return t, nil
}

func decodeValue(buf []byte) (sqltypes.Value, []byte, error) {
	if len(buf) < 1 {
		return sqltypes.Null, nil, fmt.Errorf("storage: truncated value")
	}
	kind := sqltypes.Kind(buf[0])
	buf = buf[1:]
	switch kind {
	case sqltypes.KindNull:
		return sqltypes.Null, buf, nil
	case sqltypes.KindBool:
		if len(buf) < 1 {
			return sqltypes.Null, nil, fmt.Errorf("storage: truncated bool")
		}
		return sqltypes.NewBool(buf[0] != 0), buf[1:], nil
	case sqltypes.KindInt:
		if len(buf) < 8 {
			return sqltypes.Null, nil, fmt.Errorf("storage: truncated int")
		}
		return sqltypes.NewInt(int64(binary.LittleEndian.Uint64(buf))), buf[8:], nil
	case sqltypes.KindFloat:
		if len(buf) < 8 {
			return sqltypes.Null, nil, fmt.Errorf("storage: truncated float")
		}
		return sqltypes.NewFloat(math.Float64frombits(binary.LittleEndian.Uint64(buf))), buf[8:], nil
	case sqltypes.KindText:
		if len(buf) < 4 {
			return sqltypes.Null, nil, fmt.Errorf("storage: truncated text length")
		}
		n := int(binary.LittleEndian.Uint32(buf))
		buf = buf[4:]
		if len(buf) < n {
			return sqltypes.Null, nil, fmt.Errorf("storage: truncated text payload")
		}
		return sqltypes.NewText(string(buf[:n])), buf[n:], nil
	case sqltypes.KindCoord:
		if len(buf) < 16 {
			return sqltypes.Null, nil, fmt.Errorf("storage: truncated coord")
		}
		x := int64(binary.LittleEndian.Uint64(buf))
		y := int64(binary.LittleEndian.Uint64(buf[8:]))
		return sqltypes.NewCoord(x, y), buf[16:], nil
	case sqltypes.KindRow:
		if len(buf) < 2 {
			return sqltypes.Null, nil, fmt.Errorf("storage: truncated row")
		}
		n := int(binary.LittleEndian.Uint16(buf))
		buf = buf[2:]
		fields := make([]sqltypes.Value, n)
		var err error
		for i := 0; i < n; i++ {
			fields[i], buf, err = decodeValue(buf)
			if err != nil {
				return sqltypes.Null, nil, err
			}
		}
		return sqltypes.NewRow(fields), buf, nil
	default:
		return sqltypes.Null, nil, fmt.Errorf("storage: bad kind tag %d", kind)
	}
}

// Page is an 8 KiB heap page holding encoded tuples. freeSpace tracks the
// bytes still available after the header, line pointers, and tuple data.
type Page struct {
	tuples    [][]byte
	usedBytes int
}

// NewPage returns an empty page.
func NewPage() *Page { return &Page{usedBytes: PageHeaderSize} }

// FreeSpace reports the remaining bytes.
func (p *Page) FreeSpace() int { return PageSize - p.usedBytes }

// TryAdd appends the encoded tuple if it fits and reports success. Tuples
// larger than an empty page are stored anyway on an empty page (our stand-in
// for TOAST) so oversized text arguments cannot wedge the store.
func (p *Page) TryAdd(enc []byte) bool {
	need := LinePointerSize + align(TupleHeaderSize+len(enc))
	if need > p.FreeSpace() && len(p.tuples) > 0 {
		return false
	}
	p.tuples = append(p.tuples, enc)
	p.usedBytes += need
	return true
}

// NumTuples reports how many tuples the page holds.
func (p *Page) NumTuples() int { return len(p.tuples) }

// Tuple decodes tuple i.
func (p *Page) Tuple(i int) (Tuple, error) { return DecodeTuple(p.tuples[i]) }
