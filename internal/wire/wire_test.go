package wire

import (
	"bytes"
	"encoding/binary"
	"math"
	"reflect"
	"strings"
	"testing"

	"plsqlaway/internal/sqltypes"
	"plsqlaway/internal/storage"
)

// sampleMessages covers every frame type with representative payloads.
func sampleMessages() []Message {
	return []Message{
		&Startup{Version: ProtocolVersion, Seed: 42},
		&Query{SQL: "SELECT 1"},
		&Query{SQL: ""},
		&Parse{Name: "s1", SQL: "SELECT $1 + $2"},
		&Execute{Name: "s1", Params: []sqltypes.Value{
			sqltypes.NewInt(7),
			sqltypes.NewFloat(math.Inf(-1)),
			sqltypes.NewText("hello 'world'"),
			sqltypes.NewBool(true),
			sqltypes.Null,
			sqltypes.NewCoord(-3, 9),
			sqltypes.NewRow([]sqltypes.Value{
				sqltypes.NewInt(1),
				sqltypes.NewRow([]sqltypes.Value{sqltypes.NewText("nested")}),
			}),
		}},
		&Execute{Name: "s2", Params: nil},
		&CloseStmt{Name: "s1"},
		&Seed{Seed: 99},
		&StatsRequest{},
		&Terminate{},
		&Ready{Server: "plsqlaway test"},
		&RowDesc{Cols: []string{"a", "b", "?column?"}},
		&ColBatch{NumRows: 5, Cols: []ColData{
			{Tag: ColTagInt, Ints: []int64{1, -2, 0, math.MaxInt64, math.MinInt64},
				Nulls: []bool{false, false, true, false, false}},
			{Tag: ColTagFloat, Floats: []float64{0, 1.5, math.Inf(1), -0.0, 2.25}},
			{Tag: ColTagBool, Bools: []bool{true, false, true, true, false}},
			{Tag: ColTagText, Texts: []string{"a", "", "héllo", "d", "e"},
				Nulls: []bool{false, true, false, false, false}},
			{Tag: ColTagNull, Nulls: []bool{true, true, true, true, true}},
			{Tag: ColTagAny, Anys: []sqltypes.Value{
				sqltypes.NewCoord(1, 2), sqltypes.Null, sqltypes.NewInt(3),
				sqltypes.NewRow([]sqltypes.Value{sqltypes.NewText("r")}), sqltypes.NewBool(false),
			}},
		}},
		&ColBatch{NumRows: 0, Cols: nil},
		&ColBatch{NumRows: 9, Cols: []ColData{
			{Tag: ColTagBool, Bools: []bool{true, false, true, false, true, false, true, false, true}},
		}},
		&Done{Tag: "OK"},
		&Error{Message: "engine: relation \"nope\" does not exist"},
		&ParseOK{Name: "s1", NumParams: 2, IsQuery: true},
		&StatsReply{Stats: storage.StatsSnapshot{
			PageWrites: 1, PagesAlloc: 2, TuplesWritten: 3, BytesWritten: 4,
			Commits: 5, Vacuums: 6, VersionsReclaimed: 7,
		}, Plans: PlanStats{
			PlansInlined: 8, SpecializedPlans: 9, CacheEvictions: 10,
			CacheHits: 11, CacheMisses: 12,
		}, ActiveConns: 3},
	}
}

// valuesIdentical compares decoded values NaN-safely.
func valuesIdentical(a, b sqltypes.Value) bool {
	if a.Kind() != b.Kind() {
		return false
	}
	if a.Kind() == sqltypes.KindFloat && math.IsNaN(a.Float()) && math.IsNaN(b.Float()) {
		return true
	}
	return sqltypes.Identical(a, b) || (a.IsNull() && b.IsNull())
}

func messagesEqual(t *testing.T, want, got Message) bool {
	t.Helper()
	switch w := want.(type) {
	case *Execute:
		g := got.(*Execute)
		if w.Name != g.Name || len(w.Params) != len(g.Params) {
			return false
		}
		for i := range w.Params {
			if !valuesIdentical(w.Params[i], g.Params[i]) {
				return false
			}
		}
		return true
	case *ColBatch:
		g := got.(*ColBatch)
		if w.NumRows != g.NumRows || len(w.Cols) != len(g.Cols) {
			return false
		}
		for c := range w.Cols {
			if w.Cols[c].Tag != g.Cols[c].Tag {
				return false
			}
			for r := 0; r < w.NumRows; r++ {
				if !valuesIdentical(w.Cols[c].valueAt(r), g.Cols[c].valueAt(r)) {
					return false
				}
			}
		}
		return true
	default:
		return reflect.DeepEqual(want, got)
	}
}

func TestMessageRoundTrip(t *testing.T) {
	for _, m := range sampleMessages() {
		var buf bytes.Buffer
		if err := WriteMessage(&buf, m); err != nil {
			t.Fatalf("%T: write: %v", m, err)
		}
		got, err := ReadMessage(&buf)
		if err != nil {
			t.Fatalf("%T: read: %v", m, err)
		}
		if got.Type() != m.Type() {
			t.Fatalf("%T: type %c → %c", m, m.Type(), got.Type())
		}
		if !messagesEqual(t, m, got) {
			t.Errorf("%T: round trip mismatch:\nwant %#v\ngot  %#v", m, m, got)
		}
		if buf.Len() != 0 {
			t.Errorf("%T: %d undrained bytes after read", m, buf.Len())
		}
	}
}

func TestOversizedFrameRejected(t *testing.T) {
	var hdr [5]byte
	hdr[0] = TypeQuery
	binary.BigEndian.PutUint32(hdr[1:], MaxFrameLen+1)
	_, _, err := ReadFrame(bytes.NewReader(hdr[:]))
	if err == nil || !strings.Contains(err.Error(), "limit") {
		t.Fatalf("oversized frame not rejected: %v", err)
	}
}

func TestTruncatedFrame(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteMessage(&buf, &Query{SQL: "SELECT 1"}); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	for cut := 0; cut < len(full); cut++ {
		if _, err := ReadMessage(bytes.NewReader(full[:cut])); err == nil {
			t.Errorf("truncation at %d/%d bytes decoded without error", cut, len(full))
		}
	}
}

func TestTrailingGarbageRejected(t *testing.T) {
	var e Encoder
	(&Seed{Seed: 1}).encode(&e)
	payload := append(e.Bytes(), 0xFF)
	if _, err := Decode(TypeSeed, payload); err == nil {
		t.Fatal("trailing garbage accepted")
	}
}

func TestLengthLieRejected(t *testing.T) {
	// A string that claims more bytes than the payload holds must error,
	// not allocate or panic.
	var e Encoder
	e.Uvarint(1 << 40)
	if _, err := Decode(TypeQuery, e.Bytes()); err == nil {
		t.Fatal("huge claimed string length accepted")
	}
}

func TestDeepRowRejected(t *testing.T) {
	// Nest rows past maxValueDepth: each level is kind-byte + count 1.
	var e Encoder
	e.String("s")
	// Execute params: count 1, then nested rows.
	e.Uvarint(1)
	for i := 0; i < maxValueDepth+4; i++ {
		e.Byte(byte(sqltypes.KindRow))
		e.Uvarint(1)
	}
	e.Byte(byte(sqltypes.KindNull))
	if _, err := Decode(TypeExecute, e.Bytes()); err == nil {
		t.Fatal("over-deep row nesting accepted")
	}
}

// TestColBatchMalformedRejected drives the columnar decoder with frames
// whose claimed shapes disagree with their payloads: none may panic,
// allocate proportionally to the lie, or decode successfully.
func TestColBatchMalformedRejected(t *testing.T) {
	cases := map[string]func(e *Encoder){
		"rows beyond cap": func(e *Encoder) {
			e.Uvarint(MaxColBatchRows + 1)
			e.Uvarint(1)
		},
		"rows without columns": func(e *Encoder) {
			e.Uvarint(1000)
			e.Uvarint(0)
		},
		"columns beyond payload": func(e *Encoder) {
			e.Uvarint(0)
			e.Uvarint(1 << 30)
		},
		"truncated int lane": func(e *Encoder) {
			e.Uvarint(100)
			e.Uvarint(1)
			e.Byte(ColTagInt)
			e.Bool(false)
			e.Uint64(7) // 1 of the 100 claimed values
		},
		"truncated null bitmap": func(e *Encoder) {
			e.Uvarint(64)
			e.Uvarint(1)
			e.Byte(ColTagText)
			e.Bool(true)
			e.Byte(0xFF) // 1 of the 8 bitmap bytes
		},
		"null column without bitmap": func(e *Encoder) {
			e.Uvarint(4)
			e.Uvarint(1)
			e.Byte(ColTagNull)
			e.Bool(false)
		},
		"unknown tag": func(e *Encoder) {
			e.Uvarint(1)
			e.Uvarint(1)
			e.Byte(200)
			e.Bool(false)
			e.Uint64(1)
		},
		"lying text length": func(e *Encoder) {
			e.Uvarint(1)
			e.Uvarint(1)
			e.Byte(ColTagText)
			e.Bool(false)
			e.Uvarint(1 << 40)
		},
	}
	for name, build := range cases {
		var e Encoder
		build(&e)
		if _, err := Decode(TypeColBatch, e.Bytes()); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// TestColBatchReencodeStable pins canonical re-encoding: a decoded frame
// re-encodes to identical bytes even when the original carried garbage
// in its bitmap padding bits (decode ignores them, encode zeroes them).
func TestColBatchReencodeStable(t *testing.T) {
	var e Encoder
	e.Uvarint(3)
	e.Uvarint(1)
	e.Byte(ColTagBool)
	e.Bool(true)
	e.Byte(0b1110_0101) // null bitmap: rows 0,2 + garbage in bits 5..7
	e.Byte(0b1111_1010) // bool lane: rows 1 + garbage past row 2
	m, err := Decode(TypeColBatch, e.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	_, first, err := EncodeMessage(m)
	if err != nil {
		t.Fatal(err)
	}
	m2, err := Decode(TypeColBatch, first)
	if err != nil {
		t.Fatalf("re-decode: %v", err)
	}
	_, second, err := EncodeMessage(m2)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first, second) {
		t.Fatalf("re-encode unstable:\nfirst  %x\nsecond %x", first, second)
	}
	cb := m.(*ColBatch)
	rows := cb.Rows()
	if len(rows) != 3 || !rows[0][0].IsNull() || rows[1][0].Bool() != true || !rows[2][0].IsNull() {
		t.Fatalf("decoded rows %v", rows)
	}
}

func TestWriteOversizedFrameRejected(t *testing.T) {
	var buf bytes.Buffer
	err := WriteFrame(&buf, TypeColBatch, make([]byte, MaxFrameLen+1))
	if err == nil || !strings.Contains(err.Error(), "limit") {
		t.Fatalf("oversized write not rejected: %v", err)
	}
	if buf.Len() != 0 {
		t.Fatalf("%d bytes written despite size rejection — stream corrupted", buf.Len())
	}
}
