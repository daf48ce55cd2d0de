package wire

import (
	"bytes"
	"strings"
	"testing"
)

// FuzzDecode feeds arbitrary byte streams to the frame reader and message
// decoders. The invariants: no panic, no runaway allocation (lengths are
// validated against real bytes before allocating), and any frame that
// decodes successfully re-encodes to a frame that decodes to the same
// message type (decode/encode/decode stability).
func FuzzDecode(f *testing.F) {
	for _, m := range sampleMessages() {
		var buf bytes.Buffer
		if err := WriteMessage(&buf, m); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	// Hand-made malformed seeds: bad type, lying lengths, truncations.
	f.Add([]byte{})
	f.Add([]byte{0x00, 0x00, 0x00, 0x00, 0x00})
	f.Add([]byte{'Q', 0xFF, 0xFF, 0xFF, 0xFF})
	f.Add([]byte{'E', 0x00, 0x00, 0x00, 0x02, 0x01, 's'})
	// Columnar frames: lying row count, rows with no columns to bound
	// them, truncated typed lane, null column missing its bitmap.
	f.Add([]byte{'b', 0x00, 0x00, 0x00, 0x06, 0xFF, 0xFF, 0xFF, 0x7F, 0x01, 0x01})
	f.Add([]byte{'b', 0x00, 0x00, 0x00, 0x03, 0xE8, 0x07, 0x00})
	f.Add([]byte{'b', 0x00, 0x00, 0x00, 0x07, 0x10, 0x01, 0x01, 0x00, 0x00, 0x01, 0x02})
	f.Add([]byte{'b', 0x00, 0x00, 0x00, 0x04, 0x04, 0x01, 0x05, 0x00})
	// A zero-column batch (legal only when empty) and one executor batch
	// as the server ships it after halving: two frames back to back.
	{
		var buf bytes.Buffer
		halves := []Message{
			&ColBatch{},
			&ColBatch{NumRows: 2, Cols: []ColData{{Tag: ColTagInt, Ints: []int64{1, 2}}, {Tag: ColTagText, Texts: []string{"a", "b"}}}},
			&ColBatch{NumRows: 2, Cols: []ColData{{Tag: ColTagInt, Ints: []int64{3, 4}}, {Tag: ColTagText, Texts: []string{"c", "d"}}}},
		}
		for _, m := range halves {
			if err := WriteMessage(&buf, m); err != nil {
				f.Fatal(err)
			}
		}
		f.Add(buf.Bytes())
	}
	{
		var buf bytes.Buffer
		if err := WriteMessage(&buf, &Query{SQL: "EXPLAIN ANALYZE SELECT dist(src, dst) FROM hops"}); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	// The retired row-major result frame's type byte is now just unknown.
	if _, err := Decode('d', []byte{0x00}); err == nil || !strings.Contains(err.Error(), "unknown frame type") {
		f.Fatalf("type byte 'd' decoded: %v", err)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		r := bytes.NewReader(data)
		for {
			typ, payload, err := ReadFrame(r)
			if err != nil {
				// Includes io.EOF at a clean frame boundary and
				// io.ErrUnexpectedEOF mid-frame — both fine; the invariant
				// is no panic. (Allocation bounds are structural: ReadFrame
				// rejects over-limit lengths before allocating and the
				// decoders clamp capacity hints via capHint.)
				return
			}
			m, err := Decode(typ, payload)
			if err != nil {
				continue
			}
			// Re-encode and decode again: must succeed and keep the type.
			var buf bytes.Buffer
			if err := WriteMessage(&buf, m); err != nil {
				t.Fatalf("re-encode of decoded %T failed: %v", m, err)
			}
			m2, err := ReadMessage(&buf)
			if err != nil {
				t.Fatalf("re-decode of %T failed: %v", m, err)
			}
			if m2.Type() != m.Type() {
				t.Fatalf("re-decode changed type %c → %c", m.Type(), m2.Type())
			}
			// The canonical form must be a fixed point: encoding the
			// re-decoded message reproduces the first re-encoding byte for
			// byte. (The raw input may be non-canonical — padded varints,
			// garbage bitmap padding — so generation 1 vs 2 is the
			// comparison, not 0 vs 1.)
			_, gen1, err := EncodeMessage(m)
			if err != nil {
				t.Fatalf("encode %T: %v", m, err)
			}
			_, gen2, err := EncodeMessage(m2)
			if err != nil {
				t.Fatalf("encode re-decoded %T: %v", m2, err)
			}
			if !bytes.Equal(gen1, gen2) {
				t.Fatalf("%T re-encode unstable:\ngen1 %x\ngen2 %x", m, gen1, gen2)
			}
		}
	})
}
