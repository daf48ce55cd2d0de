// Package wire defines the length-prefixed binary protocol plsqld serves
// and the client package speaks: a small PostgreSQL-inspired frame set
// covering startup, simple queries, parse/execute for prepared
// statements, streamed columnar results, storage-stats polling, and error
// reporting. There is one protocol version and one result frame shape.
//
// Framing. Every message is one frame:
//
//	+------+----------------+-----------------+
//	| type | length (u32BE) | payload (length)|
//	+------+----------------+-----------------+
//
// The length counts payload bytes only. Frames above MaxFrameLen are
// rejected before any allocation, and decoded element counts are
// validated against the bytes actually present with clamped capacity
// hints, so a hostile peer's allocations stay proportional to what it
// ships. Payload decoding is bounds-checked throughout: malformed,
// truncated, or trailing-garbage payloads yield errors, never panics
// (FuzzDecode pins this).
//
// Conversation. The client opens with Startup and the server answers
// Ready — or Error, when the startup names any version other than
// ProtocolVersion. After that, every client request produces an ordered
// response sequence finished by exactly one terminator frame (Done,
// Error, ParseOK, StatsReply). Requests are independent, so a client may
// pipeline: send N requests before reading the first response; the
// server reads ahead and answers strictly in request order.
//
//	Query        → [RowDesc ColBatch*] Notice* (Done | Error)
//	Parse        → ParseOK | Error
//	Execute      → [RowDesc ColBatch*] Notice* (Done | Error)
//	CloseStmt    → Done | Error
//	Seed         → Done
//	StatsRequest → StatsReply
//	Terminate    → (connection closes)
//
// Query and Execute answer through the same streaming path: every row —
// a SELECT's, a prepared SELECT's, EXPLAIN [ANALYZE] text — leaves the
// executor batch by batch and each batch travels as one ColBatch frame
// the moment it is produced, so the server never holds a whole result
// and a slow reader throttles the executor through TCP backpressure. An
// execution error after rows already went out ends the response with
// Error instead of Done; the client discards the partial result. A Query
// carrying several semicolon-separated statements runs them as one
// implicit transaction block (committed together at the end, rolled back
// together on error; explicit BEGIN/COMMIT/ROLLBACK inside are honoured)
// and answers a bare Done or Error.
//
// Row values outside ColBatch's typed lanes use a compact kind-tagged
// encoding mirroring sqltypes.Value: NULL, bool, int64, float64 bits,
// length-prefixed text, coord, and recursively encoded row values
// (depth-limited).
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// ErrFrameTooLarge marks a frame rejected by the MaxFrameLen size check
// — before any bytes hit the stream, so the connection's framing stays
// intact and callers can degrade (smaller batches) or report a
// per-request error instead of tearing the connection down.
var ErrFrameTooLarge = errors.New("wire: frame exceeds MaxFrameLen")

// ProtocolVersion is the one protocol version: a Startup naming any
// other is refused with an Error frame. It is bumped on every
// incompatible frame-set change (6 dropped the row-major result frame
// and the version-dependent StatsReply shape), and client and server
// ship together, so nothing is negotiated.
const ProtocolVersion uint32 = 6

// Error codes classify server-reported failures so clients can react
// without string-matching: a CodeSerialization error means the whole
// transaction should be retried, a CodeTxnAborted error means the block
// must be rolled back first. The client package maps them back onto the
// engine's sentinel errors for errors.Is.
const (
	CodeGeneric       uint32 = 0 // no particular classification
	CodeSerialization uint32 = 1 // engine.ErrSerialization: rollback and retry
	CodeTxnAborted    uint32 = 2 // engine.ErrTxnAborted: block poisoned until ROLLBACK
)

// MaxFrameLen bounds one frame's payload: larger announcements are a
// protocol error and are rejected before allocation.
const MaxFrameLen = 16 << 20

// maxValueDepth bounds row-value nesting during decode.
const maxValueDepth = 32

// Frame type bytes. Client→server frames are uppercase, server→client
// lowercase (except Ready/RowDesc, kept mnemonic).
const (
	// client → server
	TypeStartup   byte = 'S'
	TypeQuery     byte = 'Q'
	TypeParse     byte = 'P'
	TypeExecute   byte = 'E'
	TypeCloseStmt byte = 'C'
	TypeSeed      byte = 'V'
	TypeStatsReq  byte = 'T'
	TypeTerminate byte = 'X'

	// server → client
	TypeReady      byte = 'r'
	TypeRowDesc    byte = 'c'
	TypeColBatch   byte = 'b'
	TypeDone       byte = 'z'
	TypeError      byte = 'e'
	TypeParseOK    byte = 'p'
	TypeStatsReply byte = 's'
	TypeNotice     byte = 'n'
)

// TypeName returns a stable lowercase name for a frame type byte —
// metric label material (per-frame traffic counters) and log text.
// Unknown bytes map to "unknown".
func TypeName(typ byte) string {
	switch typ {
	case TypeStartup:
		return "startup"
	case TypeQuery:
		return "query"
	case TypeParse:
		return "parse"
	case TypeExecute:
		return "execute"
	case TypeCloseStmt:
		return "close_stmt"
	case TypeSeed:
		return "seed"
	case TypeStatsReq:
		return "stats_request"
	case TypeTerminate:
		return "terminate"
	case TypeReady:
		return "ready"
	case TypeRowDesc:
		return "row_desc"
	case TypeColBatch:
		return "col_batch"
	case TypeDone:
		return "done"
	case TypeError:
		return "error"
	case TypeParseOK:
		return "parse_ok"
	case TypeStatsReply:
		return "stats_reply"
	case TypeNotice:
		return "notice"
	}
	return "unknown"
}

// WriteFrame writes one frame (header + payload) to w. Oversized
// payloads fail with ErrFrameTooLarge before any bytes are written.
func WriteFrame(w io.Writer, typ byte, payload []byte) error {
	if len(payload) > MaxFrameLen {
		return fmt.Errorf("frame %c payload %d bytes exceeds limit %d: %w", typ, len(payload), MaxFrameLen, ErrFrameTooLarge)
	}
	var hdr [5]byte
	hdr[0] = typ
	binary.BigEndian.PutUint32(hdr[1:], uint32(len(payload)))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := w.Write(payload)
	return err
}

// ReadFrame reads one frame from r, enforcing MaxFrameLen before
// allocating the payload.
func ReadFrame(r io.Reader) (typ byte, payload []byte, err error) {
	var hdr [5]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return 0, nil, err
	}
	n := binary.BigEndian.Uint32(hdr[1:])
	if n > MaxFrameLen {
		return 0, nil, fmt.Errorf("wire: frame %c announces %d bytes, limit is %d", hdr[0], n, MaxFrameLen)
	}
	payload = make([]byte, n)
	if _, err := io.ReadFull(r, payload); err != nil {
		return 0, nil, fmt.Errorf("wire: short frame %c: %w", hdr[0], err)
	}
	return hdr[0], payload, nil
}
