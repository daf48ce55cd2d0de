package wire

import (
	"fmt"
	"io"

	"plsqlaway/internal/sqltypes"
	"plsqlaway/internal/storage"
)

// Message is one protocol frame in decoded form.
type Message interface {
	// Type returns the frame type byte the message travels as.
	Type() byte
	encode(*Encoder)
	decode(*Decoder)
}

// WriteMessage encodes m into one frame on w.
func WriteMessage(w io.Writer, m Message) error {
	var e Encoder
	return WriteMessageBuf(w, m, &e)
}

// WriteMessageBuf is WriteMessage with a caller-owned scratch encoder:
// single-threaded hot paths (the server's response writer) reuse one
// payload buffer across frames instead of allocating per frame.
func WriteMessageBuf(w io.Writer, m Message, e *Encoder) error {
	e.Reset()
	m.encode(e)
	return WriteFrame(w, m.Type(), e.Bytes())
}

// EncodeMessage renders m as a standalone (type, payload) frame,
// size-checked — callers that must know a frame is writable before
// committing protocol state (the client's pipelined send) encode first.
func EncodeMessage(m Message) (byte, []byte, error) {
	var e Encoder
	m.encode(&e)
	if len(e.Bytes()) > MaxFrameLen {
		return 0, nil, fmt.Errorf("frame %c payload %d bytes exceeds limit %d: %w", m.Type(), len(e.Bytes()), MaxFrameLen, ErrFrameTooLarge)
	}
	return m.Type(), e.Bytes(), nil
}

// ReadMessage reads and decodes the next frame from r.
func ReadMessage(r io.Reader) (Message, error) {
	typ, payload, err := ReadFrame(r)
	if err != nil {
		return nil, err
	}
	return Decode(typ, payload)
}

// Decode parses one frame payload into its typed message. The payload
// must be consumed exactly; trailing bytes are a protocol error.
func Decode(typ byte, payload []byte) (Message, error) {
	var m Message
	switch typ {
	case TypeStartup:
		m = &Startup{}
	case TypeQuery:
		m = &Query{}
	case TypeParse:
		m = &Parse{}
	case TypeExecute:
		m = &Execute{}
	case TypeCloseStmt:
		m = &CloseStmt{}
	case TypeSeed:
		m = &Seed{}
	case TypeStatsReq:
		m = &StatsRequest{}
	case TypeTerminate:
		m = &Terminate{}
	case TypeReady:
		m = &Ready{}
	case TypeRowDesc:
		m = &RowDesc{}
	case TypeColBatch:
		m = &ColBatch{}
	case TypeDone:
		m = &Done{}
	case TypeError:
		m = &Error{}
	case TypeParseOK:
		m = &ParseOK{}
	case TypeStatsReply:
		m = &StatsReply{}
	case TypeNotice:
		m = &Notice{}
	default:
		return nil, fmt.Errorf("wire: unknown frame type %#x", typ)
	}
	d := NewDecoder(payload)
	m.decode(d)
	if err := d.Finish(); err != nil {
		return nil, fmt.Errorf("frame %c: %w", typ, err)
	}
	return m, nil
}

// ---------------------------------------------------------------------------
// client → server
// ---------------------------------------------------------------------------

// Startup opens a connection: protocol version plus the deterministic
// random() seed the connection's session starts from.
type Startup struct {
	Version uint32
	Seed    uint64
}

func (*Startup) Type() byte { return TypeStartup }
func (m *Startup) encode(e *Encoder) {
	e.Uint32(m.Version)
	e.Uint64(m.Seed)
}
func (m *Startup) decode(d *Decoder) {
	m.Version = d.Uint32()
	m.Seed = d.Uint64()
}

// Query runs a SQL text — a single query (rows come back) or a
// semicolon-separated script (only Done comes back).
type Query struct {
	SQL string
}

func (*Query) Type() byte          { return TypeQuery }
func (m *Query) encode(e *Encoder) { e.String(m.SQL) }
func (m *Query) decode(d *Decoder) { m.SQL = d.String() }

// Parse prepares a statement under a client-chosen name.
type Parse struct {
	Name string
	SQL  string
}

func (*Parse) Type() byte { return TypeParse }
func (m *Parse) encode(e *Encoder) {
	e.String(m.Name)
	e.String(m.SQL)
}
func (m *Parse) decode(d *Decoder) {
	m.Name = d.String()
	m.SQL = d.String()
}

// Execute binds parameter values to a prepared statement and runs it —
// the protocol's bind+execute, merged into one frame.
type Execute struct {
	Name   string
	Params []sqltypes.Value
}

func (*Execute) Type() byte { return TypeExecute }
func (m *Execute) encode(e *Encoder) {
	e.String(m.Name)
	e.Row(m.Params)
}
func (m *Execute) decode(d *Decoder) {
	m.Name = d.String()
	m.Params = d.RowSlice()
}

// CloseStmt discards a prepared statement.
type CloseStmt struct {
	Name string
}

func (*CloseStmt) Type() byte          { return TypeCloseStmt }
func (m *CloseStmt) encode(e *Encoder) { e.String(m.Name) }
func (m *CloseStmt) decode(d *Decoder) { m.Name = d.String() }

// Seed reseeds the connection's deterministic random() stream (the remote
// analogue of Session.Seed, which the differential suites rely on).
type Seed struct {
	Seed uint64
}

func (*Seed) Type() byte          { return TypeSeed }
func (m *Seed) encode(e *Encoder) { e.Uint64(m.Seed) }
func (m *Seed) decode(d *Decoder) { m.Seed = d.Uint64() }

// StatsRequest asks for the engine's storage counters.
type StatsRequest struct{}

func (*StatsRequest) Type() byte      { return TypeStatsReq }
func (*StatsRequest) encode(*Encoder) {}
func (*StatsRequest) decode(*Decoder) {}

// Terminate announces an orderly client disconnect.
type Terminate struct{}

func (*Terminate) Type() byte      { return TypeTerminate }
func (*Terminate) encode(*Encoder) {}
func (*Terminate) decode(*Decoder) {}

// ---------------------------------------------------------------------------
// server → client
// ---------------------------------------------------------------------------

// Ready acknowledges a Startup.
type Ready struct {
	Server string // human-readable server banner
}

func (*Ready) Type() byte          { return TypeReady }
func (m *Ready) encode(e *Encoder) { e.String(m.Server) }
func (m *Ready) decode(d *Decoder) { m.Server = d.String() }

// RowDesc announces a result's column names; ColBatch frames follow.
type RowDesc struct {
	Cols []string
}

func (*RowDesc) Type() byte { return TypeRowDesc }
func (m *RowDesc) encode(e *Encoder) {
	e.Uvarint(uint64(len(m.Cols)))
	for _, c := range m.Cols {
		e.String(c)
	}
}
func (m *RowDesc) decode(d *Decoder) {
	n := d.Len() // ≥1 byte per column name, bounded by payload
	cols := make([]string, 0, capHint(n))
	for i := 0; i < n; i++ {
		cols = append(cols, d.String())
		if d.Err() != nil {
			return
		}
	}
	m.Cols = cols
}

// Notice carries one asynchronous diagnostic message (RAISE NOTICE
// output, transaction-control warnings). Zero or more Notice frames
// stream inside a response, before its Done/Error terminator — the wire
// analogue of Postgres's NoticeResponse.
type Notice struct {
	Message string
}

func (*Notice) Type() byte          { return TypeNotice }
func (m *Notice) encode(e *Encoder) { e.String(m.Message) }
func (m *Notice) decode(d *Decoder) { m.Message = d.String() }

// Done terminates a successful response.
type Done struct {
	Tag string // e.g. "OK"
}

func (*Done) Type() byte          { return TypeDone }
func (m *Done) encode(e *Encoder) { e.String(m.Tag) }
func (m *Done) decode(d *Decoder) { m.Tag = d.String() }

// Error terminates a failed response. The connection stays usable; later
// pipelined requests still get their own responses. Code classifies
// retryable failures (CodeSerialization, CodeTxnAborted) so clients can
// dispatch without string-matching the message.
type Error struct {
	Code    uint32
	Message string
}

func (*Error) Type() byte { return TypeError }
func (m *Error) encode(e *Encoder) {
	e.Uint32(m.Code)
	e.String(m.Message)
}
func (m *Error) decode(d *Decoder) {
	m.Code = d.Uint32()
	m.Message = d.String()
}

// ParseOK acknowledges a Parse with the statement's metadata.
type ParseOK struct {
	Name      string
	NumParams uint32
	IsQuery   bool
}

func (*ParseOK) Type() byte { return TypeParseOK }
func (m *ParseOK) encode(e *Encoder) {
	e.String(m.Name)
	e.Uint32(m.NumParams)
	e.Bool(m.IsQuery)
}
func (m *ParseOK) decode(d *Decoder) {
	m.Name = d.String()
	m.NumParams = d.Uint32()
	m.IsQuery = d.Bool()
}

// PlanStats carries the shared plan cache's counters: calls inlined into
// plans, constant-specialized call sites, entries evicted (cap pressure
// or DDL invalidation), and cache hits and misses.
type PlanStats struct {
	PlansInlined     int64
	SpecializedPlans int64
	CacheEvictions   int64
	CacheHits        int64
	CacheMisses      int64
}

// StatsReply carries the engine's storage counters (Table 2 page writes
// plus the MVCC commit/vacuum counters), the plan cache's counters, and
// the server's live connection count.
type StatsReply struct {
	Stats       storage.StatsSnapshot
	Plans       PlanStats
	ActiveConns int64 // open wire connections on the serving plsqld
}

func (*StatsReply) Type() byte { return TypeStatsReply }
func (m *StatsReply) encode(e *Encoder) {
	e.Int64(m.Stats.PageWrites)
	e.Int64(m.Stats.PagesAlloc)
	e.Int64(m.Stats.TuplesWritten)
	e.Int64(m.Stats.BytesWritten)
	e.Int64(m.Stats.Commits)
	e.Int64(m.Stats.Vacuums)
	e.Int64(m.Stats.VersionsReclaimed)
	e.Int64(m.Stats.WALRecords)
	e.Int64(m.Stats.WALBytes)
	e.Int64(m.Stats.WALFsyncs)
	e.Int64(m.Stats.Checkpoints)
	e.Int64(m.Plans.PlansInlined)
	e.Int64(m.Plans.SpecializedPlans)
	e.Int64(m.Plans.CacheEvictions)
	e.Int64(m.Plans.CacheHits)
	e.Int64(m.Plans.CacheMisses)
	e.Int64(m.ActiveConns)
}
func (m *StatsReply) decode(d *Decoder) {
	m.Stats.PageWrites = d.Int64()
	m.Stats.PagesAlloc = d.Int64()
	m.Stats.TuplesWritten = d.Int64()
	m.Stats.BytesWritten = d.Int64()
	m.Stats.Commits = d.Int64()
	m.Stats.Vacuums = d.Int64()
	m.Stats.VersionsReclaimed = d.Int64()
	m.Stats.WALRecords = d.Int64()
	m.Stats.WALBytes = d.Int64()
	m.Stats.WALFsyncs = d.Int64()
	m.Stats.Checkpoints = d.Int64()
	m.Plans.PlansInlined = d.Int64()
	m.Plans.SpecializedPlans = d.Int64()
	m.Plans.CacheEvictions = d.Int64()
	m.Plans.CacheHits = d.Int64()
	m.Plans.CacheMisses = d.Int64()
	m.ActiveConns = d.Int64()
}
