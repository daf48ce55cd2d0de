// Server-side observability: connection gauges and per-frame-type wire
// traffic counters. Handles are pre-resolved into flat arrays indexed by
// the frame type byte, so the read and write loops bump two atomics per
// frame and never touch the registry's map. All of it is dormant (nil
// receiver, one branch) unless the engine was built with a metrics
// registry.

package server

import (
	"plsqlaway/internal/obs"
	"plsqlaway/internal/wire"
)

// frameTypes enumerates every frame type byte the protocol defines —
// the label space for the per-frame traffic counters.
var frameTypes = []byte{
	wire.TypeStartup, wire.TypeQuery, wire.TypeParse, wire.TypeExecute,
	wire.TypeCloseStmt, wire.TypeSeed, wire.TypeStatsReq, wire.TypeTerminate,
	wire.TypeReady, wire.TypeRowDesc, wire.TypeColBatch, wire.TypeDone,
	wire.TypeError, wire.TypeParseOK, wire.TypeStatsReply, wire.TypeNotice,
}

// srvMetrics holds the server's pre-resolved metric handles.
type srvMetrics struct {
	connsTotal  *obs.Counter
	activeConns *obs.Gauge

	framesIn  [256]*obs.Counter
	bytesIn   [256]*obs.Counter
	framesOut [256]*obs.Counter
	bytesOut  [256]*obs.Counter
}

func newSrvMetrics(reg *obs.Registry) *srvMetrics {
	m := &srvMetrics{
		connsTotal:  reg.Counter("plsql_server_connections_total", "Wire connections accepted."),
		activeConns: reg.Gauge("plsql_server_active_connections", "Wire connections currently open."),
	}
	fi := reg.CounterVec("plsql_server_frames_in_total", "Frames received, by frame type.", "frame")
	bi := reg.CounterVec("plsql_server_bytes_in_total", "Bytes received (header included), by frame type.", "frame")
	fo := reg.CounterVec("plsql_server_frames_out_total", "Frames sent, by frame type.", "frame")
	bo := reg.CounterVec("plsql_server_bytes_out_total", "Bytes sent (header included), by frame type.", "frame")
	for _, t := range frameTypes {
		name := wire.TypeName(t)
		m.framesIn[t] = fi.With(name)
		m.bytesIn[t] = bi.With(name)
		m.framesOut[t] = fo.With(name)
		m.bytesOut[t] = bo.With(name)
	}
	return m
}

// noteIn counts one received frame; payloadLen excludes the 5-byte
// header, which the byte counter adds back. Unknown type bytes (possible
// only on malformed input) land nowhere.
func (m *srvMetrics) noteIn(typ byte, payloadLen int) {
	if m == nil {
		return
	}
	if c := m.framesIn[typ]; c != nil {
		c.Inc()
		m.bytesIn[typ].Add(int64(payloadLen) + 5)
	}
}

// noteOut counts one sent frame, header included.
func (m *srvMetrics) noteOut(typ byte, payloadLen int) {
	if m == nil {
		return
	}
	if c := m.framesOut[typ]; c != nil {
		c.Inc()
		m.bytesOut[typ].Add(int64(payloadLen) + 5)
	}
}

// noteConnOpen / noteConnClose track the live-connection gauge.
func (m *srvMetrics) noteConnOpen() {
	if m == nil {
		return
	}
	m.connsTotal.Inc()
	m.activeConns.Add(1)
}

func (m *srvMetrics) noteConnClose() {
	if m == nil {
		return
	}
	m.activeConns.Add(-1)
}
