package transport

import (
	"time"

	"pricesheriff/internal/obs"
)

// Metrics counts frames and bytes moved by one fabric and times the send
// and receive paths. Send latency covers marshal plus the write (so
// backpressure shows up); receive latency covers the transfer and decode
// of an available frame, not idle waiting. A nil *Metrics disables
// instrumentation.
type Metrics struct {
	framesSent  *obs.Counter
	framesRecv  *obs.Counter
	bytesSent   *obs.Counter
	bytesRecv   *obs.Counter
	sendSeconds *obs.Histogram
	recvSeconds *obs.Histogram
	rpcInflight *obs.Gauge
	jsonBody    *obs.Counter
}

// NewMetrics builds the transport metric bundle for one fabric label
// ("tcp" or "inproc").
func NewMetrics(reg *obs.Registry, fabric string) *Metrics {
	return &Metrics{
		framesSent:  reg.Counter("sheriff_transport_frames_sent_total", "fabric", fabric),
		framesRecv:  reg.Counter("sheriff_transport_frames_recv_total", "fabric", fabric),
		bytesSent:   reg.Counter("sheriff_transport_bytes_sent_total", "fabric", fabric),
		bytesRecv:   reg.Counter("sheriff_transport_bytes_recv_total", "fabric", fabric),
		sendSeconds: reg.Histogram("sheriff_transport_send_seconds", "fabric", fabric),
		recvSeconds: reg.Histogram("sheriff_transport_recv_seconds", "fabric", fabric),
		rpcInflight: reg.Gauge("sheriff_rpc_inflight", "fabric", fabric),
		jsonBody:    reg.Counter("sheriff_transport_wire_fallback_total", "fabric", fabric, "reason", "json_body"),
	}
}

// callStart/callEnd bracket one server-side handler execution for the
// sheriff_rpc_inflight gauge.
func (m *Metrics) callStart() {
	if m == nil {
		return
	}
	m.rpcInflight.Add(1)
}

func (m *Metrics) callEnd() {
	if m == nil {
		return
	}
	m.rpcInflight.Add(-1)
}

// sent counts one frame written. It also counts the degraded path a frame
// can still take: an envelope whose body rode as JSON because its type has
// no registered wire codec.
func (m *Metrics) sent(v any, n int, t0 time.Time) {
	if m == nil {
		return
	}
	if e, ok := v.(*Envelope); ok && e.wmsg == nil && e.binTag == 0 && len(e.Body) > 0 {
		m.jsonBody.Inc()
	}
	m.framesSent.Inc()
	m.bytesSent.Add(int64(n))
	m.sendSeconds.ObserveSince(t0)
}
func (m *Metrics) received(n int, t0 time.Time) {
	if m == nil {
		return
	}
	m.framesRecv.Inc()
	m.bytesRecv.Add(int64(n))
	m.recvSeconds.ObserveSince(t0)
}
