package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"strconv"
	"time"
)

// Edge is the HTTP request edge of one serving process (komodo-serve or
// komodo-gateway): the tracing middleware, the /v1/debug/traces handler
// and the edge /metrics families, over one wall-clock latency vector and
// one flight recorder.
type Edge struct {
	family string // latency histogram family name
	lat    *LatencyVec
	flight *FlightRecorder

	// OnFinish, if set, sees every finished trace before its latency is
	// observed and it is offered to the flight recorder. Set it before
	// the edge serves its first request.
	OnFinish func(td *TraceData)
}

// NewEdge returns an edge whose /metrics latency histogram is named
// latencyFamily and whose flight recorder keeps flightSize traces
// (DefaultFlightRecorderSize if flightSize <= 0).
func NewEdge(latencyFamily string, flightSize int) *Edge {
	return &Edge{family: latencyFamily, lat: NewLatencyVec(), flight: NewFlightRecorder(flightSize)}
}

// Flight returns the edge's flight recorder.
func (e *Edge) Flight() *FlightRecorder { return e.flight }

// statusWriter captures the response status for outcome classification.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	return w.ResponseWriter.Write(b)
}

// outcomeFor maps an HTTP status onto the outcome label used on latency
// series and trace records. Status 0 means nothing was written yet.
func outcomeFor(status int) string {
	switch {
	case status == 0 || (status >= 200 && status < 300):
		return "ok"
	case status == http.StatusTooManyRequests:
		return "rejected"
	case status == http.StatusServiceUnavailable:
		return "unavailable"
	case status == http.StatusBadGateway:
		return "bad_gateway"
	case status >= 400 && status < 500:
		return "bad_request"
	default:
		return "error"
	}
}

// Outcome returns the outcome class of the status written so far through
// a writer that Traced handed to its handler ("ok" for any other writer).
func Outcome(w http.ResponseWriter) string {
	sw, ok := w.(*statusWriter)
	if !ok {
		return "ok"
	}
	return outcomeFor(sw.status)
}

// Traced wraps a handler in the request-tracing pipeline: adopt the
// inbound W3C traceparent (or mint a fresh trace), thread the trace
// through the request context, echo the outbound traceparent header,
// and on completion record the wall-clock latency per (endpoint,
// outcome) and offer the finished trace to the flight recorder.
func (e *Edge) Traced(endpoint string, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		tr := NewTrace(endpoint, r.Header.Get("traceparent"))
		w.Header().Set("Traceparent", tr.Traceparent())
		sw := &statusWriter{ResponseWriter: w}
		h(sw, r.WithContext(WithTrace(r.Context(), tr)))
		td := tr.Finish(outcomeFor(sw.status))
		if e.OnFinish != nil {
			e.OnFinish(&td)
		}
		e.lat.Observe(endpoint, td.Outcome, time.Duration(td.DurNS))
		e.flight.Record(td)
	}
}

// Reply writes body as a JSON response with the given status.
func Reply(w http.ResponseWriter, status int, body any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(body)
}

// ReplyError writes a JSON error reply. Backpressure rejections (429,
// 502, 503) are retryable, so they carry Retry-After: 1 unless the caller
// already set a longer back-off (a draining process asks for 5).
func ReplyError(w http.ResponseWriter, status int, format string, args ...any) {
	switch status {
	case http.StatusTooManyRequests, http.StatusBadGateway, http.StatusServiceUnavailable:
		if w.Header().Get("Retry-After") == "" {
			w.Header().Set("Retry-After", "1")
		}
	}
	Reply(w, status, struct {
		Error string `json:"error"`
	}{fmt.Sprintf(format, args...)})
}

// ReadBody reads a request body of at most limit bytes. A read error is
// answered 400 and a body over the limit 413; either way ok is false and
// the reply is already written. what names the body in the error text.
func ReadBody(w http.ResponseWriter, body io.Reader, limit int64, what string) (b []byte, ok bool) {
	b, err := io.ReadAll(io.LimitReader(body, limit+1))
	if err != nil {
		ReplyError(w, http.StatusBadRequest, "reading %s: %v", what, err)
		return nil, false
	}
	if int64(len(b)) > limit {
		ReplyError(w, http.StatusRequestEntityTooLarge, "%s larger than %d bytes", what, limit)
		return nil, false
	}
	return b, true
}

// HandleDebugTraces serves the flight recorder: the retained slowest
// traces as an indented JSON Dump, slowest first. With ?id=<32-hex trace
// id> it returns just that trace (404 if it was never retained or has
// been evicted). With ?min_ms=<float> only traces at least that slow are
// listed (the dump's "seen" and "retained" fields still describe the
// whole recorder, so the filter is visible, not silent).
func (e *Edge) HandleDebugTraces(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	if id := q.Get("id"); id != "" {
		td, ok := e.flight.Find(id)
		if !ok {
			ReplyError(w, http.StatusNotFound, "trace %s not retained", id)
			return
		}
		Reply(w, http.StatusOK, td)
		return
	}
	var cut int64
	if v := q.Get("min_ms"); v != "" {
		minMS, err := strconv.ParseFloat(v, 64)
		if err != nil || !(minMS >= 0) || math.IsInf(minMS, 1) {
			ReplyError(w, http.StatusBadRequest, "min_ms must be a non-negative number, got %q", v)
			return
		}
		cut = int64(minMS * 1e6)
	}
	w.Header().Set("Content-Type", "application/json")
	e.flight.writeDump(w, cut)
}

// WriteMetrics writes the edge families: request latency by endpoint and
// outcome, and the flight recorder's throughput and occupancy.
func (e *Edge) WriteMetrics(p *PromWriter) {
	p.Histogram(e.family,
		"Wall-clock request latency at this process's edge, by endpoint and outcome.",
		e.lat.Series("endpoint")...)
	p.Counter("komodo_flight_traces_seen_total",
		"Finished traces offered to the flight recorder.",
		Sample{Value: float64(e.flight.Seen())})
	p.Gauge("komodo_flight_traces_retained",
		"Slow traces currently retained for /v1/debug/traces.",
		Sample{Value: float64(e.flight.Len())})
	p.Gauge("komodo_obs_flight_occupancy",
		"Flight recorder slots by state.",
		Sample{Labels: L("state", "used"), Value: float64(e.flight.Len())},
		Sample{Labels: L("state", "capacity"), Value: float64(e.flight.Cap())})
}

// BoolValue renders a boolean as a 0/1 gauge value.
func BoolValue(b bool) float64 {
	if b {
		return 1
	}
	return 0
}
