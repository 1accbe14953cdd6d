package main

import (
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// The HTTP part of a traced run times calls into the gateway's and the
// servers' ServeHTTP from outside, and joins them to the client's round
// trip by the W3C trace id the client sends: the gateway adopts it and
// forwards it to the backend, which adopts it too.

type layer int

const (
	layerGateway layer = iota
	layerServer
)

// spanLog collects the ServeHTTP durations of one traced phase, keyed by
// trace id.
type spanLog struct {
	mu      sync.Mutex
	gateway map[obs.TraceID]time.Duration
	server  map[obs.TraceID]time.Duration
}

func newSpanLog() *spanLog {
	return &spanLog{gateway: map[obs.TraceID]time.Duration{}, server: map[obs.TraceID]time.Duration{}}
}

func (l *spanLog) add(ly layer, id obs.TraceID, d time.Duration) {
	l.mu.Lock()
	if ly == layerGateway {
		l.gateway[id] = d
	} else {
		l.server[id] = d
	}
	l.mu.Unlock()
}

// timedHandler times next.ServeHTTP into the log spans points to. The
// pointer is set for a traced phase only; while it is nil the wrapper just
// forwards.
type timedHandler struct {
	next  http.Handler
	layer layer
	spans *atomic.Pointer[spanLog]
}

func (t *timedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	l := t.spans.Load()
	if l == nil {
		t.next.ServeHTTP(w, r)
		return
	}
	start := time.Now()
	t.next.ServeHTTP(w, r)
	d := time.Since(start)
	if id, _, ok := obs.ParseTraceparent(r.Header.Get("traceparent")); ok {
		l.add(t.layer, id, d)
	}
}

// httpLayers is the HTTP part's per-layer self times, in microseconds.
type httpLayers struct {
	gatewaySelf []float64 // gateway ServeHTTP − backend ServeHTTP
	serverSelf  []float64 // attest ServeHTTP − the driver's median attest time
	netSelf     []float64 // client round trip − outermost ServeHTTP
}

// joinSpans attributes each traced request's round trip. attestMedian is
// the layer driver's median attest time (µs), taken with the same number of
// clients; it is what the server spends below its own HTTP handling. The
// server's self time is taken over attests only: a sign's tens of
// microseconds of HTTP handling are far below the run-to-run spread of a
// durable sign's milliseconds. It is a difference of medians from two
// phases, so a change in the host's speed between them moves it.
func joinSpans(l *spanLog, samples []sample, attestMedian float64) httpLayers {
	var out httpLayers
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, s := range samples {
		if !s.ok {
			continue
		}
		id := traceID(s.seq)
		srv, ok := l.server[id]
		if !ok {
			continue
		}
		outer := srv
		if gw, ok := l.gateway[id]; ok {
			out.gatewaySelf = append(out.gatewaySelf, us(gw-srv))
			outer = gw
		}
		out.netSelf = append(out.netSelf, us(s.end-s.start-outer))
		if s.kind == opAttest {
			out.serverSelf = append(out.serverSelf, us(srv)-attestMedian)
		}
	}
	return out
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
