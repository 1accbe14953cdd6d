package gateway

import (
	"net/http"

	"repro/internal/obs"
)

// handleMetrics serves the gateway's Prometheus exposition: the
// komodo_gateway_* families (edge counters, per-backend probe/proxy
// state with a backend label, per-backend latency histograms), the
// shared edge families (obs.Edge) and Go runtime stats. Fleet-wide
// enclave telemetry is deliberately NOT re-exported here — scrape each
// backend's /metrics for that, or read the merged JSON view at
// /v1/stats; re-exporting sums under the same names would double-count
// in any aggregating Prometheus setup.
func (g *Gateway) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	p := obs.NewPromWriter(w)

	p.Counter("komodo_gateway_requests_total",
		"Requests hitting the gateway's proxied endpoints.",
		obs.Sample{Value: float64(g.requests.Load())})
	p.Counter("komodo_gateway_proxied_total",
		"Requests that reached some backend.",
		obs.Sample{Value: float64(g.proxied.Load())})
	p.Counter("komodo_gateway_rejections_total",
		"Gateway-originated rejections by reason (all carry Retry-After).",
		obs.Sample{Labels: obs.L("reason", "saturated_429"), Value: float64(g.shed429.Load())},
		obs.Sample{Labels: obs.L("reason", "no_backend_503"), Value: float64(g.noBackend.Load())},
		obs.Sample{Labels: obs.L("reason", "migrating_503"), Value: float64(g.holds.Load())},
		obs.Sample{Labels: obs.L("reason", "draining_503"), Value: float64(g.drainRej.Load())},
		obs.Sample{Labels: obs.L("reason", "bad_gateway_502"), Value: float64(g.badGateway.Load())})
	p.Counter("komodo_gateway_failovers_total",
		"Shard requests served by a non-owner because the owner was down.",
		obs.Sample{Value: float64(g.failovers.Load())})
	p.Counter("komodo_gateway_migrations_total",
		"Completed live migrations.",
		obs.Sample{Value: float64(g.migrations.Load())})
	p.Counter("komodo_gateway_probes_total",
		"Health probes completed, summed over all backends.",
		obs.Sample{Value: float64(g.probesTotal.Load())})
	p.Gauge("komodo_gateway_in_flight",
		"Requests currently holding a gateway slot.",
		obs.Sample{Value: float64(len(g.slots))})
	p.Gauge("komodo_gateway_in_flight_limit",
		"Configured gateway in-flight bound (MaxInFlight).",
		obs.Sample{Value: float64(g.cfg.MaxInFlight)})
	p.Gauge("komodo_gateway_draining",
		"1 while the gateway is draining, else 0.",
		obs.Sample{Value: obs.BoolValue(g.draining.Load())})

	nb := len(g.backends)
	up := make([]obs.Sample, 0, nb)
	probes := make([]obs.Sample, 0, nb)
	probeFails := make([]obs.Sample, 0, nb)
	transitions := make([]obs.Sample, 0, nb)
	inflight := make([]obs.Sample, 0, nb)
	reqs := make([]obs.Sample, 0, nb*6)
	var latSeries []obs.HistSeries
	for _, b := range g.backends {
		l := obs.L("backend", b.name)
		up = append(up, obs.Sample{Labels: l, Value: obs.BoolValue(b.State() == StateUp)})
		probes = append(probes, obs.Sample{Labels: l, Value: float64(b.probes.Load())})
		probeFails = append(probeFails, obs.Sample{Labels: l, Value: float64(b.probeFails.Load())})
		transitions = append(transitions, obs.Sample{Labels: l, Value: float64(b.transitions.Load())})
		inflight = append(inflight, obs.Sample{Labels: l, Value: float64(b.inflight.Load())})
		reqs = append(reqs,
			obs.Sample{Labels: obs.L("backend", b.name, "result", "ok"), Value: float64(b.ok.Load())},
			obs.Sample{Labels: obs.L("backend", b.name, "result", "rejected_429"), Value: float64(b.rejected.Load())},
			obs.Sample{Labels: obs.L("backend", b.name, "result", "unavailable_503"), Value: float64(b.unavail.Load())},
			obs.Sample{Labels: obs.L("backend", b.name, "result", "bad_status"), Value: float64(b.badStatus.Load())},
			obs.Sample{Labels: obs.L("backend", b.name, "result", "net_error"), Value: float64(b.netErrors.Load())})
		latSeries = append(latSeries, obs.HistSeries{Labels: l, Snap: b.lat.Snapshot()})
	}
	p.Gauge("komodo_gateway_backend_up",
		"1 when the backend is routable (probe state up), else 0.", up...)
	p.Counter("komodo_gateway_backend_probes_total",
		"Health probes sent per backend.", probes...)
	p.Counter("komodo_gateway_backend_probe_fails_total",
		"Failed health probes per backend.", probeFails...)
	p.Counter("komodo_gateway_backend_transitions_total",
		"Up/down state flips per backend.", transitions...)
	p.Gauge("komodo_gateway_backend_in_flight",
		"Proxied requests currently outstanding per backend.", inflight...)
	p.Counter("komodo_gateway_backend_responses_total",
		"Proxied responses per backend by result class.", reqs...)
	p.Histogram("komodo_gateway_backend_duration_seconds",
		"Proxied request latency per backend (gateway-measured).", latSeries...)

	g.edge.WriteMetrics(p)

	obs.WriteRuntimeMetrics(p)
}
