package gateway

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/server"
	"repro/internal/telemetry"
)

// stubBackend is a scripted komodo-serve stand-in: fast, controllable,
// and cheap enough to run many per test. Real-server integration lives
// in migrate_test.go.
type stubBackend struct {
	ts *httptest.Server

	mu          sync.Mutex
	signs       []string // shard keys seen on /v1/notary/sign
	healthy     bool
	stats       server.StatsResponse
	delay       time.Duration
	status      int      // forced /v1/notary/sign status (0 = 200)
	drainEvents []string // "on"/"off" sequence seen on /v1/drain
	draining    bool
	ckptOK      bool // /v1/checkpoint succeeds (default: scripted 500)
	ckptDone    bool // a /v1/checkpoint response has been sent
	lateSigns   int  // signs that arrived after the checkpoint was sealed
}

func newStub(t *testing.T) *stubBackend {
	t.Helper()
	sb := &stubBackend{healthy: true}
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/healthz", func(w http.ResponseWriter, r *http.Request) {
		sb.mu.Lock()
		ok := sb.healthy
		sb.mu.Unlock()
		if !ok {
			w.WriteHeader(http.StatusServiceUnavailable)
			return
		}
		fmt.Fprint(w, `{"status":"ok"}`)
	})
	mux.HandleFunc("/v1/notary/sign", func(w http.ResponseWriter, r *http.Request) {
		sb.mu.Lock()
		sb.signs = append(sb.signs, r.URL.Query().Get("shard"))
		if sb.ckptDone {
			sb.lateSigns++
		}
		delay, status := sb.delay, sb.status
		sb.mu.Unlock()
		if delay > 0 {
			time.Sleep(delay)
		}
		if status != 0 {
			if status == http.StatusTooManyRequests || status == http.StatusServiceUnavailable {
				w.Header().Set("Retry-After", "1")
			}
			w.WriteHeader(status)
			fmt.Fprint(w, `{"error":"scripted"}`)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprint(w, `{"counter":1,"worker":0,"epoch":0}`)
	})
	mux.HandleFunc("/v1/attest", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprintf(w, `{"nonce":%q}`, r.URL.Query().Get("nonce"))
	})
	mux.HandleFunc("/v1/drain", func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodPost {
			on := r.URL.Query().Get("state") != "off"
			sb.mu.Lock()
			sb.draining = on
			if on {
				sb.drainEvents = append(sb.drainEvents, "on")
			} else {
				sb.drainEvents = append(sb.drainEvents, "off")
			}
			sb.mu.Unlock()
		}
		fmt.Fprint(w, `{"status":"ok","in_flight":0}`)
	})
	mux.HandleFunc("/v1/checkpoint", func(w http.ResponseWriter, r *http.Request) {
		sb.mu.Lock()
		ok := sb.ckptOK
		sb.ckptDone = true
		sb.mu.Unlock()
		if !ok {
			w.WriteHeader(http.StatusInternalServerError)
			fmt.Fprint(w, `{"error":"scripted checkpoint failure"}`)
			return
		}
		fmt.Fprint(w, `{"worker":0,"counter":7,"blob_words":4,"checkpoint":"{}"}`)
	})
	mux.HandleFunc("/v1/restore", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprint(w, `{"worker":0,"restores":1,"blob_words":4}`)
	})
	mux.HandleFunc("/v1/stats", func(w http.ResponseWriter, r *http.Request) {
		sb.mu.Lock()
		st := sb.stats
		sb.mu.Unlock()
		json.NewEncoder(w).Encode(st)
	})
	sb.ts = httptest.NewServer(mux)
	t.Cleanup(sb.ts.Close)
	return sb
}

func (sb *stubBackend) signCount() int {
	sb.mu.Lock()
	defer sb.mu.Unlock()
	return len(sb.signs)
}

func newStubGateway(t *testing.T, cfg Config, stubs ...*stubBackend) *Gateway {
	t.Helper()
	for i, sb := range stubs {
		cfg.Backends = append(cfg.Backends, BackendSpec{Name: "b" + fmt.Sprint(i), URL: sb.ts.URL})
	}
	cfg.DisableProbes = true
	g, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(g.Close)
	return g
}

// shardOwnedBy finds a shard key whose ring owner is backend idx.
func shardOwnedBy(g *Gateway, idx int) string {
	for k := 0; ; k++ {
		s := fmt.Sprintf("s%d", k)
		if g.ring.Owner(s) == idx {
			return s
		}
	}
}

func postSign(t *testing.T, url, shard string) *http.Response {
	t.Helper()
	resp, err := http.Post(url+"/v1/notary/sign?shard="+shard, "application/octet-stream", strings.NewReader("doc"))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { resp.Body.Close() })
	io.Copy(io.Discard, resp.Body)
	return resp
}

func TestShardAffinity(t *testing.T) {
	a, b := newStub(t), newStub(t)
	g := newStubGateway(t, Config{}, a, b)
	ts := httptest.NewServer(g)
	defer ts.Close()

	// Each shard key must land on exactly one backend, every time.
	perShard := map[string]string{}
	for round := 0; round < 3; round++ {
		for k := 0; k < 8; k++ {
			shard := fmt.Sprintf("s%d", k)
			resp := postSign(t, ts.URL, shard)
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("shard %s: %d", shard, resp.StatusCode)
			}
			backend := resp.Header.Get("X-Komodo-Backend")
			if backend == "" {
				t.Fatal("missing X-Komodo-Backend header")
			}
			if prev, ok := perShard[shard]; ok && prev != backend {
				t.Fatalf("shard %s moved %s → %s with stable membership", shard, prev, backend)
			}
			perShard[shard] = backend
		}
	}
	if a.signCount() == 0 || b.signCount() == 0 {
		t.Fatalf("8 shards all routed to one backend (a=%d b=%d)", a.signCount(), b.signCount())
	}
}

func TestFailoverWhenOwnerDown(t *testing.T) {
	a, b := newStub(t), newStub(t)
	g := newStubGateway(t, Config{}, a, b)
	ts := httptest.NewServer(g)
	defer ts.Close()

	// Find a shard owned by backend 0, then take backend 0 down.
	shard := ""
	for k := 0; ; k++ {
		s := fmt.Sprintf("s%d", k)
		if g.ring.Owner(s) == 0 {
			shard = s
			break
		}
	}
	g.SetBackendState(0, StateDown)

	before := g.failovers.Load()
	resp := postSign(t, ts.URL, shard)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("failover sign: %d", resp.StatusCode)
	}
	if got := resp.Header.Get("X-Komodo-Backend"); got != "b1" {
		t.Fatalf("served by %q, want b1", got)
	}
	if g.failovers.Load() != before+1 {
		t.Fatalf("failovers counter %d, want %d", g.failovers.Load(), before+1)
	}

	// Owner back up: the shard snaps home (no forwarding entry was made).
	g.SetBackendState(0, StateUp)
	resp = postSign(t, ts.URL, shard)
	if got := resp.Header.Get("X-Komodo-Backend"); got != "b0" {
		t.Fatalf("after recovery served by %q, want b0", got)
	}
}

func TestPassiveDemotionOnDialError(t *testing.T) {
	a, b := newStub(t), newStub(t)
	g := newStubGateway(t, Config{}, a, b)
	ts := httptest.NewServer(g)
	defer ts.Close()

	shard := ""
	for k := 0; ; k++ {
		s := fmt.Sprintf("s%d", k)
		if g.ring.Owner(s) == 0 {
			shard = s
			break
		}
	}
	// Kill backend 0's listener without telling the gateway: the probe
	// plane is off, so only the request path can discover the death.
	a.ts.Close()

	resp := postSign(t, ts.URL, shard)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("sign after backend death: %d (want transparent retry on b1)", resp.StatusCode)
	}
	if got := resp.Header.Get("X-Komodo-Backend"); got != "b1" {
		t.Fatalf("served by %q, want b1", got)
	}
	if g.backends[0].State() != StateDown {
		t.Fatal("dial error must demote the backend")
	}
	if g.backends[0].netErrors.Load() == 0 {
		t.Fatal("net_errors not counted")
	}
}

func TestAllBackendsDownIs503WithRetryAfter(t *testing.T) {
	a := newStub(t)
	g := newStubGateway(t, Config{}, a)
	ts := httptest.NewServer(g)
	defer ts.Close()

	g.SetBackendState(0, StateDown)
	resp := postSign(t, ts.URL, "s0")
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("gateway-originated 503 must carry Retry-After")
	}
}

func TestGatewaySheds429WithRetryAfter(t *testing.T) {
	a := newStub(t)
	a.mu.Lock()
	a.delay = 300 * time.Millisecond
	a.mu.Unlock()
	g := newStubGateway(t, Config{MaxInFlight: 1}, a)
	ts := httptest.NewServer(g)
	defer ts.Close()

	done := make(chan struct{})
	go func() {
		defer close(done)
		postSign(t, ts.URL, "slow") // occupies the single slot
	}()
	time.Sleep(50 * time.Millisecond)
	resp := postSign(t, ts.URL, "shed")
	<-done
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("gateway-originated 429 must carry Retry-After")
	}
	if g.shed429.Load() == 0 {
		t.Fatal("shed counter not incremented")
	}
}

func TestDrainingGatewayRejectsRetryably(t *testing.T) {
	a := newStub(t)
	g := newStubGateway(t, Config{}, a)
	ts := httptest.NewServer(g)
	defer ts.Close()

	g.Drain()
	resp := postSign(t, ts.URL, "s0")
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("draining 503 must carry Retry-After")
	}
	hz, err := http.Get(ts.URL + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer hz.Body.Close()
	if hz.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("draining healthz %d, want 503", hz.StatusCode)
	}
}

func TestBackendRetryAfterPassesThrough(t *testing.T) {
	a := newStub(t)
	a.mu.Lock()
	a.status = http.StatusTooManyRequests
	a.mu.Unlock()
	g := newStubGateway(t, Config{}, a)
	ts := httptest.NewServer(g)
	defer ts.Close()

	resp := postSign(t, ts.URL, "s0")
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429 relayed", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("backend Retry-After must survive the proxy")
	}
	if g.backends[0].rejected.Load() != 1 {
		t.Fatal("per-backend rejected_429 not counted")
	}
}

func TestStatelessRoundRobinSkipsDown(t *testing.T) {
	a, b := newStub(t), newStub(t)
	g := newStubGateway(t, Config{}, a, b)
	ts := httptest.NewServer(g)
	defer ts.Close()

	g.SetBackendState(0, StateDown)
	for i := 0; i < 4; i++ {
		resp, err := http.Get(ts.URL + "/v1/attest?nonce=n" + fmt.Sprint(i))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("attest %d: %d", i, resp.StatusCode)
		}
		if got := resp.Header.Get("X-Komodo-Backend"); got != "b1" {
			t.Fatalf("attest served by %q with b0 down", got)
		}
	}
}

func TestAdminProxyRequiresExplicitBackend(t *testing.T) {
	a := newStub(t)
	g := newStubGateway(t, Config{}, a)
	ts := httptest.NewServer(g)
	defer ts.Close()

	resp, err := http.Post(ts.URL+"/v1/checkpoint", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("checkpoint without backend=: %d, want 400", resp.StatusCode)
	}
	resp, err = http.Post(ts.URL+"/v1/restore?backend=nope", "application/json", strings.NewReader("{}"))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("restore to unknown backend: %d, want 404", resp.StatusCode)
	}
}

func TestFleetStatsMergeAndPerBackendRejections(t *testing.T) {
	a, b := newStub(t), newStub(t)
	a.mu.Lock()
	a.stats.Server.Requests, a.stats.Server.Served = 100, 90
	a.stats.Server.Rejected, a.stats.Server.Timeouts = 7, 3
	a.stats.Telemetry = telemetry.Snapshot{
		SMC: []telemetry.CallStats{{Name: "enter", Count: 10, Cycles: 1000}},
	}
	a.mu.Unlock()
	b.mu.Lock()
	b.stats.Server.Requests, b.stats.Server.Served = 50, 49
	b.stats.Server.Rejected, b.stats.Server.Draining = 1, 2
	b.stats.Telemetry = telemetry.Snapshot{
		SMC: []telemetry.CallStats{{Name: "enter", Count: 5, Cycles: 400}},
	}
	b.mu.Unlock()

	g := newStubGateway(t, Config{}, a, b)
	ts := httptest.NewServer(g)
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var fs FleetStats
	if err := json.NewDecoder(resp.Body).Decode(&fs); err != nil {
		t.Fatal(err)
	}
	if fs.Fleet.Backends != 2 {
		t.Fatalf("backends_reporting %d, want 2", fs.Fleet.Backends)
	}
	if fs.Fleet.Server.Requests != 150 || fs.Fleet.Server.Served != 139 {
		t.Fatalf("fleet sums wrong: %+v", fs.Fleet.Server)
	}
	if fs.Fleet.Server.Rejected != 8 || fs.Fleet.Server.Timeouts != 3 || fs.Fleet.Server.Draining != 2 {
		t.Fatalf("fleet rejection sums wrong: %+v", fs.Fleet.Server)
	}
	// Per-backend rejections surfaced directly, not only in aggregate.
	if len(fs.Rejected) != 2 {
		t.Fatalf("rejected_by_backend has %d entries, want 2", len(fs.Rejected))
	}
	byName := map[string]FleetRejected{}
	for _, r := range fs.Rejected {
		byName[r.Backend] = r
	}
	if byName["b0"].Rejected429 != 7 || byName["b0"].Timeouts503 != 3 {
		t.Fatalf("b0 rejections wrong: %+v", byName["b0"])
	}
	if byName["b1"].Rejected429 != 1 || byName["b1"].Draining503 != 2 {
		t.Fatalf("b1 rejections wrong: %+v", byName["b1"])
	}
	// telemetry.Merge combined the SMC streams.
	found := false
	for _, cs := range fs.Fleet.Telemetry.SMC {
		if cs.Name == "enter" {
			found = true
			if cs.Count != 15 || cs.Cycles != 1400 {
				t.Fatalf("merged SMC enter: %+v, want count 15 cycles 1400", cs)
			}
		}
	}
	if !found {
		t.Fatal("merged telemetry lost the SMC stream")
	}
}

func TestMetricsExposeGatewayFamilies(t *testing.T) {
	a := newStub(t)
	g := newStubGateway(t, Config{}, a)
	ts := httptest.NewServer(g)
	defer ts.Close()

	postSign(t, ts.URL, "s0")
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	for _, want := range []string{
		"komodo_gateway_requests_total",
		"komodo_gateway_proxied_total",
		"komodo_gateway_failovers_total",
		"komodo_gateway_backend_up{backend=\"b0\"}",
		"komodo_gateway_backend_responses_total",
		"komodo_gateway_backend_duration_seconds",
		"komodo_gateway_request_duration_seconds",
	} {
		if !strings.Contains(string(body), want) {
			t.Fatalf("/metrics missing %s", want)
		}
	}
}

// TestDebugTracesMinMSFilter: the gateway's flight dump honours
// ?min_ms= like a backend's, and the envelope still describes the whole
// recorder.
func TestDebugTracesMinMSFilter(t *testing.T) {
	a := newStub(t)
	g := newStubGateway(t, Config{}, a)
	ts := httptest.NewServer(g)
	defer ts.Close()

	postSign(t, ts.URL, "s0")
	for _, c := range []struct {
		minMS string
		kept  int
	}{{"0", 1}, {"100000", 0}} {
		var dump obs.Dump
		resp, err := http.Get(ts.URL + "/v1/debug/traces?min_ms=" + c.minMS)
		if err != nil {
			t.Fatal(err)
		}
		err = json.NewDecoder(resp.Body).Decode(&dump)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if len(dump.Traces) != c.kept || dump.Retained != 1 {
			t.Fatalf("min_ms=%s: kept %d of %d retained, want %d of 1", c.minMS, len(dump.Traces), dump.Retained, c.kept)
		}
	}
}

func TestTraceparentPropagatesToBackend(t *testing.T) {
	var mu sync.Mutex
	var seen string
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/notary/sign", func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		seen = r.Header.Get("traceparent")
		mu.Unlock()
		fmt.Fprint(w, `{"counter":1}`)
	})
	ts := httptest.NewServer(mux)
	defer ts.Close()

	g, err := New(Config{Backends: []BackendSpec{{Name: "b0", URL: ts.URL}}, DisableProbes: true})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	gw := httptest.NewServer(g)
	defer gw.Close()

	req, _ := http.NewRequest(http.MethodPost, gw.URL+"/v1/notary/sign?shard=x", strings.NewReader("doc"))
	const inbound = "00-0123456789abcdef0123456789abcdef-00f067aa0ba902b7-01"
	req.Header.Set("traceparent", inbound)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()

	mu.Lock()
	defer mu.Unlock()
	if seen == "" {
		t.Fatal("backend saw no traceparent")
	}
	if !strings.HasPrefix(seen, "00-0123456789abcdef0123456789abcdef-") {
		t.Fatalf("backend trace id not inherited from client: %q", seen)
	}
	if seen == inbound {
		t.Fatal("gateway must mint its own span id, not replay the client's")
	}
}
