package gateway

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/kasm"
	"repro/internal/pool"
	"repro/internal/server"
)

// realBackend boots an actual komodo-serve stack: a one-worker pool of
// simulated boards behind the real HTTP server.
func realBackend(t *testing.T) *httptest.Server {
	t.Helper()
	p, err := pool.New(pool.Config{Size: 1, Boot: server.Blueprint(42)})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		p.Close(ctx)
	})
	ts := httptest.NewServer(server.New(server.Config{Pool: p}))
	t.Cleanup(ts.Close)
	return ts
}

func signVia(t *testing.T, gwURL, shard, doc string) (server.NotaryResponse, *http.Response) {
	t.Helper()
	resp, err := http.Post(gwURL+"/v1/notary/sign?shard="+shard, "application/octet-stream", strings.NewReader(doc))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var nr server.NotaryResponse
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&nr); err != nil {
			t.Fatal(err)
		}
	} else {
		io.Copy(io.Discard, resp.Body)
	}
	return nr, resp
}

// TestLiveMigrationKeepsCountersMonotonic is the tentpole's end-to-end
// proof on real enclaves: sign through the gateway against the shard
// owner, live-migrate the owner's sealed notary to the other backend,
// keep signing the same shard, and require one strictly monotonic
// counter stream across the move (same lineage: the Restores marker on
// post-migration responses identifies the migrated stream).
func TestLiveMigrationKeepsCountersMonotonic(t *testing.T) {
	if testing.Short() {
		t.Skip("boots real enclave boards")
	}
	a, b := realBackend(t), realBackend(t)
	g, err := New(Config{
		Backends:      []BackendSpec{{Name: "src", URL: a.URL}, {Name: "dst", URL: b.URL}},
		DisableProbes: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	gw := httptest.NewServer(g)
	defer gw.Close()

	// Find a shard the ring places on backend 0 (src).
	shard := ""
	for k := 0; ; k++ {
		s := fmt.Sprintf("s%d", k)
		if g.ring.Owner(s) == 0 {
			shard = s
			break
		}
	}

	var counters []uint32
	for i := 0; i < 5; i++ {
		nr, resp := signVia(t, gw.URL, shard, fmt.Sprintf("pre-doc-%d", i))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("pre-migration sign %d: %d", i, resp.StatusCode)
		}
		if got := resp.Header.Get("X-Komodo-Backend"); got != "src" {
			t.Fatalf("pre-migration sign served by %q, want src", got)
		}
		if nr.Restores != 0 {
			t.Fatalf("pre-migration lineage marker %d, want 0", nr.Restores)
		}
		counters = append(counters, nr.Counter)
	}

	rep, err := g.Migrate(context.Background(), 0, 1, true)
	if err != nil {
		t.Fatalf("migrate: %v", err)
	}
	if rep.From != "src" || rep.To != "dst" || !rep.Drained {
		t.Fatalf("migration report: %+v", rep)
	}
	if rep.Restores != 1 {
		t.Fatalf("target lineage marker %d after first restore, want 1", rep.Restores)
	}
	if rep.BlobWords == 0 {
		t.Fatal("migration moved an empty checkpoint")
	}
	if g.migrations.Load() != 1 {
		t.Fatalf("migrations counter %d, want 1", g.migrations.Load())
	}

	for i := 0; i < 5; i++ {
		nr, resp := signVia(t, gw.URL, shard, fmt.Sprintf("post-doc-%d", i))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("post-migration sign %d: %d", i, resp.StatusCode)
		}
		if got := resp.Header.Get("X-Komodo-Backend"); got != "dst" {
			t.Fatalf("post-migration sign served by %q, want dst", got)
		}
		if nr.Restores != 1 {
			t.Fatalf("post-migration lineage marker %d, want 1", nr.Restores)
		}
		counters = append(counters, nr.Counter)
	}

	// One strictly monotonic stream across the move: the sealed counter
	// migrated, so the target continues where the source stopped instead
	// of restarting from zero.
	for i := 1; i < len(counters); i++ {
		if counters[i] <= counters[i-1] {
			t.Fatalf("counter stream not strictly monotonic across migration: %v", counters)
		}
	}

	// Double-migrating the same source must fail cleanly.
	if _, err := g.Migrate(context.Background(), 0, 1, false); err == nil {
		t.Fatal("second migrate of a forwarded backend must fail")
	}

	// Reinstate hands the arcs back (no state move here: the test only
	// checks the routing flip is reversible).
	if err := g.Reinstate(0); err != nil {
		t.Fatalf("reinstate: %v", err)
	}
	if g.resolve(0) != 0 {
		t.Fatal("reinstate did not clear the forwarding entry")
	}
}

// TestFailedMigrationUndrainsSource pins the failure path's promise: a
// migration that drained the source and then died (here: the checkpoint
// step 500s) must un-drain it, release the hold and leave routing
// untouched — a transient restore/checkpoint error may cost a few
// retryable 503s, never a node stranded out of service.
func TestFailedMigrationUndrainsSource(t *testing.T) {
	a, b := newStub(t), newStub(t)
	g := newStubGateway(t, Config{}, a, b)

	rep, err := g.Migrate(context.Background(), 0, 1, true)
	if err == nil {
		t.Fatal("migrate with a failing checkpoint must error")
	}
	if !strings.Contains(err.Error(), "checkpoint") {
		t.Fatalf("error should name the failing step: %v", err)
	}
	if rep.Drained {
		t.Fatal("report still claims the source is drained after the un-drain")
	}

	a.mu.Lock()
	events, draining := a.drainEvents, a.draining
	a.mu.Unlock()
	if len(events) != 2 || events[0] != "on" || events[1] != "off" {
		t.Fatalf("drain sequence %v, want [on off]", events)
	}
	if draining {
		t.Fatal("failed migration left the source draining")
	}

	g.mu.RLock()
	held := g.migrating[0]
	g.mu.RUnlock()
	if held {
		t.Fatal("failed migration left the migration hold in place")
	}
	if g.resolve(0) != 0 {
		t.Fatal("failed migration flipped the ring")
	}
	if g.migrations.Load() != 0 {
		t.Fatal("failed migration counted as completed")
	}
}

// TestMigrationRejectsOversizedReply: a backend reply over maxProxyBody
// must fail the migration with an explicit size error, not be silently
// truncated into a misleading JSON decoding error.
func TestMigrationRejectsOversizedReply(t *testing.T) {
	src := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/v1/checkpoint" {
			fmt.Fprint(w, `{}`)
			return
		}
		fmt.Fprint(w, `{"worker":0,"counter":7,"blob_words":4,"checkpoint":"`)
		pad := []byte(strings.Repeat("A", 64<<10))
		for n := int64(0); n <= maxProxyBody; n += int64(len(pad)) {
			if _, err := w.Write(pad); err != nil {
				return
			}
		}
		fmt.Fprint(w, `"}`)
	}))
	defer src.Close()
	dst := newStub(t)
	g, err := New(Config{
		Backends:      []BackendSpec{{Name: "src", URL: src.URL}, {Name: "dst", URL: dst.ts.URL}},
		DisableProbes: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()

	_, err = g.Migrate(context.Background(), 0, 1, false)
	if err == nil || !strings.Contains(err.Error(), "reply larger than") {
		t.Fatalf("migrate over an oversized checkpoint reply: %v, want a reply-size error", err)
	}
	if g.resolve(0) != 0 || g.migrations.Load() != 0 {
		t.Fatal("failed migration changed routing")
	}
}

// TestMigrationQuiesceBarrier stresses the hold/quiesce barrier the
// monotonicity proof rests on: signers race a migration from many
// goroutines, and once the source has sealed its checkpoint not one
// more sign may land on it — a sign that slipped between routing and
// admission would advance a counter the sealed blob doesn't capture,
// and the target would re-issue it after the flip. Run with -race.
func TestMigrationQuiesceBarrier(t *testing.T) {
	src, dst := newStub(t), newStub(t)
	src.mu.Lock()
	src.ckptOK = true
	src.mu.Unlock()
	g := newStubGateway(t, Config{}, src, dst)
	ts := httptest.NewServer(g)
	defer ts.Close()

	shard := shardOwnedBy(g, 0)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				resp, err := http.Post(ts.URL+"/v1/notary/sign?shard="+shard,
					"application/octet-stream", strings.NewReader("doc"))
				if err == nil {
					io.Copy(io.Discard, resp.Body)
					resp.Body.Close()
				}
			}
		}()
	}
	time.Sleep(20 * time.Millisecond) // let the signers reach steady state

	rep, err := g.Migrate(context.Background(), 0, 1, false)
	close(stop)
	wg.Wait()
	if err != nil {
		t.Fatalf("migrate under load: %v", err)
	}
	if rep.From != "b0" || rep.To != "b1" {
		t.Fatalf("migration report: %+v", rep)
	}

	src.mu.Lock()
	late := src.lateSigns
	src.mu.Unlock()
	if late != 0 {
		t.Fatalf("%d signs landed on the source after its checkpoint was sealed", late)
	}
	// Post-flip traffic must land on the target.
	resp := postSign(t, ts.URL, shard)
	if got := resp.Header.Get("X-Komodo-Backend"); got != "b1" {
		t.Fatalf("post-migration sign served by %q, want b1", got)
	}
}

// TestAttestThroughGatewayVerifies proves the gateway adds nothing to
// the TCB on the attestation path: a quote fetched through the proxy
// still verifies offline against the quote key, also fetched through the
// proxy.
func TestAttestThroughGatewayVerifies(t *testing.T) {
	if testing.Short() {
		t.Skip("boots real enclave boards")
	}
	a := realBackend(t)
	g, err := New(Config{Backends: []BackendSpec{{Name: "b0", URL: a.URL}}, DisableProbes: true})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	gw := httptest.NewServer(g)
	defer gw.Close()

	get := func(path string, out any) {
		t.Helper()
		resp, err := http.Get(gw.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: %d", path, resp.StatusCode)
		}
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatal(err)
		}
	}

	var key server.QuoteKeyResponse
	get("/v1/quotekey", &key)
	quoteKey, err := server.DecodeWords(key.QuoteKey)
	if err != nil {
		t.Fatal(err)
	}

	const nonce = "gateway-freshness-nonce"
	var ar server.AttestResponse
	get("/v1/attest?nonce="+nonce, &ar)
	if ar.Nonce != nonce {
		t.Fatalf("nonce echo %q through gateway", ar.Nonce)
	}
	data, _ := server.DecodeWords(ar.Data)
	if data != server.NonceWords([]byte(nonce)) {
		t.Fatal("attested data is not SHA-256 of the nonce: freshness broken through the proxy")
	}
	meas, _ := server.DecodeWords(ar.Measurement)
	quote, _ := server.DecodeWords(ar.Quote)
	if !kasm.VerifyQuote(quoteKey, meas, data, quote) {
		t.Fatal("quote fetched through the gateway does not verify")
	}
}
