package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"repro/internal/nwos"
	"repro/internal/pool"
	"repro/komodo"
)

// durableStack is one "process": store, provisioned pool, server.
type durableStack struct {
	cs  *CheckpointStore
	p   *pool.Pool
	srv *Server
	ts  *httptest.Server
}

func startDurable(t *testing.T, dir string, seed uint64) *durableStack {
	t.Helper()
	cs, err := OpenCheckpointStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	p, err := pool.New(pool.Config{
		Size:      1,
		Boot:      Blueprint(seed),
		Provision: RestoreProvision(cs),
	})
	if err != nil {
		cs.Close()
		t.Fatal(err)
	}
	srv := New(Config{Pool: p, Checkpoints: cs})
	return &durableStack{cs: cs, p: p, srv: srv, ts: httptest.NewServer(srv)}
}

func (d *durableStack) stop(t *testing.T) {
	t.Helper()
	d.ts.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := d.p.Close(ctx); err != nil {
		t.Fatal(err)
	}
	if err := d.cs.Close(); err != nil {
		t.Fatal(err)
	}
}

func signDoc(t *testing.T, url, doc string) NotaryResponse {
	t.Helper()
	resp, err := http.Post(url+"/v1/notary/sign", "application/octet-stream",
		bytes.NewReader([]byte(doc)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		b, _ := io.ReadAll(resp.Body)
		t.Fatalf("sign: %d %s", resp.StatusCode, b)
	}
	var nr NotaryResponse
	if err := json.NewDecoder(resp.Body).Decode(&nr); err != nil {
		t.Fatal(err)
	}
	return nr
}

// TestDurableCounterAcrossRestart is the headline acceptance test: sign,
// kill the process (close pool and store), start a fresh one on the same
// state directory and the same boot secret, and the counter continues
// strictly past its last durable value instead of restarting at 1.
func TestDurableCounterAcrossRestart(t *testing.T) {
	dir := t.TempDir()

	d := startDurable(t, dir, 42)
	var last uint32
	for i := 0; i < 3; i++ {
		n := signDoc(t, d.ts.URL, fmt.Sprintf("doc-%d", i))
		if n.Counter <= last {
			t.Fatalf("counter not monotonic pre-restart: %d after %d", n.Counter, last)
		}
		last = n.Counter
	}
	d.stop(t)

	d2 := startDurable(t, dir, 42)
	defer d2.stop(t)
	n := signDoc(t, d2.ts.URL, "doc-after-restart")
	if n.Counter <= last {
		t.Fatalf("counter after restart = %d, want > %d (replayed a counter)", n.Counter, last)
	}
	if n.Counter != last+1 {
		t.Fatalf("counter after restart = %d, want %d (no gap expected)", n.Counter, last+1)
	}
}

// TestDurableCounterSurvivesPoolRestore: in durable mode every sign is
// committed and rebased, so even a stateless (restore-on-release)
// request between signs cannot rewind the counter.
func TestDurableCounterSurvivesPoolRestore(t *testing.T) {
	d := startDurable(t, t.TempDir(), 42)
	defer d.stop(t)

	n1 := signDoc(t, d.ts.URL, "before")
	// Attestations release with OK → restore to golden. The rebase at
	// commit time moved golden forward, so the counter must not reset.
	if code := getJSON(t, d.ts.URL+"/v1/attest?nonce=between", nil); code != 200 {
		t.Fatalf("attest: %d", code)
	}
	n2 := signDoc(t, d.ts.URL, "after")
	if n2.Counter != n1.Counter+1 {
		t.Fatalf("counter rewound across restore: %d then %d", n1.Counter, n2.Counter)
	}
}

// TestRestartOnForeignSecretFailsClosed: a state directory written under
// one boot secret must not provision a pool booted with another — the
// sealed blob does not open, the provision fails, and the pool refuses
// to come up rather than serving with a replayable counter.
func TestRestartOnForeignSecretFailsClosed(t *testing.T) {
	dir := t.TempDir()
	d := startDurable(t, dir, 42)
	signDoc(t, d.ts.URL, "doc")
	d.stop(t)

	cs, err := OpenCheckpointStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer cs.Close()
	_, err = pool.New(pool.Config{
		Size:      1,
		Boot:      Blueprint(43), // different boot secret
		Provision: RestoreProvision(cs),
	})
	if err == nil {
		t.Fatal("pool booted with a foreign-secret checkpoint store")
	}
}

// TestCheckpointRestoreEndpoints exercises the admin surface: take a
// checkpoint over HTTP, rewind the notary by restoring it, and reject a
// tampered blob.
func TestCheckpointRestoreEndpoints(t *testing.T) {
	d := startDurable(t, t.TempDir(), 42)
	defer d.stop(t)

	n1 := signDoc(t, d.ts.URL, "pin this counter")

	resp, err := http.Post(d.ts.URL+"/v1/checkpoint", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	var cr CheckpointResponse
	if err := json.NewDecoder(resp.Body).Decode(&cr); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("checkpoint: %d", resp.StatusCode)
	}
	if cr.Counter != n1.Counter || cr.BlobWords == 0 {
		t.Fatalf("checkpoint response: %+v (signed counter %d)", cr, n1.Counter)
	}

	// Sign twice more, then restore the pinned checkpoint: the next
	// counter resumes right after the pinned one.
	signDoc(t, d.ts.URL, "a")
	signDoc(t, d.ts.URL, "b")
	resp, err = http.Post(d.ts.URL+"/v1/restore", "application/json",
		bytes.NewReader([]byte(cr.Checkpoint)))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("restore: %d", resp.StatusCode)
	}
	n2 := signDoc(t, d.ts.URL, "post-restore")
	if n2.Counter != n1.Counter+1 {
		t.Fatalf("restored counter = %d, want %d", n2.Counter, n1.Counter+1)
	}

	// Tamper with one blob word: restore must fail closed, and the pool
	// must recover (the worker reboots and re-provisions).
	ckpt, err := komodo.UnmarshalCheckpoint([]byte(cr.Checkpoint))
	if err != nil {
		t.Fatal(err)
	}
	ckpt.Blob[len(ckpt.Blob)/2] ^= 1
	bad, err := ckpt.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	resp, err = http.Post(d.ts.URL+"/v1/restore", "application/json", bytes.NewReader(bad))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode == 200 {
		t.Fatal("tampered checkpoint restored")
	}
	if n := signDoc(t, d.ts.URL, "still alive"); n.Counter == 0 {
		t.Fatalf("server dead after rejected restore: %+v", n)
	}

	// Garbage bodies are 4xx, not 5xx.
	resp, err = http.Post(d.ts.URL+"/v1/restore", "application/json",
		bytes.NewReader([]byte("not a checkpoint")))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("garbage restore body: %d, want 400", resp.StatusCode)
	}
}

// TestCheckpointStoreRecovery unit-tests the store shim: latest-wins per
// worker across reopen, and compaction keeps the fold intact.
func TestCheckpointStoreRecovery(t *testing.T) {
	dir := t.TempDir()
	mk := func(word uint32) *komodo.Checkpoint {
		return &komodo.Checkpoint{Manifest: nwos.Manifest{NumPages: 1}, Blob: []uint32{word}}
	}
	cs, err := OpenCheckpointStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	// Enough saves to cross the compaction threshold, interleaved over
	// two workers.
	for i := uint32(1); i <= ckptCompactEvery+5; i++ {
		if err := cs.Save(int(i%2), i, mk(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := cs.Close(); err != nil {
		t.Fatal(err)
	}

	cs, err = OpenCheckpointStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer cs.Close()
	if ids := cs.Workers(); len(ids) != 2 {
		t.Fatalf("workers after reopen: %v", ids)
	}
	last := uint32(ckptCompactEvery + 5)
	for _, worker := range []int{0, 1} {
		want := last
		if want%2 != uint32(worker) {
			want = last - 1
		}
		s, ok := cs.Latest(worker)
		if !ok || s.Counter != want {
			t.Fatalf("worker %d latest = %+v, want counter %d", worker, s, want)
		}
		back, err := komodo.UnmarshalCheckpoint(s.Ckpt)
		if err != nil {
			t.Fatal(err)
		}
		if len(back.Blob) != 1 || back.Blob[0] != want {
			t.Fatalf("worker %d blob = %v, want [%d]", worker, back.Blob, want)
		}
	}
}

// TestRetryAfterClasses pins the backpressure contract: queue-full 429
// and deadline 503 say "retry in 1s"; draining 503 says "back off 5s"
// and is counted separately from timeouts.
func TestRetryAfterClasses(t *testing.T) {
	p := newPool(t, pool.Config{Size: 1})
	srv := New(Config{Pool: p, QueueDepth: 1, RequestTimeout: 50 * time.Millisecond})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	// Hold the only worker: the next request takes the single slot and
	// times out waiting — a deadline 503.
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	w, err := p.Get(ctx)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get(ts.URL + "/v1/attest?nonce=deadline")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable || resp.Header.Get("Retry-After") != "1" {
		t.Fatalf("deadline: %d Retry-After=%q, want 503 / 1", resp.StatusCode, resp.Header.Get("Retry-After"))
	}

	// Saturate the queue: park a request in the slot, then flood — a 429.
	parked := make(chan struct{})
	go func() {
		defer close(parked)
		resp, err := http.Get(ts.URL + "/v1/attest?nonce=parked")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
	}()
	deadline := time.Now().Add(10 * time.Second)
	for srv.QueueLen() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("parked request never took the slot")
		}
		time.Sleep(time.Millisecond)
	}
	resp, err = http.Get(ts.URL + "/v1/attest?nonce=flood")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests || resp.Header.Get("Retry-After") != "1" {
		t.Fatalf("queue-full: %d Retry-After=%q, want 429 / 1", resp.StatusCode, resp.Header.Get("Retry-After"))
	}
	p.Put(w, pool.Keep)
	<-parked

	// Draining: longer back-off, its own counter.
	srv.Drain()
	resp, err = http.Get(ts.URL + "/v1/attest?nonce=late")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable || resp.Header.Get("Retry-After") != "5" {
		t.Fatalf("draining: %d Retry-After=%q, want 503 / 5", resp.StatusCode, resp.Header.Get("Retry-After"))
	}

	st := srv.Stats()
	if st.Server.Timeouts != 1 || st.Server.Rejected != 1 || st.Server.Draining != 1 {
		t.Fatalf("rejection classes misattributed: %+v", st.Server)
	}
}

// TestCheckpointStoreConcurrentGroupSaves hammers Save from a group of
// goroutines (run with -race): every worker's latest checkpoint must be
// its last save — in this handle and after recovery — even though
// concurrent appends can finish their map updates out of WAL order, and
// compaction runs concurrently with saves.
func TestCheckpointStoreConcurrentGroupSaves(t *testing.T) {
	dir := t.TempDir()
	cs, err := OpenCheckpointStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	const workers, saves = 8, 40 // 320 records: several compactions
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 1; i <= saves; i++ {
				ckpt := &komodo.Checkpoint{Blob: []uint32{uint32(w), uint32(i)}}
				if err := cs.Save(w, uint32(i), ckpt); err != nil {
					t.Errorf("save(%d,%d): %v", w, i, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	for w := 0; w < workers; w++ {
		s, ok := cs.Latest(w)
		if !ok || s.Counter != saves {
			t.Fatalf("worker %d latest counter %d (ok=%v), want %d", w, s.Counter, ok, saves)
		}
	}
	ss := cs.StoreStats()
	if ss.Appends != workers*saves {
		t.Fatalf("store stats %+v: want %d appends", ss, workers*saves)
	}
	if err := cs.Close(); err != nil {
		t.Fatal(err)
	}
	// Recovery (snapshot + WAL tail) lands on the same latest set.
	cs2, err := OpenCheckpointStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer cs2.Close()
	for w := 0; w < workers; w++ {
		s, ok := cs2.Latest(w)
		if !ok || s.Counter != saves {
			t.Fatalf("recovered worker %d counter %d (ok=%v), want %d", w, s.Counter, ok, saves)
		}
	}
}
