package batch

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/sha2"
)

// fakeSigner counts enclave entries and signs with a deterministic MAC so
// tests can verify receipts end-to-end without a real enclave.
type fakeSigner struct {
	mu      sync.Mutex
	counter uint32
	calls   uint32
	fail    atomic.Bool
}

func (f *fakeSigner) sign(_ context.Context, root [8]uint32) (SignedRoot, error) {
	if f.fail.Load() {
		return SignedRoot{}, errors.New("injected sign failure")
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	f.calls++
	f.counter++
	digest := RootDigest(root, f.counter)
	var mac [8]uint32
	for i := range mac {
		mac[i] = digest[i] ^ 0xdeadbeef
	}
	return SignedRoot{Root: root, Counter: f.counter, Digest: digest, MAC: mac}, nil
}

func req(i int, tenant string) Request {
	var r Request
	r.DocDigest = sha2.New().SumWords()
	r.DocDigest[0] = uint32(i)
	r.Tenant = tenant
	r.Nonce[0] = byte(i)
	r.Nonce[1] = byte(i >> 8)
	return r
}

// TestFullBatchOneCrossing: K concurrent submits produce exactly one sign
// call, one counter advance, and K verifying receipts with distinct leaf
// indices — the aggregator-level half of the duplicate-counter
// differential test.
func TestFullBatchOneCrossing(t *testing.T) {
	const K = 16
	fs := &fakeSigner{}
	a := New(Config{MaxBatch: K, Window: time.Hour, Sign: fs.sign})
	defer a.Close()

	var wg sync.WaitGroup
	receipts := make([]Receipt, K)
	errs := make([]error, K)
	for i := 0; i < K; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			receipts[i], errs[i] = a.Submit(context.Background(), req(i, "t"))
		}(i)
	}
	wg.Wait()

	if fs.calls != 1 {
		t.Fatalf("K=%d submits made %d enclave entries, want 1", K, fs.calls)
	}
	seen := map[int]bool{}
	for i, r := range receipts {
		if errs[i] != nil {
			t.Fatalf("submit %d: %v", i, errs[i])
		}
		if r.Counter != 1 {
			t.Fatalf("receipt %d counter %d, want 1", i, r.Counter)
		}
		if r.BatchSize != K {
			t.Fatalf("receipt %d batch size %d, want %d", i, r.BatchSize, K)
		}
		if seen[r.LeafIndex] {
			t.Fatalf("leaf index %d handed out twice", r.LeafIndex)
		}
		seen[r.LeafIndex] = true
		if !VerifyInclusion(r.Leaf, r.LeafIndex, r.BatchSize, r.Path, r.Root) {
			t.Fatalf("receipt %d failed inclusion", i)
		}
		if r.Digest != RootDigest(r.Root, r.Counter) {
			t.Fatalf("receipt %d digest does not bind (root, counter)", i)
		}
	}
	st := a.Stats()
	if st.BatchesFull != 1 || st.Signed != K || st.CrossingsSaved != K-1 {
		t.Fatalf("stats: %+v", st)
	}
}

// TestWindowClose: a lone request seals when the window expires.
func TestWindowClose(t *testing.T) {
	fs := &fakeSigner{}
	a := New(Config{MaxBatch: 64, Window: 5 * time.Millisecond, Sign: fs.sign})
	defer a.Close()

	r, err := a.Submit(context.Background(), req(1, "t"))
	if err != nil {
		t.Fatal(err)
	}
	if r.BatchSize != 1 || r.LeafIndex != 0 {
		t.Fatalf("got batch size %d index %d", r.BatchSize, r.LeafIndex)
	}
	if r.Root != r.Leaf {
		t.Fatal("single-leaf root must equal the leaf")
	}
	if st := a.Stats(); st.BatchesWindow != 1 {
		t.Fatalf("stats: %+v", st)
	}
}

// TestSaturation: with the sign path blocked, MaxQueue admissions succeed
// and the next is rejected with ErrSaturated.
func TestSaturation(t *testing.T) {
	release := make(chan struct{})
	var entered sync.WaitGroup
	a := New(Config{MaxBatch: 2, Window: time.Hour, MaxQueue: 4,
		Sign: func(_ context.Context, root [8]uint32) (SignedRoot, error) {
			<-release
			return SignedRoot{Root: root, Counter: 1}, nil
		}})
	defer a.Close()

	// Fill two batches (4 requests): all block in seal/sign.
	for i := 0; i < 4; i++ {
		entered.Add(1)
		go func(i int) {
			entered.Done()
			a.Submit(context.Background(), req(i, "t")) //nolint:errcheck
		}(i)
	}
	entered.Wait()
	deadline := time.Now().Add(2 * time.Second)
	for a.Pending() < 4 {
		if time.Now().After(deadline) {
			t.Fatalf("queue never filled: pending=%d", a.Pending())
		}
		time.Sleep(time.Millisecond)
	}

	if _, err := a.Submit(context.Background(), req(99, "t")); !errors.Is(err, ErrSaturated) {
		t.Fatalf("want ErrSaturated, got %v", err)
	}
	close(release)
	if st := a.Stats(); st.Saturated != 1 {
		t.Fatalf("stats: %+v", st)
	}
}

// TestDrainClose: Close seals the open batch with reason drain and rejects
// later submits.
func TestDrainClose(t *testing.T) {
	fs := &fakeSigner{}
	a := New(Config{MaxBatch: 8, Window: time.Hour, Sign: fs.sign})

	done := make(chan Receipt, 1)
	go func() {
		r, err := a.Submit(context.Background(), req(1, "t"))
		if err != nil {
			t.Errorf("submit: %v", err)
		}
		done <- r
	}()
	deadline := time.Now().Add(2 * time.Second)
	for a.Pending() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("request never queued")
		}
		time.Sleep(time.Millisecond)
	}
	a.Close()
	r := <-done
	if !VerifyInclusion(r.Leaf, r.LeafIndex, r.BatchSize, r.Path, r.Root) {
		t.Fatal("drained receipt failed inclusion")
	}
	if st := a.Stats(); st.BatchesDrain != 1 {
		t.Fatalf("stats: %+v", st)
	}
	if _, err := a.Submit(context.Background(), req(2, "t")); !errors.Is(err, ErrClosed) {
		t.Fatalf("want ErrClosed after drain, got %v", err)
	}
}

// TestSignFailurePropagates: a failed enclave entry fails every waiter in
// the batch, and the queue drains so later batches proceed.
func TestSignFailurePropagates(t *testing.T) {
	fs := &fakeSigner{}
	fs.fail.Store(true)
	a := New(Config{MaxBatch: 2, Window: time.Hour, Sign: fs.sign})
	defer a.Close()

	var wg sync.WaitGroup
	errs := make([]error, 2)
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = a.Submit(context.Background(), req(i, "t"))
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err == nil {
			t.Fatalf("submit %d succeeded despite sign failure", i)
		}
	}
	fs.fail.Store(false)
	var wg2 sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg2.Add(1)
		go func(i int) {
			defer wg2.Done()
			if _, err := a.Submit(context.Background(), req(10+i, "t")); err != nil {
				t.Errorf("post-failure submit %d: %v", i, err)
			}
		}(i)
	}
	wg2.Wait()
	if st := a.Stats(); st.SignFailures != 1 || st.Pending != 0 {
		t.Fatalf("stats: %+v", st)
	}
}

// TestDedupCoalesces: with Dedup on, two coalescable submits of the same
// (doc, tenant) share one leaf — same index, leaf hash, and nonce — each
// with an inclusion proof that verifies, while a distinct doc and a
// pinned-nonce duplicate keep their own leaves.
func TestDedupCoalesces(t *testing.T) {
	fs := &fakeSigner{}
	a := New(Config{MaxBatch: 64, Window: 25 * time.Millisecond, Dedup: true, Sign: fs.sign})
	defer a.Close()

	same := req(1, "t")
	same.Coalescable = true
	dup := same // identical doc+tenant, different caller nonce
	dup.Nonce[5] = 0xaa
	other := req(2, "t")
	other.Coalescable = true
	pinned := req(1, "t") // same doc+tenant but a pinned nonce: own leaf
	pinned.Nonce[5] = 0xbb

	reqs := []Request{same, dup, other, pinned}
	receipts := make([]Receipt, len(reqs))
	errs := make([]error, len(reqs))
	var wg sync.WaitGroup
	for i, r := range reqs {
		wg.Add(1)
		go func(i int, r Request) {
			defer wg.Done()
			receipts[i], errs[i] = a.Submit(context.Background(), r)
		}(i, r)
		// Order the arrivals so "same" owns the leaf "dup" folds onto.
		time.Sleep(2 * time.Millisecond)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
	}
	if receipts[0].BatchSize != 3 {
		t.Fatalf("batch has %d leaves, want 3 (one shared)", receipts[0].BatchSize)
	}
	if receipts[0].LeafIndex != receipts[1].LeafIndex ||
		receipts[0].Leaf != receipts[1].Leaf || receipts[0].Nonce != receipts[1].Nonce {
		t.Fatalf("coalesced receipts diverge: %+v vs %+v", receipts[0], receipts[1])
	}
	if receipts[0].Coalesced != 2 || receipts[1].Coalesced != 2 {
		t.Fatalf("coalesced counts %d/%d, want 2/2", receipts[0].Coalesced, receipts[1].Coalesced)
	}
	if receipts[2].LeafIndex == receipts[0].LeafIndex {
		t.Fatal("distinct doc landed on the shared leaf")
	}
	if receipts[3].LeafIndex == receipts[0].LeafIndex {
		t.Fatal("non-coalescable request folded onto another leaf")
	}
	if receipts[3].Nonce != pinned.Nonce {
		t.Fatal("pinned nonce not preserved in its receipt")
	}
	for i, r := range receipts {
		if !VerifyInclusion(r.Leaf, r.LeafIndex, r.BatchSize, r.Path, r.Root) {
			t.Fatalf("receipt %d failed inclusion", i)
		}
	}
	st := a.Stats()
	if st.Dedup != 1 || st.Signed != 4 {
		t.Fatalf("stats: %+v", st)
	}
}

// TestAdaptiveKMoves: the controller grows K after a fast concurrent
// burst (high arrival rate) and shrinks it back toward the floor under
// slow one-at-a-time traffic.
func TestAdaptiveKMoves(t *testing.T) {
	const minK, maxK = 2, 32
	fs := &fakeSigner{}
	a := New(Config{MaxBatch: maxK, MinBatch: minK, Window: 2 * time.Millisecond, Sign: fs.sign})
	defer a.Close()

	if st := a.Stats(); st.KCurrent != minK || st.KMin != minK || st.KMax != maxK {
		t.Fatalf("initial stats: %+v", st)
	}
	// Burst: fill batches at the floor as fast as submits can race in.
	for round := 0; round < 3; round++ {
		var wg sync.WaitGroup
		for i := 0; i < minK; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				if _, err := a.Submit(context.Background(), req(round*10+i, "t")); err != nil {
					t.Errorf("burst submit: %v", err)
				}
			}(i)
		}
		wg.Wait()
	}
	grown := a.Stats().KCurrent
	if grown <= minK || grown > maxK {
		t.Fatalf("after burst K=%d, want in (%d,%d]", grown, minK, maxK)
	}
	// Slow singles: each seals by window timeout with one arrival.
	for i := 0; i < 10; i++ {
		if _, err := a.Submit(context.Background(), req(100+i, "t")); err != nil {
			t.Fatal(err)
		}
	}
	shrunk := a.Stats().KCurrent
	if shrunk >= grown || shrunk < minK {
		t.Fatalf("after slow traffic K=%d (was %d), want shrunk toward %d", shrunk, grown, minK)
	}
}

// TestFixedModeUnchanged pins the off-switch differential at the
// aggregator level: with MinBatch 0 and Dedup off, receipts carry the
// caller's own nonce, no coalescing, a constant K, and exactly the leaf
// set a pre-adaptive aggregator would build. K stays at MaxBatch even
// under the backlog that grows an adaptive K.
func TestFixedModeUnchanged(t *testing.T) {
	const K = 4
	fs := &fakeSigner{}
	a := New(Config{MaxBatch: K, Window: time.Hour, Sign: fs.sign})
	defer a.Close()

	reqs := make([]Request, K)
	for i := range reqs {
		reqs[i] = req(1, "t") // identical docs: still one leaf each
		reqs[i].Nonce[3] = byte(i)
		reqs[i].Coalescable = true // dedup is off, so this must be inert
	}
	receipts := make([]Receipt, K)
	var wg sync.WaitGroup
	for i := range reqs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			var err error
			if receipts[i], err = a.Submit(context.Background(), reqs[i]); err != nil {
				t.Errorf("submit %d: %v", i, err)
			}
		}(i)
	}
	wg.Wait()
	seen := map[int]bool{}
	for i, r := range receipts {
		if r.BatchSize != K || r.Coalesced != 1 {
			t.Fatalf("receipt %d: size=%d coalesced=%d, want %d/1", i, r.BatchSize, r.Coalesced, K)
		}
		if r.Nonce != reqs[i].Nonce {
			t.Fatalf("receipt %d nonce differs from the caller's", i)
		}
		if want := LeafHash(reqs[i].DocDigest, reqs[i].Tenant, reqs[i].Nonce[:]); r.Leaf != want {
			t.Fatalf("receipt %d leaf is not LeafHash(doc, tenant, nonce)", i)
		}
		if seen[r.LeafIndex] {
			t.Fatalf("leaf index %d handed out twice with dedup off", r.LeafIndex)
		}
		seen[r.LeafIndex] = true
	}
	st := a.Stats()
	if st.Dedup != 0 || st.KCurrent != K || st.KMin != K || st.KMax != K {
		t.Fatalf("stats: %+v", st)
	}

	// Backlog: hold the first seal until a second full batch is queued
	// behind it, so it closes on count with work waiting.
	gate := make(chan struct{})
	gated := New(Config{MaxBatch: K, Window: time.Hour, Sign: func(ctx context.Context, root [8]uint32) (SignedRoot, error) {
		<-gate
		return fs.sign(ctx, root)
	}})
	defer gated.Close()
	for i := 0; i < 2*K; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if _, err := gated.Submit(context.Background(), req(10+i, "t")); err != nil {
				t.Errorf("backlog submit %d: %v", i, err)
			}
		}(i)
	}
	deadline := time.Now().Add(2 * time.Second)
	for gated.Pending() < 2*K {
		if time.Now().After(deadline) {
			t.Fatal("backlog never queued")
		}
		time.Sleep(time.Millisecond)
	}
	close(gate)
	wg.Wait()
	if st := gated.Stats(); st.KCurrent != K || st.BatchesFull != 2 {
		t.Fatalf("after backlog: %+v, want K=%d over 2 full batches", st, K)
	}
}

// TestAbandonedWaiterDoesNotBlockBatch: a caller whose context dies before
// the seal completes abandons only its own receipt.
func TestAbandonedWaiterDoesNotBlockBatch(t *testing.T) {
	fs := &fakeSigner{}
	a := New(Config{MaxBatch: 2, Window: time.Hour, Sign: fs.sign})
	defer a.Close()

	ctx, cancel := context.WithCancel(context.Background())
	abandoned := make(chan error, 1)
	go func() {
		_, err := a.Submit(ctx, req(1, "t"))
		abandoned <- err
	}()
	deadline := time.Now().Add(2 * time.Second)
	for a.Pending() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("request never queued")
		}
		time.Sleep(time.Millisecond)
	}
	cancel()
	if err := <-abandoned; !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	// The second request fills the batch; it must still get a receipt.
	r, err := a.Submit(context.Background(), req(2, "t"))
	if err != nil {
		t.Fatal(err)
	}
	if r.BatchSize != 2 || !VerifyInclusion(r.Leaf, r.LeafIndex, 2, r.Path, r.Root) {
		t.Fatalf("surviving receipt broken: %+v", r)
	}
}
