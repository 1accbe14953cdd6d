// komodo-load is a closed-loop load generator for the enclave serving
// layer. Each client loops request → response → next request, so offered
// load tracks service capacity and the queue exercises real backpressure.
// It drives a running server or fleet; it never boots one itself (the
// end-to-end serving benchmark is `bash benchmark/run.sh`).
//
// Against one komodo-serve:
//
//	komodo-load -url http://127.0.0.1:8787 -clients 8 -duration 5s -verify
//
// Fleet mode: -targets takes a komodo-gateway URL (or a comma-separated
// backend list to skip the gateway), shards notary traffic with -shards,
// attributes latency per backend via the X-Komodo-Backend response
// header, and cross-checks that no (backend, worker, epoch, restores)
// counter stream ever repeats a value:
//
//	komodo-load -targets http://127.0.0.1:9090 -endpoint notary -shards 8
//
// One of -url or -targets is required; without either it exits 2.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/kasm"
	"repro/internal/obs"
	"repro/internal/server"
	"repro/internal/telemetry"
)

type options struct {
	url         string
	clients     int
	duration    time.Duration
	requests    int
	endpoint    string
	verify      bool
	jsonOut     bool
	traceparent string

	targets   string
	shards    int
	tenantMix string

	zipf         float64
	zipfDocs     int
	respectRetry bool
}

// Result is one load run's summary (also the -json schema).
type Result struct {
	Label      string  `json:"label"`
	Clients    int     `json:"clients"`
	Seconds    float64 `json:"seconds"`
	OK         int     `json:"ok"`
	Rejected   int     `json:"rejected_429"`
	Unavail    int     `json:"unavailable_503"`
	Errors     int     `json:"errors"`
	Verified   int     `json:"verified"`
	Throughput float64 `json:"requests_per_sec"`
	P50ms      float64 `json:"p50_ms"`
	P95ms      float64 `json:"p95_ms"`
	P99ms      float64 `json:"p99_ms"`
	MaxMs      float64 `json:"max_ms"`
	// CounterMin/CounterMax are the lowest and highest notary counters
	// observed across all clients (0/0 when no notary requests ran).
	// Scripts use CounterMax to assert monotonicity across restarts.
	CounterMin uint32 `json:"counter_min,omitempty"`
	CounterMax uint32 `json:"counter_max,omitempty"`
	// CounterDups counts notary responses that repeated a counter value
	// already seen on the same (backend, worker, epoch, restores) stream.
	// Any nonzero value means a counter was lost or duplicated — e.g. a
	// failover or migration spliced two lineages together.
	CounterDups int `json:"counter_dups"`
	// PerBackend is the per-node latency view built from the
	// X-Komodo-Backend attribution header (merged quantiles in the
	// top-level fields come from summing these histograms).
	PerBackend []BackendResult `json:"per_backend,omitempty"`
	// RejectClasses breaks every 429/503 down by the X-Komodo-Reject
	// header: rate_limit/quota/shed are admission control, queue_full is
	// batch-queue saturation, timeout/drain are the 503 classes, and
	// "unclassified" is a rejection without the header.
	RejectClasses map[string]int `json:"reject_classes,omitempty"`
	// RetryAfterMissing counts 429/503 responses that arrived without a
	// Retry-After header (the contract says every rejection carries one).
	RetryAfterMissing int `json:"retry_after_missing"`
	// RetryAfterSlept counts the rejections whose Retry-After the client
	// actually honored (-respect-retry-after), and RetryAfterSleptMs the
	// total wall time spent in those sleeps.
	RetryAfterSlept   int     `json:"retry_after_slept,omitempty"`
	RetryAfterSleptMs float64 `json:"retry_after_slept_ms,omitempty"`
	// CoalescedReceipts counts batch receipts whose leaf was shared with
	// other requests by cross-request dedup (proof's coalesced > 1).
	CoalescedReceipts int `json:"coalesced_receipts,omitempty"`
	// ReceiptsVerified counts batch receipts proven offline with
	// server.VerifyBatchReceipt (-verify on a batched notary workload).
	ReceiptsVerified int `json:"receipts_verified,omitempty"`
	// Crossings is the enclave SMC-enter delta across the run summed over
	// all targets' /v1/stats telemetry, and CrossingsPerOK that divided
	// by OK — the number batching exists to shrink.
	Crossings      uint64  `json:"enclave_crossings,omitempty"`
	CrossingsPerOK float64 `json:"crossings_per_ok,omitempty"`
	// PerTier is the per-tier latency/outcome view built from the
	// X-Komodo-Tier response header (populated with -tenant-mix).
	PerTier []TierResult `json:"per_tier,omitempty"`
}

// TierResult is one admission tier's slice of a run.
type TierResult struct {
	Tier     string  `json:"tier"`
	OK       int     `json:"ok"`
	Rejected int     `json:"rejected"`
	P50ms    float64 `json:"p50_ms"`
	P95ms    float64 `json:"p95_ms"`
	P99ms    float64 `json:"p99_ms"`
}

// BackendResult is one backend's slice of a fleet run.
type BackendResult struct {
	Backend string  `json:"backend"`
	OK      int     `json:"ok"`
	P50ms   float64 `json:"p50_ms"`
	P95ms   float64 `json:"p95_ms"`
	P99ms   float64 `json:"p99_ms"`
	MaxMs   float64 `json:"max_ms"`
}

func main() {
	var o options
	flag.StringVar(&o.url, "url", "", "target server base URL (this or -targets is required)")
	flag.IntVar(&o.clients, "clients", 8, "concurrent closed-loop clients")
	flag.DurationVar(&o.duration, "duration", 5*time.Second, "run length (ignored if -requests > 0)")
	flag.IntVar(&o.requests, "requests", 0, "total request budget (0 = run for -duration)")
	flag.StringVar(&o.endpoint, "endpoint", "attest", "workload: attest | notary | mixed")
	flag.BoolVar(&o.verify, "verify", false, "verify every quote client-side with kasm.VerifyQuote")
	flag.BoolVar(&o.jsonOut, "json", false, "emit machine-readable JSON instead of text")
	flag.StringVar(&o.traceparent, "traceparent", "", "W3C traceparent header to send on every request (exercises inbound trace propagation)")
	flag.StringVar(&o.targets, "targets", "", "fleet targets: one gateway URL, or comma-separated backend URLs")
	flag.IntVar(&o.shards, "shards", 0, "notary shard keys to spread across (client c uses shard s<c mod N>; 0 = unsharded)")
	flag.StringVar(&o.tenantMix, "tenant-mix", "", "weighted X-Komodo-Tenant tokens per request: token:weight,token:weight (token '-' sends none)")
	flag.Float64Var(&o.zipf, "zipf", 0, "notary docs drawn Zipf-skewed from a shared corpus with this exponent (> 1; 0 = unique random docs)")
	flag.IntVar(&o.zipfDocs, "zipf-docs", 1024, "distinct documents in the Zipf corpus (with -zipf)")
	flag.BoolVar(&o.respectRetry, "respect-retry-after", false, "honor Retry-After on 429/503 (sleep it, capped at 2s) instead of the fixed backoff")
	flag.Parse()
	if o.zipf != 0 && o.zipf <= 1 {
		fail(fmt.Errorf("-zipf exponent must be > 1, got %v", o.zipf))
	}
	if o.zipfDocs < 1 {
		fail(fmt.Errorf("-zipf-docs must be >= 1, got %d", o.zipfDocs))
	}

	var bases []string
	label := "remote"
	switch {
	case o.targets != "":
		for _, u := range strings.Split(o.targets, ",") {
			bases = append(bases, strings.TrimRight(strings.TrimSpace(u), "/"))
		}
		label = "gateway"
		if len(bases) > 1 {
			label = fmt.Sprintf("direct/%db", len(bases))
		}
	case o.url != "":
		bases = []string{strings.TrimRight(o.url, "/")}
	default:
		usage("no target: give -url (one server) or -targets (a gateway or backend list)")
	}
	r, err := drive(o, bases, label)
	if err != nil {
		fail(err)
	}
	if o.jsonOut {
		// The -json schema is a list of runs; this run is its only entry.
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode([]Result{r}); err != nil {
			fail(err)
		}
		return
	}
	printResult(r)
}

// printResult renders one run as a text table row plus its per-backend,
// per-tier and rejection-class breakdowns.
func printResult(r Result) {
	fmt.Printf("%-16s %9s %7s %7s %6s %8s %8s %8s %8s\n",
		"run", "req/s", "ok", "429", "err", "p50 ms", "p95 ms", "p99 ms", "max ms")
	fmt.Printf("%-16s %9.1f %7d %7d %6d %8.2f %8.2f %8.2f %8.2f",
		r.Label, r.Throughput, r.OK, r.Rejected, r.Errors+r.Unavail, r.P50ms, r.P95ms, r.P99ms, r.MaxMs)
	if r.CounterMax > 0 {
		fmt.Printf("  counters=%d..%d", r.CounterMin, r.CounterMax)
	}
	if r.CounterDups > 0 {
		fmt.Printf("  DUPS=%d", r.CounterDups)
	}
	if r.CrossingsPerOK > 0 {
		fmt.Printf("  xings/ok=%.2f", r.CrossingsPerOK)
	}
	if r.ReceiptsVerified > 0 {
		fmt.Printf("  receipts=%d", r.ReceiptsVerified)
	}
	if r.CoalescedReceipts > 0 {
		fmt.Printf("  coalesced=%d", r.CoalescedReceipts)
	}
	if r.RetryAfterSlept > 0 {
		fmt.Printf("  retry-slept=%d(%.0fms)", r.RetryAfterSlept, r.RetryAfterSleptMs)
	}
	fmt.Println()
	for _, pb := range r.PerBackend {
		fmt.Printf("  %-14s %9s %7d %7s %6s %8.2f %8.2f %8.2f %8.2f\n",
			"· "+pb.Backend, "", pb.OK, "", "", pb.P50ms, pb.P95ms, pb.P99ms, pb.MaxMs)
	}
	for _, pt := range r.PerTier {
		fmt.Printf("  %-14s %9s %7d %7d %6s %8.2f %8.2f %8.2f\n",
			"· tier/"+pt.Tier, "", pt.OK, pt.Rejected, "", pt.P50ms, pt.P95ms, pt.P99ms)
	}
	if len(r.RejectClasses) > 0 {
		classes := make([]string, 0, len(r.RejectClasses))
		for c := range r.RejectClasses {
			classes = append(classes, c)
		}
		sort.Strings(classes)
		fmt.Printf("  rejects:")
		for _, c := range classes {
			fmt.Printf(" %s=%d", c, r.RejectClasses[c])
		}
		if r.RetryAfterMissing > 0 {
			fmt.Printf("  RETRY-AFTER-MISSING=%d", r.RetryAfterMissing)
		}
		fmt.Println()
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "komodo-load:", err)
	os.Exit(1)
}

// usage reports a command-line mistake the way the flag package does:
// the message, the flag list, exit status 2.
func usage(msg string) {
	fmt.Fprintln(os.Stderr, "komodo-load:", msg)
	flag.Usage()
	os.Exit(2)
}

// streamBook detects lost or duplicated notary counters across the whole
// run: every observed (backend, worker, epoch, restores, counter) tuple
// must be unique. Duplicate detection is insensitive to response
// reordering between concurrent clients (unlike per-observation
// monotonicity), so it is exactly the invariant a fleet must keep
// through failover and migration.
type streamBook struct {
	mu     sync.Mutex
	seen   map[string]struct{}
	roots  map[string]string
	leaves map[string]string
	dups   int
}

func (sb *streamBook) record(backend string, nr *server.NotaryResponse) {
	stream := fmt.Sprintf("%s/%d/%d/%d", backend, nr.Worker, nr.Epoch, nr.Restores)
	sb.mu.Lock()
	defer sb.mu.Unlock()
	if nr.Batch != nil {
		// One counter tick covers a whole batch, so K receipts sharing a
		// counter are expected — but they must all share ONE Merkle root
		// (a second root on the same counter is a double-spent tick), and
		// within (stream, counter, root) each leaf index appears once.
		ck := fmt.Sprintf("%s#%d", stream, nr.Counter)
		if root, ok := sb.roots[ck]; ok && root != nr.Batch.Root {
			sb.dups++
			return
		}
		sb.roots[ck] = nr.Batch.Root
		// Each leaf index maps to exactly one leaf hash. With dedup,
		// several receipts legitimately share an index — but only when
		// they agree on the leaf AND the proof says it was coalesced; a
		// repeated index with a different leaf (or on a sole-owner leaf)
		// is still a double-spend.
		lk := fmt.Sprintf("%s@%d", ck, nr.Batch.LeafIndex)
		if leaf, ok := sb.leaves[lk]; ok {
			if leaf != nr.Batch.Leaf || nr.Batch.Coalesced <= 1 {
				sb.dups++
			}
		} else {
			sb.leaves[lk] = nr.Batch.Leaf
		}
		return
	}
	key := fmt.Sprintf("%s#%d", stream, nr.Counter)
	if _, dup := sb.seen[key]; dup {
		sb.dups++
	} else {
		sb.seen[key] = struct{}{}
	}
}

// tokenMix is the parsed -tenant-mix: a weighted set of admission tokens
// sampled per request. The token "-" means "send no tenant header".
type tokenMix struct {
	tokens []string
	cumsum []int
	total  int
}

func parseMix(s string) (*tokenMix, error) {
	if s == "" {
		return nil, nil
	}
	m := &tokenMix{}
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		tok, weight := part, 1
		if i := strings.LastIndex(part, ":"); i >= 0 {
			w, err := strconv.Atoi(part[i+1:])
			if err != nil || w <= 0 {
				return nil, fmt.Errorf("bad -tenant-mix weight in %q", part)
			}
			tok, weight = part[:i], w
		}
		m.total += weight
		m.tokens = append(m.tokens, tok)
		m.cumsum = append(m.cumsum, m.total)
	}
	if m.total == 0 {
		return nil, fmt.Errorf("empty -tenant-mix %q", s)
	}
	return m, nil
}

func (m *tokenMix) pick(rng *rand.Rand) string {
	n := rng.Intn(m.total)
	for i, c := range m.cumsum {
		if n < c {
			if m.tokens[i] == "-" {
				return ""
			}
			return m.tokens[i]
		}
	}
	return ""
}

// sumCrossings sums the SMC "enter" count over each distinct target's
// /v1/stats telemetry (fleet-merged telemetry when the target is a
// gateway). Returns ok=false when any target doesn't expose it.
func sumCrossings(bases []string) (uint64, bool) {
	seen := map[string]bool{}
	var total uint64
	for _, base := range bases {
		if seen[base] {
			continue
		}
		seen[base] = true
		var sp struct {
			Telemetry telemetry.Snapshot `json:"telemetry"`
			Fleet     *struct {
				Telemetry telemetry.Snapshot `json:"telemetry"`
			} `json:"fleet"`
		}
		if err := getJSON(base+"/v1/stats", &sp); err != nil {
			return 0, false
		}
		tel := sp.Telemetry
		if sp.Fleet != nil {
			tel = sp.Fleet.Telemetry
		}
		found := false
		for _, cs := range tel.SMC {
			// Every monitor entry that hands the CPU to enclave code is a
			// world crossing — both fresh entries and interrupt resumes.
			if cs.Name == "KOM_SMC_ENTER" || cs.Name == "KOM_SMC_RESUME" {
				total += cs.Count
				found = true
			}
		}
		if !found {
			return 0, false
		}
	}
	return total, true
}

// drive runs the closed-loop clients against the targets and aggregates.
// Client c is pinned to bases[c%len(bases)]; with -shards it also tags
// notary requests with shard s<c mod shards>, so through a gateway the
// shard→backend placement is exercised for real. Latency is attributed
// per backend via the X-Komodo-Backend header (falling back to the
// target URL when absent), and the merged quantiles are computed over
// the union of the per-backend histograms.
func drive(o options, bases []string, label string) (Result, error) {
	var quoteKey [8]uint32
	if o.verify {
		var kr server.QuoteKeyResponse
		if err := getJSON(bases[0]+"/v1/quotekey", &kr); err != nil {
			return Result{}, fmt.Errorf("fetching quote key: %w", err)
		}
		k, err := server.DecodeWords(kr.QuoteKey)
		if err != nil {
			return Result{}, err
		}
		quoteKey = k
	}

	mix, err := parseMix(o.tenantMix)
	if err != nil {
		return Result{}, err
	}

	type tally struct {
		ok, rejected, unavail, errs, verified, receipts int
		coalesced                                       int
		counterMin, counterMax                          uint32
		err                                             error
	}
	tallies := make([]tally, o.clients)
	book := &streamBook{seen: map[string]struct{}{}, roots: map[string]string{}, leaves: map[string]string{}}

	// Rejection-class and per-tier ledgers shared by all clients.
	var classMu sync.Mutex
	rejectClasses := map[string]int{}
	retryMissing := 0
	retrySlept := 0
	var retrySleptFor time.Duration
	tierRejected := map[string]int{}

	// Zipf skew: all clients draw documents from one deterministic shared
	// corpus, so the hot ranks collide across clients — exactly the
	// workload cross-request dedup coalesces.
	var corpus [][]byte
	if o.zipf > 0 {
		corpus = make([][]byte, o.zipfDocs)
		for i := range corpus {
			drng := rand.New(rand.NewSource(int64(i) + 7919))
			d := make([]byte, 64+drng.Intn(448))
			drng.Read(d)
			corpus[i] = d
		}
	}
	// Lock-free histograms shared by every client goroutine, one per
	// backend plus on-demand; quantiles come from their log-linear
	// buckets rather than a sorted sample slice.
	var histMu sync.Mutex
	hists := map[string]*obs.Histogram{}
	tierHists := map[string]*obs.Histogram{}
	histIn := func(m map[string]*obs.Histogram, key string) *obs.Histogram {
		histMu.Lock()
		defer histMu.Unlock()
		h := m[key]
		if h == nil {
			h = obs.NewHistogram()
			m[key] = h
		}
		return h
	}
	histFor := func(backend string) *obs.Histogram { return histIn(hists, backend) }

	crossBefore, crossOK := sumCrossings(bases)

	deadline := time.Now().Add(o.duration)
	var budget chan struct{}
	if o.requests > 0 {
		budget = make(chan struct{}, o.requests)
		for i := 0; i < o.requests; i++ {
			budget <- struct{}{}
		}
		close(budget)
		deadline = time.Now().Add(24 * time.Hour)
	}

	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < o.clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			t := &tallies[c]
			rng := rand.New(rand.NewSource(int64(c) + 1))
			var zs *rand.Zipf
			if corpus != nil {
				zs = rand.NewZipf(rng, o.zipf, 1, uint64(len(corpus)-1))
			}
			client := &http.Client{Timeout: 60 * time.Second}
			base := bases[c%len(bases)]
			shard := ""
			if o.shards > 0 {
				shard = fmt.Sprintf("s%d", c%o.shards)
			}
			for seq := 0; time.Now().Before(deadline); seq++ {
				if budget != nil {
					if _, more := <-budget; !more {
						return
					}
				}
				ep := o.endpoint
				if ep == "mixed" {
					if rng.Intn(2) == 0 {
						ep = "attest"
					} else {
						ep = "notary"
					}
				}
				token := ""
				if mix != nil {
					token = mix.pick(rng)
				}
				var doc []byte
				if zs != nil && ep == "notary" {
					doc = corpus[zs.Uint64()]
				}
				reqStart := time.Now()
				out, err := doRequest(client, base, ep, c, seq, rng, o.traceparent, shard, token, doc)
				if err != nil {
					t.errs++
					continue
				}
				if out.servedBy == "" {
					out.servedBy = base
				}
				switch out.status {
				case http.StatusOK:
					t.ok++
					elapsed := time.Since(reqStart)
					histFor(out.servedBy).Observe(elapsed)
					if out.tier != "" {
						histIn(tierHists, out.tier).Observe(elapsed)
					}
					if ep == "notary" {
						var nr server.NotaryResponse
						if json.Unmarshal(out.body, &nr) == nil && nr.Counter > 0 {
							book.record(out.servedBy, &nr)
							if t.counterMin == 0 || nr.Counter < t.counterMin {
								t.counterMin = nr.Counter
							}
							if nr.Counter > t.counterMax {
								t.counterMax = nr.Counter
							}
							if nr.Batch != nil && nr.Batch.Coalesced > 1 {
								t.coalesced++
							}
							if o.verify && nr.Batch != nil {
								if err := server.VerifyBatchReceipt(nr, out.doc); err != nil {
									t.err = fmt.Errorf("batch receipt verification failed: %v", err)
									return
								}
								t.receipts++
							}
						}
					}
					if o.verify && ep == "attest" {
						ok, verr := verifyAttest(out.body, quoteKey, fmt.Sprintf("nonce-%d-%d", c, seq))
						if verr != nil || !ok {
							t.err = fmt.Errorf("quote verification failed: %v", verr)
							return
						}
						t.verified++
					}
				case http.StatusTooManyRequests, http.StatusServiceUnavailable:
					if out.status == http.StatusTooManyRequests {
						t.rejected++
					} else {
						t.unavail++
					}
					class := out.reject
					if class == "" {
						class = "unclassified"
					}
					classMu.Lock()
					rejectClasses[class]++
					if !out.retryAfter {
						retryMissing++
					}
					if out.tier != "" {
						tierRejected[out.tier]++
					}
					classMu.Unlock()
					if o.respectRetry && out.retrySecs > 0 {
						// Honor the server's hint, capped so a pathological
						// Retry-After can't stall the whole run.
						nap := time.Duration(out.retrySecs) * time.Second
						if nap > 2*time.Second {
							nap = 2 * time.Second
						}
						time.Sleep(nap)
						classMu.Lock()
						retrySlept++
						retrySleptFor += nap
						classMu.Unlock()
					} else if out.status == http.StatusTooManyRequests {
						time.Sleep(500 * time.Microsecond) // brief backoff on saturation
					} else {
						time.Sleep(time.Millisecond)
					}
				default:
					t.errs++
				}
			}
		}(c)
	}
	wg.Wait()
	elapsed := time.Since(start)

	var r Result
	r.Label = label
	r.Clients = o.clients
	r.Seconds = elapsed.Seconds()
	for i := range tallies {
		t := &tallies[i]
		if t.err != nil {
			return r, t.err
		}
		r.OK += t.ok
		r.Rejected += t.rejected
		r.Unavail += t.unavail
		r.Errors += t.errs
		r.Verified += t.verified
		r.ReceiptsVerified += t.receipts
		r.CoalescedReceipts += t.coalesced
		if t.counterMax > 0 {
			if r.CounterMin == 0 || t.counterMin < r.CounterMin {
				r.CounterMin = t.counterMin
			}
			if t.counterMax > r.CounterMax {
				r.CounterMax = t.counterMax
			}
		}
	}
	if r.OK == 0 {
		return r, fmt.Errorf("no successful requests (429s: %d, 503s: %d, errors: %d)",
			r.Rejected, r.Unavail, r.Errors)
	}
	r.Throughput = float64(r.OK) / elapsed.Seconds()
	r.CounterDups = book.dups

	// Per-backend quantiles, plus a merged view over the union of all
	// samples (HistSnapshot.Merge, not an average of quantiles).
	ms := func(d time.Duration) float64 { return float64(d.Microseconds()) / 1000 }
	var merged obs.HistSnapshot
	names := make([]string, 0, len(hists))
	for name := range hists {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		snap := hists[name].Snapshot()
		merged.Merge(snap)
		if len(names) > 1 {
			r.PerBackend = append(r.PerBackend, BackendResult{
				Backend: name,
				OK:      int(snap.Count),
				P50ms:   ms(snap.Quantile(0.50)),
				P95ms:   ms(snap.Quantile(0.95)),
				P99ms:   ms(snap.Quantile(0.99)),
				MaxMs:   ms(time.Duration(snap.MaxNS)),
			})
		}
	}
	r.P50ms, r.P95ms, r.P99ms = ms(merged.Quantile(0.50)), ms(merged.Quantile(0.95)), ms(merged.Quantile(0.99))
	r.MaxMs = ms(time.Duration(merged.MaxNS))

	if len(rejectClasses) > 0 {
		r.RejectClasses = rejectClasses
	}
	r.RetryAfterMissing = retryMissing
	r.RetryAfterSlept = retrySlept
	r.RetryAfterSleptMs = float64(retrySleptFor.Microseconds()) / 1000
	tiers := make([]string, 0, len(tierHists))
	for tier := range tierHists {
		tiers = append(tiers, tier)
	}
	for tier := range tierRejected {
		if tierHists[tier] == nil {
			tiers = append(tiers, tier)
		}
	}
	sort.Strings(tiers)
	for _, tier := range tiers {
		tr := TierResult{Tier: tier, Rejected: tierRejected[tier]}
		if h := tierHists[tier]; h != nil {
			snap := h.Snapshot()
			tr.OK = int(snap.Count)
			tr.P50ms, tr.P95ms, tr.P99ms = ms(snap.Quantile(0.50)), ms(snap.Quantile(0.95)), ms(snap.Quantile(0.99))
		}
		r.PerTier = append(r.PerTier, tr)
	}

	// Crossings are a before/after delta over the targets' telemetry, so
	// they include batch amortisation: with K-sized batches the figure
	// approaches 1/K crossings per signed request.
	if crossOK {
		if crossAfter, ok := sumCrossings(bases); ok && crossAfter >= crossBefore {
			r.Crossings = crossAfter - crossBefore
			r.CrossingsPerOK = float64(r.Crossings) / float64(r.OK)
		}
	}
	return r, nil
}

// reqOut is one request's observed outcome: status and body, plus the
// response-header signals the tallies classify on (serving backend, tier,
// rejection class, Retry-After presence) and the document that was signed
// (for offline batch-receipt verification).
type reqOut struct {
	status     int
	body       []byte
	servedBy   string
	tier       string
	reject     string
	retryAfter bool
	retrySecs  int
	doc        []byte
}

// doRequest issues one request. servedBy is the backend that served it
// (the gateway's X-Komodo-Backend attribution header, "" when talking to
// a backend directly). A non-nil doc pins the notary document (Zipf
// corpus); nil draws a fresh random one.
func doRequest(client *http.Client, base, ep string, c, seq int, rng *rand.Rand, traceparent, shard, token string, doc []byte) (reqOut, error) {
	var out reqOut
	var req *http.Request
	var err error
	switch ep {
	case "attest":
		req, err = http.NewRequest(http.MethodGet,
			fmt.Sprintf("%s/v1/attest?nonce=nonce-%d-%d", base, c, seq), nil)
	case "notary":
		out.doc = doc
		if out.doc == nil {
			out.doc = make([]byte, 64+rng.Intn(448))
			rng.Read(out.doc)
		}
		url := base + "/v1/notary/sign"
		if shard != "" {
			url += "?shard=" + shard
		}
		req, err = http.NewRequest(http.MethodPost, url, bytes.NewReader(out.doc))
		if err == nil {
			req.Header.Set("Content-Type", "application/octet-stream")
		}
	default:
		return out, fmt.Errorf("unknown endpoint %q", ep)
	}
	if err != nil {
		return out, err
	}
	if traceparent != "" {
		req.Header.Set("traceparent", traceparent)
	}
	if token != "" {
		req.Header.Set(server.TenantHeader, token)
	}
	resp, err := client.Do(req)
	if err != nil {
		return out, err
	}
	defer resp.Body.Close()
	out.body, err = io.ReadAll(resp.Body)
	if err != nil {
		return out, err
	}
	out.status = resp.StatusCode
	out.servedBy = resp.Header.Get("X-Komodo-Backend")
	out.tier = resp.Header.Get(server.TierHeader)
	out.reject = resp.Header.Get(server.RejectHeader)
	if ra := resp.Header.Get("Retry-After"); ra != "" {
		out.retryAfter = true
		if secs, err := strconv.Atoi(ra); err == nil && secs > 0 {
			out.retrySecs = secs
		}
	}
	return out, nil
}

// verifyAttest checks an attest response end to end: the nonce echo, the
// nonce→data derivation, and the quote itself against the provisioned key.
func verifyAttest(body []byte, quoteKey [8]uint32, wantNonce string) (bool, error) {
	var ar server.AttestResponse
	if err := json.Unmarshal(body, &ar); err != nil {
		return false, err
	}
	if ar.Nonce != wantNonce {
		return false, fmt.Errorf("nonce echo %q != %q", ar.Nonce, wantNonce)
	}
	data, err := server.DecodeWords(ar.Data)
	if err != nil {
		return false, err
	}
	if data != server.NonceWords([]byte(wantNonce)) {
		return false, fmt.Errorf("data words are not SHA-256(nonce)")
	}
	meas, err := server.DecodeWords(ar.Measurement)
	if err != nil {
		return false, err
	}
	quote, err := server.DecodeWords(ar.Quote)
	if err != nil {
		return false, err
	}
	return kasm.VerifyQuote(quoteKey, meas, data, quote), nil
}

func getJSON(url string, out any) error {
	resp, err := http.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(resp.Body)
		return fmt.Errorf("GET %s: %d %s", url, resp.StatusCode, b)
	}
	return json.NewDecoder(resp.Body).Decode(out)
}
