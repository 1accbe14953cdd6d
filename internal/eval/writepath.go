package eval

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/pool"
	"repro/internal/server"
)

// WritePathRow is one cell of the adaptive write-path sweep: the same
// closed-loop notary load with durable counters (CheckpointEvery 1)
// against one write-path configuration. The headline columns are
// CrossingsPerOK (enclave crossings per signed request, amortised by
// batching and further by dedup under skew) and FsyncsPerOK (WAL fsyncs
// per signed request, amortised by batching). Every
// batch receipt is verified offline in-run; a row only lands if all of
// them check out.
type WritePathRow struct {
	Config         string  `json:"config"`
	Clients        int     `json:"clients"`
	Skew           string  `json:"skew"` // "uniform" or "zipf"
	Requests       int     `json:"requests"`
	Crossings      uint64  `json:"enclave_crossings"`
	CrossingsPerOK float64 `json:"crossings_per_signed_request"`
	Fsyncs         uint64  `json:"fsyncs"`
	FsyncsPerOK    float64 `json:"fsyncs_per_signed_request"`
	Dedup          uint64  `json:"dedup_total"`
	KFinal         int     `json:"k_final"`
	MeanBatch      float64 `json:"mean_batch_size"`
	Throughput     float64 `json:"requests_per_sec"`
	P50Micros      float64 `json:"p50_us"`
	P95Micros      float64 `json:"p95_us"`
	ReceiptsOK     int     `json:"receipts_verified"`
}

// wpConfig is one write-path configuration under test.
type wpConfig struct {
	name  string
	maxK  int  // BatchMaxSize (0 = unbatched)
	minK  int  // BatchMinSize (0 = fixed K)
	dedup bool // BatchDedup
}

// zipfCorpus builds the deterministic shared document corpus for skewed
// load: rank i is always the same pseudo-random 64..511-byte document,
// so every client draws hot ranks from the same set and cross-request
// dedup has identical (doc, tenant) pairs to coalesce.
func zipfCorpus(n int) [][]byte {
	docs := make([][]byte, n)
	for i := range docs {
		rng := rand.New(rand.NewSource(int64(i) + 7919))
		d := make([]byte, 64+rng.Intn(448))
		rng.Read(d)
		docs[i] = d
	}
	return docs
}

func writePathRun(reqs, clients int, cfg wpConfig, zipf bool) (WritePathRow, error) {
	row := WritePathRow{Config: cfg.name, Clients: clients, Skew: "uniform"}
	if zipf {
		row.Skew = "zipf"
	}

	dir, err := os.MkdirTemp("", "komodo-writepath-*")
	if err != nil {
		return row, err
	}
	defer os.RemoveAll(dir)
	cs, err := server.OpenCheckpointStore(dir)
	if err != nil {
		return row, err
	}
	defer cs.Close()

	// Size > 1 so concurrent batch seals overlap on the WAL.
	p, err := pool.New(pool.Config{
		Size:      4,
		Boot:      server.Blueprint(42),
		Provision: server.RestoreProvision(cs),
	})
	if err != nil {
		return row, err
	}
	srv := server.New(server.Config{
		Pool:            p,
		QueueDepth:      4 * clients,
		RequestTimeout:  60 * time.Second,
		Checkpoints:     cs,
		CheckpointEvery: 1,
		BatchMaxSize:    cfg.maxK,
		BatchMinSize:    cfg.minK,
		BatchDedup:      cfg.dedup,
		BatchWindow:     2 * time.Millisecond,
		BatchQueue:      4 * clients,
	})
	ts := httptest.NewServer(srv)
	defer func() {
		ts.Close()
		srv.Close()
	}()

	var corpus [][]byte
	if zipf {
		corpus = zipfCorpus(256)
	}

	before := crossings(p)
	var budget atomic.Int64
	budget.Store(int64(reqs))
	var verified atomic.Int64
	lats := make([][]time.Duration, clients)
	errs := make([]error, clients)
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(c) + 1))
			var zs *rand.Zipf
			if zipf {
				zs = rand.NewZipf(rng, 1.2, 1, uint64(len(corpus)-1))
			}
			client := &http.Client{Timeout: 60 * time.Second}
			for budget.Add(-1) >= 0 {
				var doc []byte
				if zipf {
					doc = corpus[zs.Uint64()]
				} else {
					doc = make([]byte, 64+rng.Intn(192))
					rng.Read(doc)
				}
				t0 := time.Now()
				resp, err := client.Post(ts.URL+"/v1/notary/sign", "application/octet-stream", bytes.NewReader(doc))
				if err != nil {
					errs[c] = err
					return
				}
				body, err := io.ReadAll(resp.Body)
				resp.Body.Close()
				if err != nil {
					errs[c] = err
					return
				}
				if resp.StatusCode != http.StatusOK {
					errs[c] = fmt.Errorf("sign: status %d: %s", resp.StatusCode, body)
					return
				}
				lat := time.Since(t0)
				var nr server.NotaryResponse
				if err := json.Unmarshal(body, &nr); err != nil {
					errs[c] = fmt.Errorf("sign: bad response: %v", err)
					return
				}
				if nr.Batch != nil {
					if err := server.VerifyBatchReceipt(nr, doc); err != nil {
						errs[c] = fmt.Errorf("receipt failed offline verification: %v", err)
						return
					}
					verified.Add(1)
				}
				lats[c] = append(lats[c], lat)
			}
		}(c)
	}
	wg.Wait()
	elapsed := time.Since(start)
	for _, err := range errs {
		if err != nil {
			return row, err
		}
	}
	// Quiesce so the telemetry sample sees the workers idle.
	var after uint64
	for i := 0; i < 100; i++ {
		if after = crossings(p); after > before {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}

	var all []time.Duration
	for _, l := range lats {
		all = append(all, l...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	q := func(f float64) float64 {
		return float64(all[int(f*float64(len(all)-1))].Nanoseconds()) / 1e3
	}
	row.Requests = len(all)
	row.Crossings = after - before
	row.CrossingsPerOK = float64(row.Crossings) / float64(len(all))
	row.Throughput = float64(len(all)) / elapsed.Seconds()
	row.P50Micros, row.P95Micros = q(0.50), q(0.95)
	row.ReceiptsOK = int(verified.Load())
	st := srv.Stats()
	if st.Batch != nil {
		row.KFinal = st.Batch.KCurrent
		row.MeanBatch = st.Batch.MeanSize
		row.Dedup = st.Batch.Dedup
	}
	if st.Store != nil {
		row.Fsyncs = st.Store.Fsyncs
		row.FsyncsPerOK = float64(st.Store.Fsyncs) / float64(len(all))
	}

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	srv.Drain()
	if err := p.Close(ctx); err != nil {
		return row, err
	}
	return row, nil
}

// WritePathSweep runs the adaptive write-path comparison behind
// BENCH_10.json (docs/PERFORMANCE.md §Write path): unbatched, three
// fixed batch sizes, and the full adaptive stack (floating K + dedup),
// each at a light (2-client) and heavy (64-client) load
// level with durable counters checkpointed after every sign, plus a
// Zipf-skewed heavy cell for fixed K=16 versus the adaptive stack so
// cross-request dedup has repeats to coalesce.
func WritePathSweep(reqs int) ([]WritePathRow, error) {
	configs := []wpConfig{
		{name: "unbatched"},
		{name: "fixed K=4", maxK: 4},
		{name: "fixed K=16", maxK: 16},
		{name: "fixed K=32", maxK: 32},
		{name: "adaptive+dedup", maxK: 32, minK: 2, dedup: true},
	}
	var rows []WritePathRow
	for _, clients := range []int{2, 64} {
		n := reqs
		if n < 8*clients {
			n = 8 * clients
		}
		for _, cfg := range configs {
			row, err := writePathRun(n, clients, cfg, false)
			if err != nil {
				return nil, fmt.Errorf("writepath (%s, %d clients): %w", cfg.name, clients, err)
			}
			rows = append(rows, row)
		}
	}
	// Skewed heavy load: repeats within the batch window are what dedup
	// coalesces, so the comparison that matters is equal-load fixed K
	// versus the adaptive stack.
	for _, cfg := range []wpConfig{configs[2], configs[4]} {
		clients := 64
		n := reqs
		if n < 8*clients {
			n = 8 * clients
		}
		row, err := writePathRun(n, clients, cfg, true)
		if err != nil {
			return nil, fmt.Errorf("writepath (%s, zipf): %w", cfg.name, err)
		}
		rows = append(rows, row)
	}
	return rows, nil
}
