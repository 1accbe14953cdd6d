package eval

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/kasm"
	"repro/komodo"
)

// PerfReport captures host-side hot-path performance: how fast the
// simulator retires instructions with and without the superblock cache,
// how much memory the dirty-page delta restore moves per serving-style
// request compared with a full copy, and the wall-clock request latency
// distribution of the snapshot/restore serving loop.
//
// Unlike the rest of this package these are host measurements (they vary
// with the machine running them); the committed BENCH_*.json baselines
// track their trajectory, not exact values.
type PerfReport struct {
	Requests int `json:"requests"`
	DocWords int `json:"doc_words"`

	// Interpreter throughput on the notary's hash loop, simulated
	// instructions per host second (no restores: pure interpretation).
	// InstrPerSec is the default configuration (superblock cache on);
	// Uncached disables it, leaving the per-instruction interpreter.
	InstrPerSec         float64 `json:"instr_per_sec"`
	InstrPerSecUncached float64 `json:"instr_per_sec_uncached"`
	// BlockCacheSpeedup is block-cached over uncached.
	BlockCacheSpeedup float64 `json:"block_cache_speedup"`
	// BlockCacheHitRate/MeanBlockLen describe the default run.
	BlockCacheHitRate float64 `json:"block_cache_hit_rate"`
	MeanBlockLen      float64 `json:"mean_block_len"`

	// Restore traffic for one notary request: words the delta path
	// actually copied vs. the full memory image a naive restore copies.
	RestoreWordsPerRequest uint64  `json:"restore_words_per_request"`
	RestoreWordsFullCopy   uint64  `json:"restore_words_full_copy"`
	RestoreReduction       float64 `json:"restore_reduction"`

	// Wall-clock latency of one request (write doc, run notary enclave,
	// restore golden snapshot), pool-style.
	ServeP50Micros float64 `json:"serve_p50_us"`
	ServeP95Micros float64 `json:"serve_p95_us"`
}

// notarySystem boots a platform and loads the single-shared-page notary,
// with the superblock cache on unless uncached is set.
func notarySystem(uncached bool) (*komodo.System, *komodo.Enclave, error) {
	opts := []komodo.Option{komodo.WithSeed(1)}
	if uncached {
		opts = append(opts, komodo.WithoutBlockCache())
	}
	sys, err := komodo.New(opts...)
	if err != nil {
		return nil, nil, err
	}
	nimg, err := kasm.NotaryGuest(1).Image()
	if err != nil {
		return nil, nil, err
	}
	enc, err := sys.LoadEnclave(komodo.FromNWOSImage(nimg))
	if err != nil {
		return nil, nil, err
	}
	return sys, enc, nil
}

func testDoc(words int) []uint32 {
	doc := make([]uint32, words)
	for i := range doc {
		doc[i] = uint32(i) * 2654435761
	}
	return doc
}

// throughputStats carries one configuration's measurement.
type throughputStats struct {
	instrPerSec  float64
	blockHitRate float64
	meanBlockLen float64
}

// throughput measures simulated instructions retired per host second over
// iters back-to-back notary runs (no snapshot/restore in the loop), plus
// the block cache hit rate and mean block length for the run.
func throughput(uncached bool, iters, docWords int) (throughputStats, error) {
	var ts throughputStats
	sys, enc, err := notarySystem(uncached)
	if err != nil {
		return ts, err
	}
	if err := enc.WriteShared(0, 0, testDoc(docWords)); err != nil {
		return ts, err
	}
	m := sys.Machine()
	startRetired := m.Retired()
	start := time.Now()
	for i := 0; i < iters; i++ {
		if _, err := enc.Run(uint32(docWords)); err != nil {
			return ts, err
		}
	}
	wall := time.Since(start).Seconds()
	if wall <= 0 {
		return ts, fmt.Errorf("eval: perf run too fast to time")
	}
	bc := m.BlockCacheStats()
	if total := bc.Hits + bc.Misses; total > 0 {
		ts.blockHitRate = float64(bc.Hits) / float64(total)
	}
	ts.meanBlockLen = bc.MeanBlockLen()
	ts.instrPerSec = float64(m.Retired()-startRetired) / wall
	return ts, nil
}

// serveLoop measures the pool's serving discipline: golden snapshot once,
// then per request write the doc, run the notary, restore. Returns the
// per-request wall latencies and delta-restore traffic.
func serveLoop(reqs, docWords int) (lat []time.Duration, deltaWords, fullWords uint64, err error) {
	sys, enc, err := notarySystem(false)
	if err != nil {
		return nil, 0, 0, err
	}
	golden := sys.Snapshot()
	m := sys.Machine()
	doc := testDoc(docWords)
	lat = make([]time.Duration, 0, reqs)
	for i := 0; i < reqs; i++ {
		t0 := time.Now()
		if err := enc.WriteShared(0, 0, doc); err != nil {
			return nil, 0, 0, err
		}
		if _, err := enc.Run(uint32(docWords)); err != nil {
			return nil, 0, 0, err
		}
		if err := sys.Restore(golden); err != nil {
			return nil, 0, 0, err
		}
		lat = append(lat, time.Since(t0))
	}
	rs := m.Phys.RestoreStats()
	if rs.DeltaRestores > 0 {
		deltaWords = rs.WordsCopied / rs.DeltaRestores
	}
	return lat, deltaWords, m.Phys.TotalWords(), nil
}

// Perf measures the serving hot path: reqs notary requests through the
// snapshot/restore loop, and reqs iterations of the pure compute loop per
// cache configuration (reqs/4 for the slower uncached configuration —
// enough for a stable rate).
func Perf(reqs int) (*PerfReport, error) {
	if reqs < 8 {
		reqs = 8
	}
	const docWords = 64
	block, err := throughput(false, reqs, docWords)
	if err != nil {
		return nil, err
	}
	slowReqs := reqs / 4
	if slowReqs < 2 {
		slowReqs = 2
	}
	uncached, err := throughput(true, slowReqs, docWords)
	if err != nil {
		return nil, err
	}
	lat, deltaWords, fullWords, err := serveLoop(reqs, docWords)
	if err != nil {
		return nil, err
	}

	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	p := func(q float64) float64 {
		idx := int(q * float64(len(lat)-1))
		return float64(lat[idx].Nanoseconds()) / 1e3
	}
	r := &PerfReport{
		Requests:               reqs,
		DocWords:               docWords,
		InstrPerSec:            block.instrPerSec,
		InstrPerSecUncached:    uncached.instrPerSec,
		BlockCacheHitRate:      block.blockHitRate,
		MeanBlockLen:           block.meanBlockLen,
		RestoreWordsPerRequest: deltaWords,
		RestoreWordsFullCopy:   fullWords,
		ServeP50Micros:         p(0.50),
		ServeP95Micros:         p(0.95),
	}
	if uncached.instrPerSec > 0 {
		r.BlockCacheSpeedup = block.instrPerSec / uncached.instrPerSec
	}
	if deltaWords > 0 {
		r.RestoreReduction = float64(fullWords) / float64(deltaWords)
	}
	return r, nil
}
