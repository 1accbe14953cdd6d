// Benchmarks regenerating the paper's evaluation (§8). Each table/figure
// has a benchmark; sub-benchmarks report the simulated-cycle (or
// simulated-ms) measurements as custom metrics next to the paper's
// published numbers, so `go test -bench .` prints the whole evaluation.
// See EXPERIMENTS.md for the recorded paper-vs-measured comparison.
package repro

import (
	"strconv"
	"strings"
	"testing"

	"repro/internal/board"
	"repro/internal/eval"
	"repro/internal/kasm"
	"repro/internal/nwos"
	"repro/internal/telemetry"
)

func sanitize(s string) string {
	return strings.NewReplacer(" ", "_", "+", "plus", "(", "", ")", "").Replace(s)
}

// BenchmarkTable3 regenerates the Table 3 microbenchmarks. The measurement
// is the deterministic simulated-cycle count; ns/op reflects simulator
// speed and is not an evaluation result.
func BenchmarkTable3(b *testing.B) {
	rows, err := eval.Table3()
	if err != nil {
		b.Fatal(err)
	}
	for _, r := range rows {
		b.Run(sanitize(r.Operation), func(b *testing.B) {
			var last eval.Table3Row
			for i := 0; i < b.N; i++ {
				rs, err := eval.Table3()
				if err != nil {
					b.Fatal(err)
				}
				for _, rr := range rs {
					if rr.Operation == r.Operation {
						last = rr
					}
				}
			}
			b.ReportMetric(float64(last.Cycles), "sim-cycles")
			b.ReportMetric(float64(r.PaperCycles), "paper-cycles")
			// The §8.1 attribution: how much of the row's SMC was
			// world-switch mechanics vs. the call body's own work.
			b.ReportMetric(float64(last.DispatchCycles), "dispatch-cycles")
			b.ReportMetric(float64(last.BodyCycles), "body-cycles")
		})
	}
}

// BenchmarkTelemetryNopOverhead pins the tentpole's cost contract: an
// attached recorder with the default nop sink must add no measurable
// overhead to the SMC hot path. Both sub-benchmarks run the identical
// full enclave crossing; compare their ns/op.
func BenchmarkTelemetryNopOverhead(b *testing.B) {
	run := func(b *testing.B, rec *telemetry.Recorder) {
		plat, err := board.Boot(board.Config{Seed: 1, Telemetry: rec})
		if err != nil {
			b.Fatal(err)
		}
		os := nwos.New(plat.Machine, plat.Monitor, plat.Monitor.NPages())
		os.SetTelemetry(rec)
		img, err := kasm.ExitConst(0).Image()
		if err != nil {
			b.Fatal(err)
		}
		enc, err := os.BuildEnclave(img)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, _, err := os.Enter(enc); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("uninstrumented", func(b *testing.B) { run(b, nil) })
	b.Run("nop-sink", func(b *testing.B) { run(b, telemetry.New()) })
}

// BenchmarkSGXComparison regenerates the §8.1 crossing-latency comparison.
func BenchmarkSGXComparison(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := eval.SGXComparison()
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			for _, r := range rows {
				b.ReportMetric(float64(r.Komodo), "komodo-"+sanitize(r.Operation))
				b.ReportMetric(float64(r.SGX), "sgx-"+sanitize(r.Operation))
			}
		}
	}
}

// BenchmarkFigure5 regenerates the notary curve: time to notarise a
// document of each size, in an enclave vs. as a native process, in
// simulated milliseconds at the paper's 900 MHz clock.
func BenchmarkFigure5(b *testing.B) {
	for _, kb := range eval.Figure5Sizes {
		kb := kb
		b.Run(sizeName(kb), func(b *testing.B) {
			var pt eval.Fig5Point
			for i := 0; i < b.N; i++ {
				pts, err := eval.Figure5([]int{kb})
				if err != nil {
					b.Fatal(err)
				}
				pt = pts[0]
			}
			b.ReportMetric(pt.EnclaveMS, "enclave-sim-ms")
			b.ReportMetric(pt.NativeMS, "native-sim-ms")
		})
	}
}

func sizeName(kb int) string { return strconv.Itoa(kb) + "kB" }

// BenchmarkAblation measures the §8.1 crossing-optimisation ablation:
// the paper-faithful always-flush monitor vs. the skip-flush fast path
// ("optimisations that we aim to add, but only after proving their
// correctness" — our refinement suite is that proof's analogue).
func BenchmarkAblation(b *testing.B) {
	var rows []eval.AblationRow
	var err error
	for i := 0; i < b.N; i++ {
		rows, err = eval.Ablation()
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range rows {
		name := "unoptimised"
		if strings.HasPrefix(r.Config, "optimised") {
			name = "optimised"
		}
		b.ReportMetric(float64(r.RepeatCrossing), name+"-repeat-cycles")
	}
}

// BenchmarkDensity measures platform behaviour as resident-enclave count
// grows — the §1 concurrency claim made quantitative. The crossing cost
// stays flat: the monitor's dispatch is O(1) in enclaves.
func BenchmarkDensity(b *testing.B) {
	var pts []eval.DensityPoint
	var err error
	for i := 0; i < b.N; i++ {
		pts, err = eval.Density([]int{1, 16, 40})
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, p := range pts {
		b.ReportMetric(float64(p.CrossingCycles), "crossing-at-"+strconv.Itoa(p.Enclaves))
	}
}

// BenchmarkTable2LineCounts regenerates the code-size breakdown.
func BenchmarkTable2LineCounts(b *testing.B) {
	var total int
	for i := 0; i < b.N; i++ {
		rows, err := eval.CountLines(".")
		if err != nil {
			b.Fatal(err)
		}
		total = 0
		for _, r := range rows {
			total += r.Spec + r.Impl + r.Proof
		}
	}
	b.ReportMetric(float64(total), "total-loc")
}

// BenchmarkEnclaveCrossing measures real (host) time per full enclave
// crossing through the whole simulated stack — the simulator's own
// performance, complementing the simulated-cycle Table 3.
func BenchmarkEnclaveCrossing(b *testing.B) {
	plat, err := board.Boot(board.Config{Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	os := nwos.New(plat.Machine, plat.Monitor, plat.Monitor.NPages())
	img, err := kasm.ExitConst(0).Image()
	if err != nil {
		b.Fatal(err)
	}
	enc, err := os.BuildEnclave(img)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := os.Enter(enc); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkInterpreter measures raw simulated-instruction throughput (the
// KARM interpreter running the SHA-256 inner loop in an enclave) with the
// superblock cache on (the default) and off. Comparing the sub-benchmarks'
// ns/op gives the block cache's speedup as recorded in docs/PERFORMANCE.md.
func BenchmarkInterpreter(b *testing.B) {
	run := func(b *testing.B, noBlockCache bool) {
		plat, err := board.Boot(board.Config{
			Seed:              1,
			DisableBlockCache: noBlockCache,
		})
		if err != nil {
			b.Fatal(err)
		}
		os := nwos.New(plat.Machine, plat.Monitor, plat.Monitor.NPages())
		img, err := kasm.HashShared(1).Image()
		if err != nil {
			b.Fatal(err)
		}
		enc, err := os.BuildEnclave(img)
		if err != nil {
			b.Fatal(err)
		}
		doc := make([]uint32, 1024) // 4 kB
		if err := os.WriteInsecure(enc.SharedPA[0], doc); err != nil {
			b.Fatal(err)
		}
		b.SetBytes(4096)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			retired := plat.Machine.Retired()
			if _, _, err := os.Enter(enc, 1024); err != nil {
				b.Fatal(err)
			}
			if i == b.N-1 {
				b.ReportMetric(float64(plat.Machine.Retired()-retired), "sim-insns/op")
			}
		}
	}
	b.Run("block-cache", func(b *testing.B) { run(b, false) })
	b.Run("no-block-cache", func(b *testing.B) { run(b, true) })
}

// BenchmarkRestore measures the golden-snapshot restore itself after one
// notary request's worth of dirtying: the delta path against a forced
// full copy of the same machine.
func BenchmarkRestore(b *testing.B) {
	boot := func(b *testing.B) (*board.Platform, *nwos.OS, *nwos.Enclave) {
		plat, err := board.Boot(board.Config{Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
		os := nwos.New(plat.Machine, plat.Monitor, plat.Monitor.NPages())
		img, err := kasm.NotaryGuest(1).Image()
		if err != nil {
			b.Fatal(err)
		}
		enc, err := os.BuildEnclave(img)
		if err != nil {
			b.Fatal(err)
		}
		return plat, os, enc
	}
	request := func(b *testing.B, os *nwos.OS, enc *nwos.Enclave) {
		if err := os.WriteInsecure(enc.SharedPA[0], make([]uint32, 64)); err != nil {
			b.Fatal(err)
		}
		if _, _, err := os.Enter(enc, 64); err != nil {
			b.Fatal(err)
		}
	}
	b.Run("delta", func(b *testing.B) {
		plat, os, enc := boot(b)
		golden := plat.Machine.Snapshot()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			request(b, os, enc)
			if err := plat.Machine.Restore(golden); err != nil {
				b.Fatal(err)
			}
		}
		rs := plat.Machine.Phys.RestoreStats()
		b.ReportMetric(float64(rs.LastWordsCopied), "words/restore")
	})
	b.Run("full", func(b *testing.B) {
		plat, os, enc := boot(b)
		// Boots are deterministic, so an identically-seeded twin's golden
		// snapshot is bit-identical — but foreign, so its generation stamp
		// is not comparable and every restore takes the full-copy path:
		// the pre-delta behaviour.
		twin, _, _ := boot(b)
		golden := twin.Machine.Snapshot()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			request(b, os, enc)
			if err := plat.Machine.Restore(golden); err != nil {
				b.Fatal(err)
			}
		}
		rs := plat.Machine.Phys.RestoreStats()
		b.ReportMetric(float64(rs.LastWordsCopied), "words/restore")
	})
}
