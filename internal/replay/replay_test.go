package replay_test

import (
	"bytes"
	"reflect"
	"testing"

	"repro/internal/kasm"
	"repro/internal/replay"
	"repro/komodo"
)

// diffSeeds mirrors the committed blockdiff seed set (internal/arm): the
// lockstep replay differential runs the same determinism surface through
// the record/replay layer.
var diffSeeds = []int64{1, 2, 7, 42, 99, 1337, 2024, 31415, 0xC0FFEE, 0xD1FF}

func load(t testing.TB, sys *komodo.System, g kasm.Guest) *komodo.Enclave {
	t.Helper()
	nimg, err := g.Image()
	if err != nil {
		t.Fatal(err)
	}
	enc, err := sys.LoadEnclave(komodo.FromNWOSImage(nimg))
	if err != nil {
		t.Fatal(err)
	}
	return enc
}

// workload drives a representative mix of boundary traffic: construction
// SMCs, plain runs, an RNG draw, shared-memory I/O, an interrupt
// suspend/resume, and a teardown.
func workload(t testing.TB, sys *komodo.System) {
	t.Helper()
	adder := load(t, sys, kasm.AddArgs())
	if res, err := adder.Run(2, 3); err != nil || res.Value != 5 {
		t.Fatalf("adder: %v %+v", err, res)
	}

	rng := load(t, sys, kasm.GetRandom())
	if _, err := rng.Run(); err != nil {
		t.Fatalf("rng: %v", err)
	}

	echo := load(t, sys, kasm.SharedEcho())
	if err := echo.WriteShared(0, 0, []uint32{0x111}); err != nil {
		t.Fatal(err)
	}
	if res, err := echo.Run(0x222); err != nil || res.Value != 0x333 {
		t.Fatalf("echo: %v %+v", err, res)
	}
	if out, err := echo.ReadShared(0, 1, 1); err != nil || out[0] != 0x333 {
		t.Fatalf("echo shared: %v %v", err, out)
	}

	counter := load(t, sys, kasm.CountTo())
	sys.ScheduleInterrupt(50)
	if res, err := counter.Run(500); err != nil || res.Value != 500 {
		t.Fatalf("counter across IRQ: %v %+v", err, res)
	}

	if err := adder.Destroy(); err != nil {
		t.Fatalf("destroy: %v", err)
	}
}

func record(t testing.TB, seed uint64, opts ...komodo.Option) *replay.Trace {
	t.Helper()
	sys, err := komodo.New(append([]komodo.Option{komodo.WithSeed(seed)}, opts...)...)
	if err != nil {
		t.Fatal(err)
	}
	rec, err := replay.StartRecording(sys, "t-test", "test", nil)
	if err != nil {
		t.Fatal(err)
	}
	workload(t, sys)
	return rec.Stop()
}

func TestRecordReplayRoundTrip(t *testing.T) {
	trace := record(t, 42)
	if len(trace.Ops) == 0 {
		t.Fatal("no ops recorded")
	}
	res, err := replay.Replay(trace)
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Err(); err != nil {
		t.Fatalf("replay diverged:\n%s", replay.RenderResult(res))
	}
}

// TestLockstepDifferentialSeeds is the standing determinism check on the
// simulator's acceleration layers: a run recorded on an uncached
// interpreter must replay bit-identically with the superblock cache on or
// off, across the committed blockdiff seeds.
func TestLockstepDifferentialSeeds(t *testing.T) {
	if testing.Short() {
		t.Skip("lockstep differential is slow")
	}
	for _, seed := range diffSeeds {
		seed := uint64(seed)
		trace := record(t, seed, komodo.WithoutBlockCache())
		for _, mode := range []struct {
			name string
			mod  func(*komodo.BootConfig)
		}{
			{"as-recorded", func(*komodo.BootConfig) {}},
			{"block-cache-on", func(bc *komodo.BootConfig) { bc.NoBlockCache = false }},
			{"all-caches-off", func(bc *komodo.BootConfig) { bc.NoBlockCache = true }},
		} {
			res, err := replay.Replay(trace, mode.mod)
			if err != nil {
				t.Fatalf("seed %d %s: %v", seed, mode.name, err)
			}
			if !res.OK() {
				t.Fatalf("seed %d %s diverged:\n%s", seed, mode.name, replay.RenderResult(res))
			}
		}
	}
}

func TestTraceCodecRoundTrip(t *testing.T) {
	trace := record(t, 7)
	var buf bytes.Buffer
	if err := replay.WriteTrace(&buf, trace); err != nil {
		t.Fatal(err)
	}
	back, err := replay.ReadTrace(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(trace, back) {
		t.Fatal("decoded trace differs from original")
	}
	res, err := replay.Replay(back)
	if err != nil {
		t.Fatal(err)
	}
	if !res.OK() {
		t.Fatalf("decoded trace diverged:\n%s", replay.RenderResult(res))
	}
}

func TestReplayCountersFlow(t *testing.T) {
	rec0, rep0, div0 := replay.GlobalStats()
	trace := record(t, 9)
	if res, err := replay.Replay(trace); err != nil || !res.OK() {
		t.Fatalf("replay: %v", err)
	}
	rec1, rep1, div1 := replay.GlobalStats()
	if rec1 <= rec0 || rep1 <= rep0 {
		t.Fatalf("counters did not advance: %d→%d recorded, %d→%d replayed", rec0, rec1, rep0, rep1)
	}
	if div1 != div0 {
		t.Fatalf("unexpected divergence count %d→%d", div0, div1)
	}
}

// TestReplayDetectsTamper plants a divergence and requires the replayer to
// report it loudly.
func TestReplayDetectsTamper(t *testing.T) {
	trace := record(t, 11)
	// Find an SMC op with a value and corrupt its expectation.
	found := false
	for i := range trace.Ops {
		if trace.Ops[i].Kind == replay.OpSMC {
			trace.Ops[i].Val ^= 0xdead
			found = true
			break
		}
	}
	if !found {
		t.Fatal("no SMC op in trace")
	}
	res, err := replay.Replay(trace)
	if err != nil {
		t.Fatal(err)
	}
	if res.OK() {
		t.Fatal("tampered trace replayed clean")
	}
	_, _, div := replay.GlobalStats()
	if div == 0 {
		t.Fatal("diverged counter not incremented")
	}
}

// TestBaselineFastPath checks that repeated recordings through a shared
// Baseline still produce correct self-contained traces.
func TestBaselineFastPath(t *testing.T) {
	sys, err := komodo.New(komodo.WithSeed(21))
	if err != nil {
		t.Fatal(err)
	}
	var base replay.Baseline
	for round := 0; round < 3; round++ {
		rec, err := replay.StartRecording(sys, "t-base", "test", &base)
		if err != nil {
			t.Fatal(err)
		}
		adder := load(t, sys, kasm.AddArgs())
		if res, err := adder.Run(uint32(round), 10); err != nil || res.Value != uint32(round)+10 {
			t.Fatalf("round %d: %v %+v", round, err, res)
		}
		trace := rec.Stop()
		res, err := replay.Replay(trace)
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		if !res.OK() {
			t.Fatalf("round %d diverged:\n%s", round, replay.RenderResult(res))
		}
		if err := adder.Destroy(); err != nil {
			t.Fatal(err)
		}
	}
}
