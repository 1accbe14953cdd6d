package komodo_test

import (
	"testing"

	"repro/internal/kasm"
	"repro/komodo"
)

// TestCheckpointRoundTrip: checkpoint → marshal → unmarshal → restore on
// a second identically-keyed system, then run the migrated enclave.
func TestCheckpointRoundTrip(t *testing.T) {
	sys, err := komodo.New(komodo.WithSeed(77), komodo.WithRefinementChecking())
	if err != nil {
		t.Fatal(err)
	}
	img, err := kasm.AddArgs().Image()
	if err != nil {
		t.Fatal(err)
	}
	enc, err := sys.LoadEnclave(komodo.FromNWOSImage(img))
	if err != nil {
		t.Fatal(err)
	}
	ckpt, err := sys.CheckpointEnclave(enc)
	if err != nil {
		t.Fatal(err)
	}
	data, err := ckpt.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	back, err := komodo.UnmarshalCheckpoint(data)
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Blob) != len(ckpt.Blob) || back.Manifest.NumPages != ckpt.Manifest.NumPages {
		t.Fatalf("round-trip mangled checkpoint: %d/%d words, %d/%d pages",
			len(back.Blob), len(ckpt.Blob), back.Manifest.NumPages, ckpt.Manifest.NumPages)
	}

	peer, err := komodo.New(komodo.WithSeed(77), komodo.WithRefinementChecking())
	if err != nil {
		t.Fatal(err)
	}
	clone, err := peer.RestoreEnclave(back)
	if err != nil {
		t.Fatal(err)
	}
	res, err := clone.Run(20, 22)
	if err != nil {
		t.Fatal(err)
	}
	if res.Value != 42 {
		t.Fatalf("migrated enclave returned %d", res.Value)
	}

	// A system with a different boot secret must reject the blob.
	alien, err := komodo.New(komodo.WithSeed(78))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := alien.RestoreEnclave(back); err == nil {
		t.Fatal("restore on a differently-keyed system succeeded")
	}
}

// BenchmarkCheckpoint measures sealing the §8.2 notary enclave (7 secure
// pages) into a portable checkpoint: wall time per op plus the monitor's
// charged cycle cost and the blob size as custom metrics.
func BenchmarkCheckpoint(b *testing.B) {
	sys, err := komodo.New(komodo.WithSeed(7))
	if err != nil {
		b.Fatal(err)
	}
	img, err := kasm.NotaryGuest(1).Image()
	if err != nil {
		b.Fatal(err)
	}
	enc, err := sys.LoadEnclave(komodo.FromNWOSImage(img))
	if err != nil {
		b.Fatal(err)
	}
	var blobWords int
	start := sys.Cycles()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ckpt, err := sys.CheckpointEnclave(enc)
		if err != nil {
			b.Fatal(err)
		}
		blobWords = len(ckpt.Blob)
	}
	b.StopTimer()
	b.ReportMetric(float64(sys.Cycles()-start)/float64(b.N), "cycles/op")
	b.ReportMetric(float64(blobWords*4), "blob-bytes")
}

// BenchmarkRestore measures instantiating that checkpoint back onto the
// same board (restore + destroy per op, so pages do not accumulate).
func BenchmarkRestore(b *testing.B) {
	sys, err := komodo.New(komodo.WithSeed(7))
	if err != nil {
		b.Fatal(err)
	}
	img, err := kasm.NotaryGuest(1).Image()
	if err != nil {
		b.Fatal(err)
	}
	enc, err := sys.LoadEnclave(komodo.FromNWOSImage(img))
	if err != nil {
		b.Fatal(err)
	}
	ckpt, err := sys.CheckpointEnclave(enc)
	if err != nil {
		b.Fatal(err)
	}
	var cyc uint64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c0 := sys.Cycles()
		clone, err := sys.RestoreEnclave(ckpt)
		if err != nil {
			b.Fatal(err)
		}
		cyc += sys.Cycles() - c0 // restore only; destroy is excluded below
		b.StopTimer()
		if err := clone.Destroy(); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
	}
	b.StopTimer()
	b.ReportMetric(float64(cyc)/float64(b.N), "cycles/op")
}

func TestUnmarshalRejectsGarbage(t *testing.T) {
	for _, bad := range []string{
		"",
		"not json",
		`{"version":2,"manifest":{},"blob":""}`,
		`{"version":1,"manifest":{},"blob":"!!!"}`,
	} {
		if _, err := komodo.UnmarshalCheckpoint([]byte(bad)); err == nil {
			t.Fatalf("accepted %q", bad)
		}
	}
}
