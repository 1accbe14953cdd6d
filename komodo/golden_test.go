package komodo_test

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"repro/internal/eval"
	"repro/internal/kasm"
	"repro/internal/sha2"
	"repro/komodo"
)

// The simulated cycle model and the seal format are deterministic: the
// same seed and guest yield the same charged cycles and the same blob
// bytes. These goldens pin them, so a change to a host-side primitive
// (SHA-256, the seal codec, the monitor's charging) that shifts any
// simulated figure fails here rather than in a hand-run comparison.

// TestGoldenTable3Cycles pins the Cycles column of `komodo-bench -table3`.
func TestGoldenTable3Cycles(t *testing.T) {
	want := []struct {
		op     string
		cycles uint64
	}{
		{"GetPhysPages", 121},
		{"Enter + Exit", 795},
		{"Enter", 538},
		{"Resume", 665},
		{"Attest", 12401},
		{"Verify", 12613},
		{"AllocSpare", 151},
		{"MapData", 5755},
	}
	rows, err := eval.Table3()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(want) {
		t.Fatalf("Table 3 has %d rows, want %d", len(rows), len(want))
	}
	for i, r := range rows {
		if r.Operation != want[i].op || r.Cycles != want[i].cycles {
			t.Errorf("row %d = %s %d cycles, want %s %d", i, r.Operation, r.Cycles, want[i].op, want[i].cycles)
		}
	}
}

// TestGoldenNotaryCheckpoint pins the seed-7 notary enclave's load,
// checkpoint and restore cycle costs (the latter two are what
// BenchmarkCheckpoint and BenchmarkRestore report) and the SHA-256 of its
// sealed blob. Loading charges one SHABlock per measured compression, and
// the blob carries the running measurement's midstate, so both pin the
// host SHA-256's block accounting and buffer layout.
func TestGoldenNotaryCheckpoint(t *testing.T) {
	sys, err := komodo.New(komodo.WithSeed(7))
	if err != nil {
		t.Fatal(err)
	}
	img, err := kasm.NotaryGuest(1).Image()
	if err != nil {
		t.Fatal(err)
	}
	const (
		wantLoad    = 277391
		wantCkpt    = 1141467
		wantRestore = 1184067
		wantBlob    = "7fd3d9cbf597aa0a5683b145d2aa075c8d6eaceda0cb1d15b209669f2b21779e"
	)
	start := sys.Cycles()
	enc, err := sys.LoadEnclave(komodo.FromNWOSImage(img))
	if err != nil {
		t.Fatal(err)
	}
	c0 := sys.Cycles()
	ckpt, err := sys.CheckpointEnclave(enc)
	if err != nil {
		t.Fatal(err)
	}
	c1 := sys.Cycles()
	if _, err := sys.RestoreEnclave(ckpt); err != nil {
		t.Fatal(err)
	}
	c2 := sys.Cycles()
	if got := c0 - start; got != wantLoad {
		t.Errorf("load = %d cycles, want %d", got, wantLoad)
	}
	if got := c1 - c0; got != wantCkpt {
		t.Errorf("checkpoint = %d cycles, want %d", got, wantCkpt)
	}
	if got := c2 - c1; got != wantRestore {
		t.Errorf("restore = %d cycles, want %d", got, wantRestore)
	}
	d := sha256.Sum256(sha2.WordsToBytes(ckpt.Blob))
	if got := hex.EncodeToString(d[:]); got != wantBlob {
		t.Errorf("blob SHA-256 = %s, want %s", got, wantBlob)
	}
}
