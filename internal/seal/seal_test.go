package seal

import (
	"testing"
)

var (
	testRoot = DeriveRoot([32]byte{1, 2, 3})
	testMeas = [8]uint32{0x11, 0x22, 0x33, 0x44, 0x55, 0x66, 0x77, 0x88}
)

func sealed(t *testing.T, payload []uint32) []uint32 {
	t.Helper()
	key := DeriveKey(testRoot, testMeas)
	return Seal(key, [2]uint32{7, 9}, KindCheckpoint, testMeas, payload)
}

func TestSealOpenRoundTrip(t *testing.T) {
	payload := make([]uint32, 100)
	for i := range payload {
		payload[i] = uint32(i * 3)
	}
	blob := sealed(t, payload)
	if len(blob) != len(payload)+OverheadWords {
		t.Fatalf("blob length %d, want %d", len(blob), len(payload)+OverheadWords)
	}
	hdr, got, err := Open(testRoot, blob)
	if err != nil {
		t.Fatal(err)
	}
	if hdr.Kind != KindCheckpoint || hdr.Measurement != testMeas || hdr.PayloadLen != len(payload) {
		t.Fatalf("header = %+v", hdr)
	}
	if len(got) != len(payload) {
		t.Fatalf("payload length %d", len(got))
	}
	for i := range got {
		if got[i] != payload[i] {
			t.Fatalf("payload word %d: got %#x want %#x", i, got[i], payload[i])
		}
	}
}

func TestCiphertextHidesPayload(t *testing.T) {
	payload := []uint32{0xdeadbeef, 0xdeadbeef, 0xdeadbeef, 0xdeadbeef}
	blob := sealed(t, payload)
	for i := HeaderWords; i < len(blob)-TagWords; i++ {
		if blob[i] == 0xdeadbeef {
			t.Fatalf("ciphertext word %d leaks plaintext", i)
		}
	}
	// Distinct nonces must give distinct ciphertexts for the same payload.
	key := DeriveKey(testRoot, testMeas)
	other := Seal(key, [2]uint32{8, 9}, KindCheckpoint, testMeas, payload)
	same := true
	for i := HeaderWords; i < len(blob)-TagWords; i++ {
		if blob[i] != other[i] {
			same = false
		}
	}
	if same {
		t.Fatal("nonce change did not change ciphertext")
	}
}

// TestTamperEveryWordFailsClosed is the exhaustive integrity check: any
// single-bit flip anywhere in the blob — header, measurement, nonce,
// ciphertext, or tag — must make Open fail.
func TestTamperEveryWordFailsClosed(t *testing.T) {
	payload := []uint32{1, 2, 3, 4, 5}
	blob := sealed(t, payload)
	for i := range blob {
		for _, bit := range []uint32{1, 1 << 16, 1 << 31} {
			mut := append([]uint32(nil), blob...)
			mut[i] ^= bit
			if _, _, err := Open(testRoot, mut); err == nil {
				t.Fatalf("tampered word %d (bit %#x) opened successfully", i, bit)
			}
		}
	}
}

func TestWrongKeyFailsClosed(t *testing.T) {
	blob := sealed(t, []uint32{42})
	if _, _, err := Open(DeriveRoot([32]byte{9}), blob); err != ErrAuth {
		t.Fatalf("wrong root: err = %v, want ErrAuth", err)
	}
	// A key derived under a different measurement must also fail, even
	// when the header still carries the original measurement.
	otherKey := DeriveKey(testRoot, [8]uint32{0xbad})
	if _, _, err := OpenWithKey(otherKey, blob); err != ErrAuth {
		t.Fatalf("wrong measurement key: err = %v, want ErrAuth", err)
	}
}

func TestTruncationFailsClosed(t *testing.T) {
	blob := sealed(t, []uint32{1, 2, 3})
	for n := 0; n < len(blob); n++ {
		if _, _, err := Open(testRoot, blob[:n]); err == nil {
			t.Fatalf("truncation to %d words opened successfully", n)
		}
	}
	if _, _, err := Open(testRoot, append(append([]uint32(nil), blob...), 0)); err == nil {
		t.Fatal("extended blob opened successfully")
	}
}

func TestKeySeparation(t *testing.T) {
	k1 := DeriveKey(testRoot, testMeas)
	k2 := DeriveKey(testRoot, [8]uint32{0x11, 0x22, 0x33, 0x44, 0x55, 0x66, 0x77, 0x89})
	if k1 == k2 {
		t.Fatal("distinct measurements derived the same key")
	}
	r2 := DeriveRoot([32]byte{1, 2, 4})
	if DeriveKey(r2, testMeas) == k1 {
		t.Fatal("distinct roots derived the same key")
	}
}

// FuzzOpen drives Open with arbitrary mutations of a valid blob plus
// arbitrary garbage: it must never return a payload that differs from
// the original under the correct key, and never succeed under a wrong
// key. This is the fail-closed property of docs/SEALING.md.
func FuzzOpen(f *testing.F) {
	payload := []uint32{0xa, 0xb, 0xc, 0xd}
	key := DeriveKey(testRoot, testMeas)
	blob := Seal(key, [2]uint32{3, 5}, KindCheckpoint, testMeas, payload)
	f.Add(0, uint32(0), false)
	f.Add(5, uint32(1<<13), true)
	f.Fuzz(func(t *testing.T, idx int, flip uint32, wrongKey bool) {
		mut := append([]uint32(nil), blob...)
		tampered := false
		if idx >= 0 && idx < len(mut) && flip != 0 {
			mut[idx] ^= flip
			tampered = true
		}
		root := testRoot
		if wrongKey {
			root = DeriveRoot([32]byte{0xff})
		}
		_, got, err := Open(root, mut)
		if err != nil {
			return // fail-closed is always acceptable
		}
		if tampered || wrongKey {
			t.Fatalf("tampered=%v wrongKey=%v but Open succeeded", tampered, wrongKey)
		}
		for i := range payload {
			if got[i] != payload[i] {
				t.Fatalf("payload corrupted at %d", i)
			}
		}
	})
}

// priorBlob was sealed by the per-block-keyed implementation this
// package had before the keystream MAC was keyed once per seal: testRoot,
// testMeas, nonce {7, 9}, payload word i = i*0x01010101 for i < 20. The
// construction is unchanged, so it must still open to the same payload.
var priorBlob = []uint32{
	0x4b534c42, 0x00000001, 0x00000001, 0x00000014, 0x00000011, 0x00000022,
	0x00000033, 0x00000044, 0x00000055, 0x00000066, 0x00000077, 0x00000088,
	0x00000007, 0x00000009, 0xc4f1f296, 0xb481b724, 0x3e935434, 0xedb8a71c,
	0xa0f09a77, 0x0b373880, 0x4b911986, 0x88d3ad05, 0x35f53c2f, 0xf67bfec5,
	0xd78bfc60, 0x8c1216b0, 0x55a7cd5c, 0x8aab1a5e, 0x8c1e1c23, 0x1ffd4fc9,
	0xedaf868c, 0x2a1eb958, 0x85322f86, 0x78b30de2, 0x7fff4283, 0x660dd3e5,
	0xfc4b215b, 0x9d40ed42, 0x526cab50, 0xd9a6c736, 0xd49958bb, 0x4262f002,
}

func TestPriorBlobOpensAndReseals(t *testing.T) {
	_, got, err := Open(testRoot, priorBlob)
	if err != nil {
		t.Fatalf("blob sealed by the earlier implementation: %v", err)
	}
	payload := make([]uint32, 20)
	for i := range payload {
		payload[i] = uint32(i) * 0x01010101
	}
	for i := range payload {
		if got[i] != payload[i] {
			t.Fatalf("payload word %d: got %#x want %#x", i, got[i], payload[i])
		}
	}
	again := sealed(t, payload)
	for i := range priorBlob {
		if again[i] != priorBlob[i] {
			t.Fatalf("re-sealed blob word %d: %#x, earlier implementation sealed %#x", i, again[i], priorBlob[i])
		}
	}
}

// TestAllocsIndependentOfPayload: Seal and Open allocate a fixed number
// of objects — the blob or payload itself plus the keyed MACs — however
// many keystream blocks the payload takes. A per-block MAC (or a
// per-block byte conversion) would make the count grow with length.
func TestAllocsIndependentOfPayload(t *testing.T) {
	key := DeriveKey(testRoot, testMeas)
	allocs := func(n int) (seal, open float64) {
		payload := make([]uint32, n)
		blob := Seal(key, [2]uint32{1, 2}, KindCheckpoint, testMeas, payload)
		seal = testing.AllocsPerRun(20, func() {
			Seal(key, [2]uint32{1, 2}, KindCheckpoint, testMeas, payload)
		})
		open = testing.AllocsPerRun(20, func() {
			if _, _, err := OpenWithKey(key, blob); err != nil {
				t.Fatal(err)
			}
		})
		return seal, open
	}
	// 6,505 words is the notary checkpoint payload (814 keystream blocks).
	sealSmall, openSmall := allocs(8)
	sealLarge, openLarge := allocs(6505)
	if sealLarge != sealSmall || openLarge != openSmall {
		t.Fatalf("allocs/op grow with payload: Seal %v → %v, Open %v → %v (8 → 6,505 words)",
			sealSmall, sealLarge, openSmall, openLarge)
	}
}
