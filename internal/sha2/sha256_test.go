package sha2

import (
	"bytes"
	"crypto/hmac"
	"crypto/rand"
	"crypto/sha256"
	"encoding/hex"
	"testing"
	"testing/quick"
)

// FIPS 180-4 / NIST CAVP known-answer vectors.
var katVectors = []struct {
	in  string
	out string
}{
	{"", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"},
	{"abc", "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"},
	{"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
		"248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"},
	{"abcdefghbcdefghicdefghijdefghijkefghijklfghijklmghijklmnhijklmnoijklmnopjklmnopqklmnopqrlmnopqrsmnopqrstnopqrstu",
		"cf5b16a778af8380036ce59e7b0492370b249b11e8f07a51afac45037afee9d1"},
}

func TestKnownAnswers(t *testing.T) {
	for _, v := range katVectors {
		got := Sum256([]byte(v.in))
		if hex.EncodeToString(got[:]) != v.out {
			t.Errorf("Sum256(%q) = %x, want %s", v.in, got, v.out)
		}
	}
}

func TestMillionA(t *testing.T) {
	// FIPS 180-4 long vector: 1,000,000 repetitions of 'a'.
	s := New()
	chunk := bytes.Repeat([]byte{'a'}, 1000)
	for i := 0; i < 1000; i++ {
		s.Write(chunk)
	}
	got := s.Sum()
	const want = "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"
	if hex.EncodeToString(got[:]) != want {
		t.Errorf("million-a digest = %x, want %s", got, want)
	}
}

func TestMatchesStdlibOnSplits(t *testing.T) {
	// Stream the same input in many different chunkings; all must agree
	// with the stdlib one-shot digest.
	msg := make([]byte, 300)
	for i := range msg {
		msg[i] = byte(i * 7)
	}
	want := sha256.Sum256(msg)
	for split := 0; split <= len(msg); split += 13 {
		s := New()
		s.Write(msg[:split])
		s.Write(msg[split:])
		if got := s.Sum(); got != want {
			t.Fatalf("split %d: got %x want %x", split, got, want)
		}
	}
}

func TestSumDoesNotDisturbState(t *testing.T) {
	s := New()
	s.Write([]byte("hello "))
	mid := s.Sum()
	again := s.Sum()
	if mid != again {
		t.Fatalf("repeated Sum differs: %x vs %x", mid, again)
	}
	s.Write([]byte("world"))
	if got, want := s.Sum(), sha256.Sum256([]byte("hello world")); got != [Size]byte(want) {
		t.Fatalf("continue-after-Sum digest = %x, want %x", got, want)
	}
}

func TestPropertyMatchesStdlib(t *testing.T) {
	f := func(msg []byte) bool {
		return Sum256(msg) == sha256.Sum256(msg)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestWriteWords(t *testing.T) {
	s := New()
	s.WriteWords([]uint32{0x61626364, 0x65666768}) // "abcdefgh"
	want := sha256.Sum256([]byte("abcdefgh"))
	if got := s.Sum(); got != [Size]byte(want) {
		t.Fatalf("WriteWords digest = %x, want %x", got, want)
	}
}

func TestSumWords(t *testing.T) {
	s := New()
	s.Write([]byte("abc"))
	w := s.SumWords()
	if w[0] != 0xba7816bf || w[7] != 0xf20015ad {
		t.Fatalf("SumWords = %08x ... %08x", w[0], w[7])
	}
}

func TestMarshalRoundTrip(t *testing.T) {
	s := New()
	s.Write([]byte("the monitor persists this measurement mid-stream"))
	h, buf, nbuf, length := s.Marshal()
	var r Hash
	r.Unmarshal(h, buf, nbuf, length)
	r.Write([]byte(" and continues"))
	s.Write([]byte(" and continues"))
	if r.Sum() != s.Sum() {
		t.Fatal("restored state diverged from original")
	}
}

// TestBlocksAccounting pins the compression count the monitor charges
// cycles for: n/64 blocks after writing n bytes, paddedBlocks(n) after
// Sum, however the bytes were fed in. A restored state counts only the
// blocks compressed since Unmarshal. Every feeding must also leave the
// same midstate (buf included: the monitor stores it in secure memory).
func TestBlocksAccounting(t *testing.T) {
	feeds := []struct {
		name string
		feed func(msg []byte) (s *Hash, before uint64)
	}{
		{"one-shot", func(msg []byte) (*Hash, uint64) {
			s := New()
			s.Write(msg)
			return s, 0
		}},
		{"bytewise", func(msg []byte) (*Hash, uint64) {
			s := New()
			for i := range msg {
				s.Write(msg[i : i+1])
			}
			return s, 0
		}},
		{"words", func(msg []byte) (*Hash, uint64) {
			half, whole := len(msg)/2&^3, len(msg)&^3
			s := New()
			s.WriteWords(BytesToWords(msg[:half]))
			s.WriteWords(BytesToWords(msg[half:whole]))
			s.Write(msg[whole:])
			return s, 0
		}},
		{"restored", func(msg []byte) (*Hash, uint64) {
			half := len(msg) / 2
			s := New()
			s.Write(msg[:half])
			var r Hash
			r.Unmarshal(s.Marshal())
			r.Write(msg[half:])
			return &r, uint64(half / BlockSize)
		}},
	}
	msg := make([]byte, 200)
	for i := range msg {
		msg[i] = byte(i*31 + 7)
	}
	for n := 0; n <= len(msg); n++ {
		ref := New()
		for i := 0; i < n; i++ {
			ref.Write(msg[i : i+1])
		}
		for _, f := range feeds {
			s, before := f.feed(msg[:n])
			if got, want := s.Blocks(), uint64(n/BlockSize)-before; got != want {
				t.Errorf("%s n=%d: Blocks() = %d before Sum, want %d", f.name, n, got, want)
			}
			h, buf, nbuf, length := s.Marshal()
			rh, rbuf, rnbuf, rlength := ref.Marshal()
			if h != rh || buf != rbuf || nbuf != rnbuf || length != rlength {
				t.Errorf("%s n=%d: midstate differs from byte-at-a-time", f.name, n)
			}
			if got, want := s.Sum(), sha256.Sum256(msg[:n]); got != [Size]byte(want) {
				t.Errorf("%s n=%d: digest = %x, want %x", f.name, n, got, want)
			}
			if got, want := s.Blocks(), paddedBlocks(n)-before; got != want {
				t.Errorf("%s n=%d: Blocks() = %d after Sum, want %d", f.name, n, got, want)
			}
		}
	}
}

func TestHMACVectorsRFC4231(t *testing.T) {
	cases := []struct {
		key, data, want string // hex key, ascii data unless noted
	}{
		// RFC 4231 test case 1.
		{"0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b", "Hi There",
			"b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7"},
		// RFC 4231 test case 2.
		{"4a656665", "what do ya want for nothing?",
			"5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843"},
	}
	for i, c := range cases {
		key, _ := hex.DecodeString(c.key)
		got := HMAC(key, []byte(c.data))
		if hex.EncodeToString(got[:]) != c.want {
			t.Errorf("case %d: HMAC = %x, want %s", i+1, got, c.want)
		}
	}
}

func TestHMACMatchesStdlib(t *testing.T) {
	f := func(key, msg []byte) bool {
		m := hmac.New(sha256.New, key)
		m.Write(msg)
		want := m.Sum(nil)
		got := HMAC(key, msg)
		return bytes.Equal(got[:], want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestHMACLongKey(t *testing.T) {
	key := bytes.Repeat([]byte{0xaa}, 131) // longer than block: must be pre-hashed
	m := hmac.New(sha256.New, key)
	m.Write([]byte("x"))
	want := m.Sum(nil)
	got := HMAC(key, []byte("x"))
	if !bytes.Equal(got[:], want) {
		t.Fatalf("long-key HMAC mismatch: %x vs %x", got, want)
	}
}

func TestHMACBlocks(t *testing.T) {
	// Attestation message is measurement(32) + data(32) = 64 bytes:
	// inner = 1 key block + 64B msg + padding block = 3; outer = 2.
	if got := HMACBlocks(64); got != 5 {
		t.Fatalf("HMACBlocks(64) = %d, want 5", got)
	}
	if got := HMACBlocks(0); got != 4 {
		t.Fatalf("HMACBlocks(0) = %d, want 4", got)
	}
}

func TestWordBytesRoundTrip(t *testing.T) {
	f := func(ws []uint32) bool {
		b := WordsToBytes(ws)
		back := BytesToWords(b)
		if len(back) != len(ws) {
			return false
		}
		for i := range ws {
			if back[i] != ws[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestEqualConstantTime(t *testing.T) {
	var a, b [Size]byte
	rand.Read(a[:])
	b = a
	if !Equal(a, b) {
		t.Fatal("Equal(a, a) = false")
	}
	b[31] ^= 1
	if Equal(a, b) {
		t.Fatal("Equal on differing MACs = true")
	}
}

func BenchmarkSHA256_4k(b *testing.B) {
	buf := make([]byte, 4096)
	b.SetBytes(4096)
	for i := 0; i < b.N; i++ {
		Sum256(buf)
	}
}

func BenchmarkHMAC64(b *testing.B) {
	key := make([]byte, 32)
	msg := make([]byte, 64)
	for i := 0; i < b.N; i++ {
		HMAC(key, msg)
	}
}
