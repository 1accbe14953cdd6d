package sha2

import (
	"bytes"
	"crypto/hmac"
	"crypto/rand"
	"crypto/sha256"
	"encoding/hex"
	"strings"
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

// TestMACVectorsRFC4231 runs the keyed MAC over RFC 4231 test cases 1, 2,
// 3 and 6 (test case 6 has a 131-byte key, which HMAC pre-hashes) and
// compares each against crypto/hmac too.
func TestMACVectorsRFC4231(t *testing.T) {
	cases := []struct {
		key, data, want string // all hex
	}{
		{"0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b", hex.EncodeToString([]byte("Hi There")),
			"b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7"},
		{"4a656665", hex.EncodeToString([]byte("what do ya want for nothing?")),
			"5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843"},
		{strings.Repeat("aa", 20), strings.Repeat("dd", 50),
			"773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe"},
		{strings.Repeat("aa", 131), hex.EncodeToString([]byte("Test Using Larger Than Block-Size Key - Hash Key First")),
			"60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54"},
	}
	for i, c := range cases {
		key, _ := hex.DecodeString(c.key)
		data, _ := hex.DecodeString(c.data)
		m := NewMAC(key)
		got := m.Sum(data)
		if hex.EncodeToString(got[:]) != c.want {
			t.Errorf("case %d: MAC = %x, want %s", i, got, c.want)
		}
		std := hmac.New(sha256.New, key)
		std.Write(data)
		if !bytes.Equal(got[:], std.Sum(nil)) {
			t.Errorf("case %d: MAC differs from crypto/hmac", i)
		}
		// The same MAC, reset, must give the same tag again.
		m.Reset()
		m.Write(data)
		if again := m.Sum(nil); again != got {
			t.Errorf("case %d: MAC after Reset = %x, want %x", i, again, got)
		}
	}
}

// TestMACManyMessagesOneKey: one keyed MAC, reset between messages of
// every length 0…300 (written whole, byte by byte, or as words), must
// equal a freshly keyed crypto/hmac on each, for a short and a long key.
func TestMACManyMessagesOneKey(t *testing.T) {
	for _, key := range [][]byte{[]byte("seal key"), bytes.Repeat([]byte{0x5c}, 100)} {
		m := NewMAC(key)
		msg := make([]byte, 300)
		for i := range msg {
			msg[i] = byte(i*7 + 1)
		}
		for n := 0; n <= len(msg); n++ {
			std := hmac.New(sha256.New, key)
			std.Write(msg[:n])
			want := std.Sum(nil)

			m.Reset()
			if got := m.Sum(msg[:n]); !bytes.Equal(got[:], want) {
				t.Fatalf("key %d bytes, len %d: whole-message MAC mismatch", len(key), n)
			}
			m.Reset()
			for _, b := range msg[:n] {
				m.Write([]byte{b})
			}
			if got := m.Sum(nil); !bytes.Equal(got[:], want) {
				t.Fatalf("key %d bytes, len %d: byte-at-a-time MAC mismatch", len(key), n)
			}
			if n%4 == 0 {
				m.Reset()
				m.WriteWords(BytesToWords(msg[:n]))
				if got := m.Sum(nil); !bytes.Equal(got[:], want) {
					t.Fatalf("key %d bytes, len %d: WriteWords MAC mismatch", len(key), n)
				}
			}
		}
	}
}

// TestMACBlockAllocatesNothing: after its first message, one keystream
// block (Reset, 12-byte message, Sum) allocates nothing, and neither
// does WriteWords over more than a block of words.
func TestMACBlockAllocatesNothing(t *testing.T) {
	m := NewMAC(make([]byte, 32))
	var block [12]byte
	words := make([]uint32, 40)
	m.Reset()
	m.Sum(block[:])
	if n := testing.AllocsPerRun(100, func() {
		m.Reset()
		block[11]++
		m.Sum(block[:])
	}); n != 0 {
		t.Fatalf("MAC block allocated %v objects/op, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() {
		m.Reset()
		m.WriteWords(words)
		m.Sum(nil)
	}); n != 0 {
		t.Fatalf("MAC over %d words allocated %v objects/op, want 0", len(words), n)
	}
}

func BenchmarkMACBlock(b *testing.B) {
	m := NewMAC(make([]byte, 32))
	var block [12]byte
	m.Reset() // the first Reset saves the keyed state; time the steady state
	m.Sum(block[:])
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Reset()
		m.Sum(block[:])
	}
}
