// Package sha2 is the monitor's SHA-256 (FIPS 180-4) and HMAC-SHA256
// (RFC 2104). The Komodo monitor uses SHA-256 for enclave measurement and
// HMAC-SHA256 for local attestation (§4, §7.2). The paper's prototype
// takes both from Vale's verified library rather than writing its own;
// likewise the compression function and HMAC here are the Go standard
// library's. What this package adds is the cycle model's view: Hash
// counts every compression it performs (Blocks), which the monitor
// charges as cycles.SHABlock, and it keeps its midstate in plain fields
// (Marshal/Unmarshal) so the monitor can store a running measurement in
// secure memory and the seal codec can encode it.
//
// The streaming API mirrors how the monitor consumes it: the measurement is
// a running hash extended by each page-allocation call (§4 "Attestation"),
// finalised when the enclave is finalised. The SHA-256 that runs inside
// enclaves is KARM assembly (internal/kasm), built from the constants
// exported here.
package sha2

import (
	"crypto/sha256"
	"encoding"
	"encoding/binary"
)

// Size is the length of a SHA-256 digest in bytes.
const Size = 32

// BlockSize is the SHA-256 compression block size in bytes.
const BlockSize = 64

// initial hash values: first 32 bits of the fractional parts of the square
// roots of the first 8 primes (FIPS 180-4 §5.3.3).
var initH = [8]uint32{
	0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a,
	0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19,
}

// round constants: first 32 bits of the fractional parts of the cube roots
// of the first 64 primes (FIPS 180-4 §4.2.2).
var k = [64]uint32{
	0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4, 0xab1c5ed5,
	0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174,
	0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
	0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967,
	0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85,
	0xa2bfe8a1, 0xa81a664b, 0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
	0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
	0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
}

// Hash is a streaming SHA-256 state. The zero value is not valid; use New.
// It holds no pointer, slice or interface, so assigning a Hash copies the
// running measurement: the spec, the PageDB clone and the seal codec all
// rely on that.
type Hash struct {
	h      [8]uint32
	buf    [BlockSize]byte
	nbuf   int
	length uint64 // total bytes written
	blocks uint64 // compression blocks processed (for cycle accounting)
}

// New returns a fresh SHA-256 state.
func New() *Hash {
	var s Hash
	s.Reset()
	return &s
}

// Reset restores the initial state.
func (s *Hash) Reset() {
	s.h = initH
	s.nbuf = 0
	s.length = 0
	s.blocks = 0
}

// Blocks reports how many 64-byte compressions have been performed,
// including those of Sum's padding. The monitor charges cycles per block.
func (s *Hash) Blocks() uint64 { return s.blocks }

// Write absorbs p into the hash state. It never fails.
//
// Every byte of the stream lands in buf at its offset mod BlockSize, so buf
// always holds the most recent BlockSize bytes in ring order. The monitor
// stores buf in secure memory and the seal image encodes it, so this layout
// is part of the measurement's observable state.
func (s *Hash) Write(p []byte) (int, error) {
	n := len(p)
	s.length += uint64(n)
	c := copy(s.buf[s.nbuf:], p)
	s.nbuf += c
	if s.nbuf < BlockSize {
		return n, nil
	}
	p = p[c:]
	body := p[:len(p)/BlockSize*BlockSize]
	s.compress(s.buf[:], body)
	if len(body) > 0 {
		copy(s.buf[:], body[len(body)-BlockSize:])
	}
	s.nbuf = copy(s.buf[:], p[len(body):])
	return n, nil
}

// WriteWords absorbs 32-bit words in big-endian order. The monitor hashes
// page contents and call arguments as words (the machine is word-addressed).
func (s *Hash) WriteWords(ws []uint32) {
	s.Write(WordsToBytes(ws))
}

// Sum finalises a copy of the state and returns the 32-byte digest.
// The receiver remains usable for further writes.
func (s *Hash) Sum() [Size]byte {
	t := *s // copy; padding must not disturb the running state
	var pad [BlockSize + 8]byte
	pad[0] = 0x80
	// pad to 56 mod 64, then append the 64-bit bit length.
	rem := int(t.length % BlockSize)
	n := 56 - rem
	if n <= 0 {
		n += BlockSize
	}
	binary.BigEndian.PutUint64(pad[n:], t.length*8)
	t.Write(pad[:n+8])
	var out [Size]byte
	for i, h := range t.h {
		binary.BigEndian.PutUint32(out[i*4:], h)
	}
	s.blocks = t.blocks // account padding blocks to the caller
	return out
}

// SumWords returns the digest as eight big-endian words, the form in which
// the monitor stores measurements in the PageDB and returns MACs (the
// Attest/Verify API of Table 1 traffics in u32[8]).
func (s *Hash) SumWords() [8]uint32 {
	d := s.Sum()
	var w [8]uint32
	for i := range w {
		w[i] = binary.BigEndian.Uint32(d[i*4:])
	}
	return w
}

// The standard library's SHA-256 BinaryMarshaler encoding is a 4-byte
// magic, the eight chaining words, a BlockSize buffer and the 64-bit byte
// count, all big-endian.
const (
	stdlibMagic     = "sha\x03"
	stdlibStateSize = len(stdlibMagic) + 8*4 + BlockSize + 8
)

// compress runs the SHA-256 compression function over whole blocks on the
// standard library's implementation and counts them. The chaining value
// goes in and comes back out through the library's binary encoding; its
// buffer and length are left zero, which no compression reads.
func (s *Hash) compress(blocks ...[]byte) {
	st := make([]byte, stdlibStateSize)
	copy(st, stdlibMagic)
	for i, v := range s.h {
		binary.BigEndian.PutUint32(st[len(stdlibMagic)+4*i:], v)
	}
	d := sha256.New()
	if err := d.(encoding.BinaryUnmarshaler).UnmarshalBinary(st); err != nil {
		panic("sha2: " + err.Error())
	}
	for _, b := range blocks {
		d.Write(b)
		s.blocks += uint64(len(b) / BlockSize)
	}
	st, _ = d.(encoding.BinaryMarshaler).MarshalBinary()
	for i := range s.h {
		s.h[i] = binary.BigEndian.Uint32(st[len(stdlibMagic)+4*i:])
	}
}

// InitialState returns the SHA-256 initial hash values; the KARM assembly
// implementation (internal/kasm) embeds them in enclave code.
func InitialState() [8]uint32 { return initH }

// RoundConstants returns the 64 SHA-256 round constants for the same
// purpose.
func RoundConstants() [64]uint32 { return k }

// Sum256 is a one-shot convenience.
func Sum256(p []byte) [Size]byte { return sha256.Sum256(p) }

// Marshal returns the internal chaining state and counters so the monitor
// can persist a running measurement inside an addrspace page (the concrete
// PageDB stores measurement state in secure memory words).
func (s *Hash) Marshal() (h [8]uint32, buf [BlockSize]byte, nbuf int, length uint64) {
	return s.h, s.buf, s.nbuf, s.length
}

// Unmarshal restores a state captured by Marshal.
func (s *Hash) Unmarshal(h [8]uint32, buf [BlockSize]byte, nbuf int, length uint64) {
	s.h, s.buf, s.nbuf, s.length = h, buf, nbuf, length
	s.blocks = 0
}
