package sha2

import (
	"crypto/hmac"
	"crypto/sha256"
	"crypto/subtle"
	"encoding/binary"
	"hash"
)

// HMAC computes HMAC-SHA256(key, msg) per RFC 2104. Komodo's local
// attestation (§4) is a MAC over the attesting enclave's measurement and
// 32 bytes of enclave-supplied data, keyed by a boot-time secret.
func HMAC(key, msg []byte) [Size]byte { return NewMAC(key).Sum(msg) }

// MAC is HMAC-SHA256 under one key, for callers that MAC many messages
// with it (the seal keystream runs one message per 8-word block). The key
// pads are absorbed once, by NewMAC; Reset starts the next message from
// the saved keyed state. Sum writes into a buffer the MAC owns and
// WriteWords stages words through another, so after the first message a
// MAC allocates nothing. Unlike Hash it holds a pointer: use it through
// the *MAC that NewMAC returns, and never store one where a copy of the
// value is expected to be independent.
type MAC struct {
	h     hash.Hash
	sum   [Size]byte
	words [BlockSize]byte
}

// NewMAC keys a MAC, ready for its first message.
func NewMAC(key []byte) *MAC { return &MAC{h: hmac.New(sha256.New, key)} }

// Reset discards the message written so far; the key stays.
func (m *MAC) Reset() { m.h.Reset() }

// Write absorbs p into the current message.
func (m *MAC) Write(p []byte) { m.h.Write(p) }

// WriteWords absorbs words in big-endian order, WordsToBytes's layout.
func (m *MAC) WriteWords(ws []uint32) {
	for len(ws) > 0 {
		n := min(len(ws), len(m.words)/4)
		for i, w := range ws[:n] {
			binary.BigEndian.PutUint32(m.words[4*i:], w)
		}
		m.h.Write(m.words[:4*n])
		ws = ws[n:]
	}
}

// Sum absorbs tail and returns the MAC of the message written since
// NewMAC or the last Reset. Call Reset before the next message.
func (m *MAC) Sum(tail []byte) [Size]byte {
	m.h.Write(tail)
	return [Size]byte(m.h.Sum(m.sum[:0]))
}

// HMACBlocks reports how many SHA-256 compressions an HMAC over msgLen
// bytes performs (inner hash over key block + message, outer hash over key
// block + inner digest). Used for cycle accounting of Attest/Verify.
func HMACBlocks(msgLen int) uint64 {
	return paddedBlocks(BlockSize+msgLen) + paddedBlocks(BlockSize+Size)
}

// paddedBlocks returns the number of 64-byte blocks SHA-256 processes for a
// message of n bytes, including the 0x80 byte and 8-byte length field.
func paddedBlocks(n int) uint64 {
	return uint64((n + 9 + BlockSize - 1) / BlockSize)
}

// WordsToBytes flattens big-endian words, the wire form of the u32[8]
// arguments in Table 1's Attest/Verify calls.
func WordsToBytes(ws []uint32) []byte {
	out := make([]byte, 4*len(ws))
	for i, w := range ws {
		binary.BigEndian.PutUint32(out[i*4:], w)
	}
	return out
}

// BytesToWords is the inverse of WordsToBytes; len(b) must be a multiple
// of 4.
func BytesToWords(b []byte) []uint32 {
	out := make([]uint32, len(b)/4)
	for i := range out {
		out[i] = binary.BigEndian.Uint32(b[i*4:])
	}
	return out
}

// Equal compares two MACs in constant time. Verify must not leak where the
// comparison diverges.
func Equal(a, b [Size]byte) bool {
	return subtle.ConstantTimeCompare(a[:], b[:]) == 1
}
