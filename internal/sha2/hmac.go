package sha2

import (
	"crypto/hmac"
	"crypto/sha256"
	"crypto/subtle"
	"encoding/binary"
)

// HMAC computes HMAC-SHA256(key, msg) per RFC 2104. Komodo's local
// attestation (§4) is a MAC over the attesting enclave's measurement and
// 32 bytes of enclave-supplied data, keyed by a boot-time secret.
func HMAC(key, msg []byte) [Size]byte {
	m := hmac.New(sha256.New, key)
	m.Write(msg)
	var out [Size]byte
	m.Sum(out[:0])
	return out
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
