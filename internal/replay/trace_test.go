package replay_test

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"io"
	"reflect"
	"testing"

	"repro/internal/replay"
)

// encodedTrace returns a small recorded trace in wire form.
func encodedTrace(t testing.TB) []byte {
	t.Helper()
	trace := record(t, 5)
	var buf bytes.Buffer
	if err := replay.WriteTrace(&buf, trace); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestTraceTruncationFailsClosed: every strict prefix of a valid trace must
// be rejected (sampled — whole-byte sweep over megabytes is too slow).
func TestTraceTruncationFailsClosed(t *testing.T) {
	raw := encodedTrace(t)
	cuts := []int{0, 1, 3, 4, 7, 8, 11, 12, 16, 32}
	for n := 64; n < len(raw); n += len(raw)/37 + 1 {
		cuts = append(cuts, n)
	}
	cuts = append(cuts, len(raw)-1)
	for _, n := range cuts {
		if n >= len(raw) {
			continue
		}
		if _, err := replay.ReadTrace(bytes.NewReader(raw[:n])); err == nil {
			t.Fatalf("truncation at %d/%d bytes accepted", n, len(raw))
		}
	}
	// Trailing garbage after the End frame is also rejected.
	if _, err := replay.ReadTrace(bytes.NewReader(append(append([]byte{}, raw...), 0))); err == nil {
		t.Fatal("trailing byte after End frame accepted")
	}
}

// TestTraceTamperFailsClosed: single-byte corruption anywhere must be caught
// by the CRC framing (or the preamble check). Sampled byte positions.
func TestTraceTamperFailsClosed(t *testing.T) {
	raw := encodedTrace(t)
	positions := []int{}
	for i := 0; i < len(raw) && i < 64; i++ {
		positions = append(positions, i)
	}
	for i := 64; i < len(raw); i += 1009 {
		positions = append(positions, i)
	}
	for i := len(raw) - 64; i < len(raw); i++ {
		if i >= 64 {
			positions = append(positions, i)
		}
	}
	for _, pos := range positions {
		mut := append([]byte{}, raw...)
		mut[pos] ^= 0x40
		tr, err := replay.ReadTrace(bytes.NewReader(mut))
		if err == nil {
			t.Fatalf("flipped byte %d/%d accepted", pos, len(raw))
		}
		if tr != nil {
			t.Fatalf("flipped byte %d returned a trace alongside the error", pos)
		}
		if !errors.Is(err, replay.ErrBadTrace) && !errors.Is(err, io.ErrUnexpectedEOF) && !errors.Is(err, io.EOF) {
			t.Fatalf("flipped byte %d: unexpected error class %v", pos, err)
		}
	}
}

// setBootFlags returns a copy of an encoded trace with boot-flag bits
// ORed into its header frame, re-CRCed so only the header decoder can
// object. Layout: magic+version (8), frame length+CRC (8), then the
// payload: frame type (1), seed (8), protection (1), flags.
func setBootFlags(raw []byte, bits byte) []byte {
	const frameStart, flagsOff = 8, 8 + 8 + 1 + 8 + 1
	mut := append([]byte{}, raw...)
	mut[flagsOff] |= bits
	n := binary.LittleEndian.Uint32(mut[frameStart:])
	payload := mut[frameStart+8 : frameStart+8+int(n)]
	binary.LittleEndian.PutUint32(mut[frameStart+4:], crc32.ChecksumIEEE(payload))
	return mut
}

// TestTraceHeaderBootFlags: the reserved boot-flag bit 3 (once the
// switch for a removed, semantically invisible interpreter cache) is
// accepted and ignored, so traces that set it still decode to the same
// trace; the never-defined bits 5-7 fail closed.
func TestTraceHeaderBootFlags(t *testing.T) {
	raw := encodedTrace(t)
	want, err := replay.ReadTrace(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	got, err := replay.ReadTrace(bytes.NewReader(setBootFlags(raw, 1<<3)))
	if err != nil {
		t.Fatalf("reserved bit 3 rejected: %v", err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("reserved bit 3 changed the decoded trace")
	}
	for bit := 5; bit <= 7; bit++ {
		tr, err := replay.ReadTrace(bytes.NewReader(setBootFlags(raw, 1<<bit)))
		if !errors.Is(err, replay.ErrBadTrace) || tr != nil {
			t.Fatalf("boot flag bit %d: trace %v, err %v; want ErrBadTrace", bit, tr != nil, err)
		}
	}
}

// FuzzReplay feeds arbitrary bytes to the trace decoder: it must never
// panic, and anything it does accept must round-trip stably.
func FuzzReplay(f *testing.F) {
	raw := encodedTrace(f)
	f.Add(raw)
	f.Add([]byte{})
	f.Add([]byte("KREC"))
	f.Add(raw[:len(raw)/2])
	short := append([]byte{}, raw...)
	short[len(short)/3] ^= 0xff
	f.Add(short)
	f.Fuzz(func(t *testing.T, data []byte) {
		tr, err := replay.ReadTrace(bytes.NewReader(data))
		if err != nil {
			return
		}
		// An accepted trace must re-encode and decode to the same value.
		var buf bytes.Buffer
		if err := replay.WriteTrace(&buf, tr); err != nil {
			t.Fatalf("accepted trace failed to re-encode: %v", err)
		}
		if _, err := replay.ReadTrace(bytes.NewReader(buf.Bytes())); err != nil {
			t.Fatalf("re-encoded trace failed to decode: %v", err)
		}
	})
}
