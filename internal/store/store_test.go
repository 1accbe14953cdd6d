package store

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
)

func openT(t *testing.T, dir string, opts ...Option) *Store {
	t.Helper()
	s, err := Open(dir, opts...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

func TestAppendRecover(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, dir)
	payloads := [][]byte{[]byte("alpha"), []byte("beta"), {}, bytes.Repeat([]byte{7}, 5000)}
	for i, p := range payloads {
		seq, err := s.Append(uint32(i), p)
		if err != nil {
			t.Fatal(err)
		}
		if seq != uint64(i+1) {
			t.Fatalf("seq = %d, want %d", seq, i+1)
		}
	}
	s.Close()

	r := openT(t, dir)
	recs := r.Records()
	if len(recs) != len(payloads) {
		t.Fatalf("recovered %d records, want %d", len(recs), len(payloads))
	}
	for i, rec := range recs {
		if rec.Seq != uint64(i+1) || rec.Kind != uint32(i) || !bytes.Equal(rec.Payload, payloads[i]) {
			t.Fatalf("record %d = %+v", i, rec)
		}
	}
	if r.Recovery().TruncatedBytes != 0 {
		t.Fatalf("clean log reported truncation: %+v", r.Recovery())
	}
	// Appending after recovery continues the sequence.
	if seq, err := r.Append(9, []byte("x")); err != nil || seq != uint64(len(payloads)+1) {
		t.Fatalf("append after recover: seq=%d err=%v", seq, err)
	}
}

// TestTornTailEveryOffset truncates the WAL at every possible byte
// length: recovery must always surface the longest intact prefix and
// drop the torn frame.
func TestTornTailEveryOffset(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, dir)
	for i := 0; i < 3; i++ {
		if _, err := s.Append(uint32(i), bytes.Repeat([]byte{byte(i)}, 10+i*7)); err != nil {
			t.Fatal(err)
		}
	}
	s.Close()
	wal := filepath.Join(dir, "wal.log")
	full, err := os.ReadFile(wal)
	if err != nil {
		t.Fatal(err)
	}
	frameEnds := []int{}
	off := 0
	for _, n := range []int{10, 17, 24} {
		off += headBytes + n + crcBytes
		frameEnds = append(frameEnds, off)
	}
	wantAt := func(n int) int {
		w := 0
		for i, end := range frameEnds {
			if n >= end {
				w = i + 1
			}
		}
		return w
	}
	for n := 0; n <= len(full); n++ {
		sub := t.TempDir()
		if err := os.WriteFile(filepath.Join(sub, "wal.log"), full[:n], 0o644); err != nil {
			t.Fatal(err)
		}
		r, err := Open(sub)
		if err != nil {
			t.Fatalf("truncate %d: %v", n, err)
		}
		if got, want := len(r.Records()), wantAt(n); got != want {
			t.Fatalf("truncate %d: recovered %d records, want %d", n, got, want)
		}
		if want := int64(n - boundary(frameEnds, n)); r.Recovery().TruncatedBytes != want {
			t.Fatalf("truncate %d: reported %d truncated bytes, want %d",
				n, r.Recovery().TruncatedBytes, want)
		}
		// The torn tail must be gone from disk: reopening is clean.
		r.Close()
		r2, err := Open(sub)
		if err != nil {
			t.Fatal(err)
		}
		if r2.Recovery().TruncatedBytes != 0 {
			t.Fatalf("truncate %d: second recovery still truncates", n)
		}
		r2.Close()
	}
}

func boundary(ends []int, n int) int {
	b := 0
	for _, e := range ends {
		if n >= e {
			b = e
		}
	}
	return b
}

// TestCorruptedCRC flips a byte inside a middle frame: recovery keeps
// the prefix before it and discards everything from the bad frame on.
func TestCorruptedCRC(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, dir)
	for i := 0; i < 3; i++ {
		if _, err := s.Append(1, []byte{1, 2, 3, 4}); err != nil {
			t.Fatal(err)
		}
	}
	s.Close()
	wal := filepath.Join(dir, "wal.log")
	data, _ := os.ReadFile(wal)
	frame := headBytes + 4 + crcBytes
	data[frame+headBytes] ^= 0xff // payload byte of frame 2
	if err := os.WriteFile(wal, data, 0o644); err != nil {
		t.Fatal(err)
	}
	r := openT(t, dir)
	if len(r.Records()) != 1 {
		t.Fatalf("recovered %d records, want 1", len(r.Records()))
	}
	if r.Recovery().TruncatedBytes != int64(2*frame) {
		t.Fatalf("truncated %d bytes, want %d", r.Recovery().TruncatedBytes, 2*frame)
	}
}

// TestFsyncFailureRollsBack injects an fsync error: the failed append
// must not become visible, on this handle or after recovery.
func TestFsyncFailureRollsBack(t *testing.T) {
	dir := t.TempDir()
	fail := false
	s := openT(t, dir, WithSync(func(f *os.File) error {
		if fail {
			return errors.New("injected fsync failure")
		}
		return f.Sync()
	}))
	if _, err := s.Append(1, []byte("good")); err != nil {
		t.Fatal(err)
	}
	fail = true
	if _, err := s.Append(2, []byte("doomed")); err == nil {
		t.Fatal("append with failing fsync succeeded")
	}
	fail = false
	if n := len(s.Records()); n != 1 {
		t.Fatalf("%d records visible after failed append", n)
	}
	// The sequence must not have a gap either.
	if seq, err := s.Append(3, []byte("after")); err != nil || seq != 2 {
		t.Fatalf("seq=%d err=%v after rollback", seq, err)
	}
	s.Close()
	r := openT(t, dir)
	recs := r.Records()
	if len(recs) != 2 || string(recs[0].Payload) != "good" || string(recs[1].Payload) != "after" {
		t.Fatalf("recovered %+v", recs)
	}
}

func TestSnapshotAtomicity(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, dir)
	if _, ok, err := s.ReadSnapshot("state"); err != nil || ok {
		t.Fatalf("missing snapshot: ok=%v err=%v", ok, err)
	}
	if err := s.WriteSnapshot("state", []byte("v1")); err != nil {
		t.Fatal(err)
	}
	if err := s.WriteSnapshot("state", []byte("v2")); err != nil {
		t.Fatal(err)
	}
	got, ok, err := s.ReadSnapshot("state")
	if err != nil || !ok || string(got) != "v2" {
		t.Fatalf("snapshot = %q ok=%v err=%v", got, ok, err)
	}
	// A leftover temp file (crash between write and rename) is ignored
	// and cleaned up at Open.
	tmp := filepath.Join(dir, "state.123.tmp")
	if err := os.WriteFile(tmp, []byte("torn"), 0o644); err != nil {
		t.Fatal(err)
	}
	s.Close()
	r := openT(t, dir)
	if _, err := os.Stat(tmp); !os.IsNotExist(err) {
		t.Fatal("temp file survived recovery")
	}
	got, ok, err = r.ReadSnapshot("state")
	if err != nil || !ok || string(got) != "v2" {
		t.Fatalf("snapshot after recovery = %q ok=%v err=%v", got, ok, err)
	}
}

func TestSnapshotNameValidation(t *testing.T) {
	s := openT(t, t.TempDir())
	for _, bad := range []string{"", "a/b", "..", "x.tmp", "wal.log"} {
		if err := s.WriteSnapshot(bad, []byte("x")); err == nil {
			t.Fatalf("name %q accepted", bad)
		}
	}
}

func TestCompact(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, dir)
	for i := 0; i < 5; i++ {
		if _, err := s.Append(1, []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	if len(s.Records()) != 0 {
		t.Fatal("records survived compaction")
	}
	// Sequence numbers keep rising across compaction, so replayers can
	// order snapshot + tail.
	if seq, err := s.Append(1, []byte("post")); err != nil || seq != 6 {
		t.Fatalf("seq=%d err=%v", seq, err)
	}
	s.Close()
	r := openT(t, dir)
	if len(r.Records()) != 1 || r.Records()[0].Seq != 6 {
		t.Fatalf("recovered %+v", r.Records())
	}
}

func TestOversizePayloadRejected(t *testing.T) {
	s := openT(t, t.TempDir())
	if _, err := s.Append(1, make([]byte, MaxPayloadBytes+1)); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("err = %v, want ErrTooLarge", err)
	}
}

// TestConcurrentAppend hammers Append from many goroutines (run with
// -race): every acknowledged record must be recovered, and the sequence
// numbers must be unique and dense.
func TestConcurrentAppend(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, dir)
	const goroutines, each = 16, 16
	var wg sync.WaitGroup
	acked := make([]map[uint64][]byte, goroutines)
	for g := 0; g < goroutines; g++ {
		acked[g] = map[uint64][]byte{}
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				p := []byte{byte(g), byte(i)}
				seq, err := s.Append(uint32(g), p)
				if err != nil {
					t.Errorf("append(%d,%d): %v", g, i, err)
					return
				}
				acked[g][seq] = p
			}
		}(g)
	}
	wg.Wait()
	const total = goroutines * each
	want := map[uint64][]byte{}
	for _, gs := range acked {
		for seq, p := range gs {
			if want[seq] != nil {
				t.Fatalf("sequence %d issued twice", seq)
			}
			want[seq] = p
		}
	}
	if len(want) != total {
		t.Fatalf("%d unique sequences, want %d", len(want), total)
	}
	if st := s.Stats(); st.Appends != total || st.Fsyncs != total {
		t.Fatalf("stats %+v: want %d appends and fsyncs", st, total)
	}
	s.Close()
	r := openT(t, dir)
	if len(r.Records()) != total {
		t.Fatalf("recovered %d records, want %d", len(r.Records()), total)
	}
	for i, rec := range r.Records() {
		if rec.Seq != uint64(i+1) {
			t.Fatalf("record %d has seq %d", i, rec.Seq)
		}
		if !bytes.Equal(rec.Payload, want[rec.Seq]) {
			t.Fatalf("record %d payload %v, acked %v", rec.Seq, rec.Payload, want[rec.Seq])
		}
	}
}

// TestGroupFsyncFailureFailsEveryMember extends TestFsyncFailureRollsBack
// to a group of concurrent appenders: while fsync fails, every member must
// see the error, nothing may become visible, and the sequence must
// continue without a gap afterwards.
func TestGroupFsyncFailureFailsEveryMember(t *testing.T) {
	dir := t.TempDir()
	var failing atomic.Bool
	s := openT(t, dir, WithSync(func(f *os.File) error {
		if failing.Load() {
			return errors.New("injected fsync failure")
		}
		return f.Sync()
	}))
	if _, err := s.Append(1, []byte("good")); err != nil {
		t.Fatal(err)
	}
	failing.Store(true)
	const doomed = 8
	var wg sync.WaitGroup
	errs := make([]error, doomed)
	for i := 0; i < doomed; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = s.Append(2, []byte("doomed"))
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err == nil {
			t.Fatalf("doomed append %d succeeded through failing fsync", i)
		}
	}
	failing.Store(false)
	if n := len(s.Records()); n != 1 {
		t.Fatalf("%d records visible after failed appends", n)
	}
	if st := s.Stats(); st.SyncFailures != doomed || st.Appends != 1 {
		t.Fatalf("stats %+v: want %d sync failures and 1 append", st, doomed)
	}
	if seq, err := s.Append(3, []byte("after")); err != nil || seq != 2 {
		t.Fatalf("seq=%d err=%v after rollback", seq, err)
	}
	s.Close()
	r := openT(t, dir)
	recs := r.Records()
	if len(recs) != 2 || string(recs[0].Payload) != "good" || string(recs[1].Payload) != "after" {
		t.Fatalf("recovered %+v", recs)
	}
}

// TestGroupCloseRejectsAppends pins the shutdown contract: once Close
// returns, appends fail instead of writing, and recovery sees only what
// was acknowledged before it.
func TestGroupCloseRejectsAppends(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Append(1, []byte("x")); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Append(1, []byte("y")); !errors.Is(err, os.ErrClosed) {
		t.Fatalf("append after close: %v, want os.ErrClosed", err)
	}
	r := openT(t, dir)
	if recs := r.Records(); len(recs) != 1 || string(recs[0].Payload) != "x" {
		t.Fatalf("recovered %+v", recs)
	}
}
