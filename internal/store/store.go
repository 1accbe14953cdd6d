// Package store is a crash-safe record store for sealed blobs: an
// append-only write-ahead log plus atomic snapshot files. It is the
// durability layer under the serving stack's enclave checkpoints
// (docs/SEALING.md §Crash safety).
//
// Crash-safety invariants:
//
//   - Every WAL record is CRC-framed (magic, seq, kind, length, payload,
//     CRC-32/IEEE over everything after the magic). The recovery scan
//     replays records until the first frame that is torn or corrupt and
//     truncates the log there — a crash mid-append loses at most the
//     record being written, never an earlier one.
//   - Append fsyncs before reporting success; if the fsync fails the
//     record is rolled back (truncated) and the error surfaced, so "it
//     returned nil" always means "it is on disk".
//   - Snapshots are written to a temp file, fsynced, then renamed into
//     place (and the directory fsynced), so a reader never observes a
//     half-written snapshot. Leftover *.tmp files from a crash are
//     ignored and removed at Open.
//   - Compact truncates the WAL only after the caller has snapshotted
//     the state the log's records are folded into.
package store

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"strings"
	"sync"
)

const (
	walName   = "wal.log"
	recMagic  = uint32(0x4B57414C) // "KWAL"
	headBytes = 4 + 8 + 4 + 4      // magic, seq, kind, len
	crcBytes  = 4

	// MaxPayloadBytes bounds one record (16 MiB) so a corrupt length
	// field cannot drive allocation during recovery.
	MaxPayloadBytes = 16 << 20
)

// ErrTooLarge reports an Append payload over MaxPayloadBytes.
var ErrTooLarge = errors.New("store: payload too large")

// Record is one WAL entry.
type Record struct {
	Seq     uint64
	Kind    uint32
	Payload []byte
}

// RecoveryInfo describes what Open found in the WAL.
type RecoveryInfo struct {
	Records        int   // intact records replayed
	TruncatedBytes int64 // torn/corrupt tail bytes discarded
}

// Stats counts the store's write-path work. Every append is fsynced on
// its own, so Fsyncs counts the WAL syncs of successful appends.
type Stats struct {
	Appends      uint64 `json:"appends"`
	Fsyncs       uint64 `json:"fsyncs"`
	SyncFailures uint64 `json:"sync_failures"`
}

// Merge folds another snapshot into st (fleet-wide aggregation).
func (st *Stats) Merge(o Stats) {
	st.Appends += o.Appends
	st.Fsyncs += o.Fsyncs
	st.SyncFailures += o.SyncFailures
}

// Store is a WAL + snapshot directory. Appends, Compact and the read
// accessors are safe for concurrent use; concurrent Appends are
// serialised, each with its own write and fsync.
type Store struct {
	dir  string
	wal  *os.File
	sync func(*os.File) error

	mu    sync.Mutex // guards off, seq, recs, rec, stats
	off   int64      // committed WAL size
	seq   uint64
	recs  []Record
	rec   RecoveryInfo
	stats Stats
}

// Option configures Open.
type Option func(*Store)

// WithSync replaces the fsync used after every append and snapshot —
// the hook the crash-safety tests use to inject sync failures.
func WithSync(fn func(*os.File) error) Option {
	return func(s *Store) { s.sync = fn }
}

// Open opens (creating if needed) the store in dir and recovers the
// WAL, truncating any torn tail.
func Open(dir string, opts ...Option) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	s := &Store{dir: dir, sync: (*os.File).Sync}
	for _, o := range opts {
		o(s)
	}
	// Clear temp files from interrupted snapshot writes.
	if ents, err := os.ReadDir(dir); err == nil {
		for _, e := range ents {
			if strings.HasSuffix(e.Name(), ".tmp") {
				os.Remove(filepath.Join(dir, e.Name()))
			}
		}
	}
	f, err := os.OpenFile(filepath.Join(dir, walName), os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, err
	}
	s.wal = f
	if err := s.recover(); err != nil {
		f.Close()
		return nil, err
	}
	return s, nil
}

// recover scans the WAL frame by frame, keeping every intact record and
// truncating at the first bad one.
func (s *Store) recover() error {
	info, err := s.wal.Stat()
	if err != nil {
		return err
	}
	size := info.Size()
	var off int64
	head := make([]byte, headBytes)
	for {
		good, rec, next := readFrame(s.wal, off, size, head)
		if !good {
			break
		}
		s.recs = append(s.recs, rec)
		s.seq = rec.Seq
		off = next
	}
	s.rec.Records = len(s.recs)
	s.rec.TruncatedBytes = size - off
	if off < size {
		if err := s.wal.Truncate(off); err != nil {
			return err
		}
	}
	s.off = off
	_, err = s.wal.Seek(off, io.SeekStart)
	return err
}

// readFrame parses one frame at off; reports ok=false on any torn or
// corrupt framing (including a truncated tail).
func readFrame(f *os.File, off, size int64, head []byte) (bool, Record, int64) {
	var rec Record
	if off+headBytes+crcBytes > size {
		return false, rec, off
	}
	if _, err := f.ReadAt(head, off); err != nil {
		return false, rec, off
	}
	if binary.BigEndian.Uint32(head[0:4]) != recMagic {
		return false, rec, off
	}
	rec.Seq = binary.BigEndian.Uint64(head[4:12])
	rec.Kind = binary.BigEndian.Uint32(head[12:16])
	n := int64(binary.BigEndian.Uint32(head[16:20]))
	if n > MaxPayloadBytes || off+headBytes+n+crcBytes > size {
		return false, rec, off
	}
	body := make([]byte, n+crcBytes)
	if _, err := f.ReadAt(body, off+headBytes); err != nil {
		return false, rec, off
	}
	crc := crc32.NewIEEE()
	crc.Write(head[4:]) // seq, kind, len
	crc.Write(body[:n])
	if crc.Sum32() != binary.BigEndian.Uint32(body[n:]) {
		return false, rec, off
	}
	rec.Payload = body[:n:n]
	return true, rec, off + headBytes + n + crcBytes
}

// frameRecord builds one CRC-framed WAL record.
func frameRecord(seq uint64, kind uint32, payload []byte) []byte {
	frame := make([]byte, headBytes+len(payload)+crcBytes)
	binary.BigEndian.PutUint32(frame[0:4], recMagic)
	binary.BigEndian.PutUint64(frame[4:12], seq)
	binary.BigEndian.PutUint32(frame[12:16], kind)
	binary.BigEndian.PutUint32(frame[16:20], uint32(len(payload)))
	copy(frame[headBytes:], payload)
	crc := crc32.NewIEEE()
	crc.Write(frame[4 : headBytes+len(payload)])
	binary.BigEndian.PutUint32(frame[headBytes+len(payload):], crc.Sum32())
	return frame
}

// Append durably adds a record and returns its sequence number. On any
// write or sync failure the partial record is rolled back so the log
// never holds an unacknowledged tail.
func (s *Store) Append(kind uint32, payload []byte) (uint64, error) {
	if len(payload) > MaxPayloadBytes {
		return 0, ErrTooLarge
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	seq := s.seq + 1
	frame := frameRecord(seq, kind, payload)
	if _, err := s.wal.WriteAt(frame, s.off); err != nil {
		s.rollback()
		return 0, err
	}
	if err := s.sync(s.wal); err != nil {
		s.stats.SyncFailures++
		s.rollback()
		return 0, fmt.Errorf("store: wal sync: %w", err)
	}
	s.off += int64(len(frame))
	s.seq = seq
	s.recs = append(s.recs, Record{Seq: seq, Kind: kind, Payload: append([]byte(nil), payload...)})
	s.stats.Appends++
	s.stats.Fsyncs++
	return seq, nil
}

// rollback truncates an unacknowledged tail; caller holds s.mu.
func (s *Store) rollback() {
	s.wal.Truncate(s.off)
	s.wal.Seek(s.off, io.SeekStart)
}

// Records returns the live log: recovered records plus successful
// appends, in order. The slice is shared — callers must not mutate it.
func (s *Store) Records() []Record {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.recs
}

// Recovery reports what the opening scan found.
func (s *Store) Recovery() RecoveryInfo {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.rec
}

// Stats snapshots the write-path counters.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats
}

// Compact truncates the WAL. Callers write a snapshot of the folded
// state first; compacting without one loses the log's records. The
// caller must also quiesce its own appenders: a record appended
// concurrently with Compact may land before the truncate and be lost
// with it.
func (s *Store) Compact() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.wal.Truncate(0); err != nil {
		return err
	}
	if err := s.sync(s.wal); err != nil {
		return err
	}
	s.off = 0
	s.recs = nil
	s.rec = RecoveryInfo{}
	return nil
}

// WriteSnapshot atomically replaces the named snapshot file:
// temp-write, fsync, rename, directory fsync.
func (s *Store) WriteSnapshot(name string, data []byte) error {
	if !validName(name) {
		return fmt.Errorf("store: bad snapshot name %q", name)
	}
	tmp, err := os.CreateTemp(s.dir, name+".*.tmp")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name())
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		return err
	}
	if err := s.sync(tmp); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	if err := os.Rename(tmp.Name(), filepath.Join(s.dir, name)); err != nil {
		return err
	}
	if d, err := os.Open(s.dir); err == nil {
		s.sync(d) // directory entry durability; best effort
		d.Close()
	}
	return nil
}

// ReadSnapshot returns the named snapshot, or ok=false if absent.
func (s *Store) ReadSnapshot(name string) ([]byte, bool, error) {
	if !validName(name) {
		return nil, false, fmt.Errorf("store: bad snapshot name %q", name)
	}
	b, err := os.ReadFile(filepath.Join(s.dir, name))
	if errors.Is(err, os.ErrNotExist) {
		return nil, false, nil
	}
	if err != nil {
		return nil, false, err
	}
	return b, true, nil
}

func validName(name string) bool {
	return name != "" && name == filepath.Base(name) &&
		!strings.HasSuffix(name, ".tmp") && name != walName
}

// Close closes the WAL. The store is unusable afterwards.
func (s *Store) Close() error { return s.wal.Close() }
