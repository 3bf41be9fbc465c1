package store

import (
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"
)

// Stream is the append handle of one stream's WAL+base pair. The
// stream's owner goroutine calls Append/Compact/Load/Close; Stats is
// safe to read from any goroutine (the debug endpoint does).
type Stream struct {
	st    *Store
	id    string
	dir   string
	epoch uint64
	meta  []byte

	basePeriods uint64
	compactedAt int64
	f           *os.File
	buf         []byte // reusable frame-encode buffer

	walRecords int
	walBytes   int64
	lastSeq    uint64
	lastGen    uint32
	dirty      bool

	// statsA mirrors the mutable counters for lock-free Stats reads.
	statsA struct {
		walRecords  atomic.Int64
		walBytes    atomic.Int64
		lastSeq     atomic.Uint64
		compactedAt atomic.Int64
	}
	statsInit atomic.Bool
}

// ID returns the stream identifier.
func (s *Stream) ID() string { return s.id }

// LastSeq returns the sequence number of the newest durable record
// (or the base's period count when the WAL is empty).
func (s *Stream) LastSeq() uint64 { return s.lastSeq }

// BasePeriods returns the learned-period count folded into the base.
func (s *Stream) BasePeriods() uint64 { return s.basePeriods }

// BasePath returns the path of the current epoch's base snapshot.
// Owner goroutine only (Compact moves it).
func (s *Stream) BasePath() string { return filepath.Join(s.dir, baseName(s.epoch)) }

func (s *Stream) publishStats() {
	s.statsA.walRecords.Store(int64(s.walRecords))
	s.statsA.walBytes.Store(s.walBytes)
	s.statsA.lastSeq.Store(s.lastSeq)
	s.statsA.compactedAt.Store(s.compactedAt)
	s.statsInit.Store(true)
}

// Stats returns a point-in-time view of the stream's durable state;
// safe from any goroutine.
func (s *Stream) Stats() StreamMeta {
	if !s.statsInit.Load() {
		s.publishStats()
	}
	return StreamMeta{
		ID:                s.id,
		Meta:              s.meta,
		BasePeriods:       s.basePeriods,
		WALRecords:        int(s.statsA.walRecords.Load()),
		WALBytes:          s.statsA.walBytes.Load(),
		LastSeq:           s.statsA.lastSeq.Load(),
		LastGeneration:    s.lastGen,
		CompactedAtUnixNS: s.statsA.compactedAt.Load(),
	}
}

// Append frames rec, appends it to the WAL and fsyncs: when Append
// returns nil the record is durable. Sequence numbers must be
// strictly increasing.
func (s *Stream) Append(rec Record) error {
	if rec.Seq <= s.lastSeq {
		return fmt.Errorf("store: stream %s: append seq %d not after %d", s.id, rec.Seq, s.lastSeq)
	}
	buf, err := appendFrame(s.buf[:0], rec)
	if err != nil {
		return err
	}
	s.buf = buf[:0]
	if s.st.crash != nil {
		if err := s.st.crash("append"); err != nil {
			// Simulated torn write: half the frame reaches the disk.
			s.f.Write(buf[:len(buf)/2])
			s.f.Sync()
			return err
		}
	}
	if _, err := s.f.Write(buf); err != nil {
		return fmt.Errorf("store: stream %s: %w", s.id, err)
	}
	if err := s.f.Sync(); err != nil {
		return fmt.Errorf("store: stream %s: %w", s.id, err)
	}
	s.walRecords++
	s.walBytes += int64(len(buf))
	s.lastSeq = rec.Seq
	s.lastGen = rec.Generation
	if !s.dirty {
		s.dirty = true
		s.st.gDirty.Add(1)
	}
	s.st.mRecords.Inc()
	s.st.mBytes.Add(int64(len(buf)))
	s.publishStats()
	return nil
}

// ShouldCompact reports whether the WAL has crossed the store's
// compaction thresholds, jittered per stream (see JitteredThreshold).
func (s *Stream) ShouldCompact() bool {
	if s.walRecords == 0 {
		return false
	}
	opt := &s.st.opt
	if opt.CompactRecords > 0 && s.walRecords >= JitteredThreshold(s.id, opt.CompactRecords, opt.JitterFrac) {
		return true
	}
	if opt.CompactBytes > 0 {
		jb := int64(JitteredThreshold(s.id, int(opt.CompactBytes), opt.JitterFrac))
		if s.walBytes >= jb {
			return true
		}
	}
	return false
}

// Load reads the stream's durable state for hydration: the base
// snapshot (nil for an empty base) and the intact WAL records with
// Seq beyond the base. It does not move the append position.
func (s *Stream) Load() (base []byte, recs []Record, err error) {
	base, err = os.ReadFile(filepath.Join(s.dir, baseName(s.epoch)))
	if err != nil {
		return nil, nil, &CorruptError{Stream: s.id, Path: filepath.Join(s.dir, baseName(s.epoch)), Reason: "unreadable base snapshot", Err: err}
	}
	if len(base) == 0 {
		base = nil
	}
	b, err := os.ReadFile(filepath.Join(s.dir, walName(s.epoch)))
	if err != nil && !errors.Is(err, fs.ErrNotExist) {
		return nil, nil, fmt.Errorf("store: stream %s: %w", s.id, err)
	}
	all, _ := decodeFrames(b)
	// Records at or below the base's period count are stale debris
	// (possible only after operator surgery — compaction opens a fresh
	// WAL — but cheap to filter and fatal to replay twice).
	keep := all[:0]
	for _, r := range all {
		if r.Seq > s.basePeriods {
			keep = append(keep, r)
		}
	}
	return base, copyRecords(keep), nil
}

// Compact folds the WAL into a new base snapshot under the next
// epoch: write base-<E+1>, commit by renaming the new manifest, open
// a fresh empty WAL, then sweep the old pair. A crash anywhere leaves
// the manifest pointing at a consistent pair. basePeriods is the
// learned-period count the snapshot covers — normally LastSeq at the
// moment the caller serialized its in-memory state.
func (s *Stream) Compact(base []byte, basePeriods uint64, meta []byte, now time.Time) error {
	next := s.epoch + 1
	dir := s.dir
	if s.st.crash != nil {
		if err := s.st.crash("compact.start"); err != nil {
			return err
		}
	}
	// The base is written under its final (epoch-unique) name before
	// the manifest commit; no temp file needed, a crash leaves an
	// unreferenced file the next open sweeps.
	if err := writeFileSync(filepath.Join(dir, baseName(next)), base); err != nil {
		return err
	}
	if s.st.crash != nil {
		if err := s.st.crash("compact.base-written"); err != nil {
			return err
		}
	}
	m := manifest{
		Version:           manifestVersion,
		Epoch:             next,
		BasePeriods:       basePeriods,
		Meta:              meta,
		CompactedAtUnixNS: now.UnixNano(),
	}
	if err := s.st.commitManifest(dir, m); err != nil {
		return err
	}
	// Committed: everything below is cleanup on the new epoch.
	f, err := os.OpenFile(filepath.Join(dir, walName(next)), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("store: stream %s: %w", s.id, err)
	}
	old := s.f
	s.f = f
	old.Close()
	os.Remove(filepath.Join(dir, baseName(s.epoch)))
	os.Remove(filepath.Join(dir, walName(s.epoch)))
	s.epoch = next
	s.meta = meta
	s.basePeriods = basePeriods
	s.compactedAt = m.CompactedAtUnixNS
	s.walRecords = 0
	s.walBytes = 0
	s.lastSeq = basePeriods
	if s.dirty {
		s.dirty = false
		s.st.gDirty.Add(-1)
	}
	s.st.mCompactions.Inc()
	s.publishStats()
	return nil
}

// Close releases the WAL handle. Appended records are already
// durable; Close is not a flush point.
func (s *Stream) Close() error {
	if s.dirty {
		s.dirty = false
		s.st.gDirty.Add(-1)
	}
	if s.f == nil {
		return nil
	}
	err := s.f.Close()
	s.f = nil
	return err
}
