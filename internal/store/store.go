package store

import (
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"time"

	"github.com/blackbox-rt/modelgen/internal/obs"
)

// manifestVersion is the manifest.json schema version.
const manifestVersion = 1

// validIDRe mirrors the serving layer's stream-ID grammar; validID
// additionally rejects the dot-only names the character class admits,
// keeping stream directories from escaping the root.
var validIDRe = regexp.MustCompile(`^[A-Za-z0-9._-]{1,64}$`)

func validID(id string) bool {
	return validIDRe.MatchString(id) && id != "." && id != ".." && id != quarantineDir
}

// Options configures a Store.
type Options struct {
	// Dir is the store root; created if absent.
	Dir string
	// CompactRecords triggers compaction once a stream's WAL holds
	// this many records (default 256; negative disables the record
	// trigger).
	CompactRecords int
	// CompactBytes triggers compaction once a stream's WAL reaches
	// this size (default 4 MiB; negative disables the byte trigger).
	CompactBytes int64
	// JitterFrac spreads each stream's compaction thresholds by a
	// deterministic per-stream factor in [1-f, 1+f], so streams
	// created together don't compact in lockstep (default 0.2;
	// negative disables).
	JitterFrac float64
	// Registry receives the modelgen_store_* metrics when non-nil.
	Registry *obs.Registry
	// Logf logs recovery events (torn tails, stale-epoch sweeps,
	// quarantines); nil means silent.
	Logf func(format string, args ...any)
}

func (o *Options) fill() {
	if o.CompactRecords == 0 {
		o.CompactRecords = 256
	}
	if o.CompactBytes == 0 {
		o.CompactBytes = 4 << 20
	}
	if o.JitterFrac == 0 {
		o.JitterFrac = 0.2
	}
}

// CorruptError reports stream state that failed validation and was
// (or should be) quarantined rather than silently dropped.
type CorruptError struct {
	// Stream is the stream ID, or "" for non-stream files.
	Stream string
	// Path is the offending file or directory.
	Path string
	// Reason is a short human explanation.
	Reason string
	// Err is the underlying decode/IO error, if any.
	Err error
}

func (e *CorruptError) Error() string {
	if e.Err != nil {
		return fmt.Sprintf("store: corrupt state at %s (%s): %v", e.Path, e.Reason, e.Err)
	}
	return fmt.Sprintf("store: corrupt state at %s: %s", e.Path, e.Reason)
}

func (e *CorruptError) Unwrap() error { return e.Err }

// manifest is the per-stream commit record: which epoch's base+WAL
// pair is current, and the serving-layer metadata blob.
type manifest struct {
	Version int `json:"version"`
	// Epoch numbers base/WAL file pairs; the manifest rename is the
	// commit point that switches the stream to a new pair.
	Epoch uint64 `json:"epoch"`
	// BasePeriods is the learned-period count folded into the base
	// snapshot; WAL records with Seq <= BasePeriods are stale.
	BasePeriods uint64 `json:"base_periods"`
	// Meta is an opaque serving-layer blob (stream registration info),
	// available without reading the base.
	Meta json.RawMessage `json:"meta,omitempty"`
	// CompactedAtUnixNS is when the current base was written, 0 for a
	// never-compacted stream.
	CompactedAtUnixNS int64 `json:"compacted_at_unix_ns,omitempty"`
}

// Store is a directory of per-stream WAL+base state. All methods are
// safe for concurrent use; per-stream handles (Stream) are not, they
// belong to the stream's owner.
type Store struct {
	dir string
	opt Options

	mRecords     *obs.Counter
	mBytes       *obs.Counter
	mCompactions *obs.Counter
	mHydrations  *obs.Counter
	hHydration   *obs.Histogram
	gDirty       *obs.Gauge

	// crash, when set (tests only), is consulted at named points of
	// the append/compaction sequence; a non-nil return aborts the
	// operation there, simulating a crash.
	crash func(point string) error
}

// Open opens (creating if needed) the store rooted at opt.Dir.
func Open(opt Options) (*Store, error) {
	if opt.Dir == "" {
		return nil, errors.New("store: no directory configured")
	}
	opt.fill()
	if err := os.MkdirAll(opt.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	st := &Store{dir: opt.Dir, opt: opt}
	r := opt.Registry
	st.mRecords = r.Counter(obs.MetricStoreWALRecords, "period records appended to stream WALs")
	st.mBytes = r.Counter(obs.MetricStoreWALBytes, "bytes appended to stream WALs, frames included")
	st.mCompactions = r.Counter(obs.MetricStoreCompactions, "WAL-into-base compactions")
	st.mHydrations = r.Counter(obs.MetricStoreHydrations, "lazy stream hydrations")
	st.hHydration = r.Histogram(obs.MetricStoreHydrationSeconds, "stream hydration latency in seconds", obs.HydrationSecondsBuckets)
	st.gDirty = r.Gauge(obs.MetricStoreDirtyStreams, "open streams with WAL records not yet compacted")
	return st, nil
}

// Dir returns the store root.
func (st *Store) Dir() string { return st.dir }

func (st *Store) logf(format string, args ...any) {
	if st.opt.Logf != nil {
		st.opt.Logf(format, args...)
	}
}

func (st *Store) streamDir(id string) string { return filepath.Join(st.dir, id) }

func baseName(epoch uint64) string { return fmt.Sprintf("base-%d.json", epoch) }
func walName(epoch uint64) string  { return fmt.Sprintf("wal-%d.log", epoch) }

// StreamMeta is the scan-time view of one stream: everything the
// serving layer needs to register a cold stream without reading its
// base snapshot or WAL payloads.
type StreamMeta struct {
	ID          string
	Meta        json.RawMessage
	BasePeriods uint64
	// WALRecords/WALBytes describe the intact WAL prefix.
	WALRecords int
	WALBytes   int64
	// LastSeq/LastGeneration come from the final intact WAL frame, or
	// the base (BasePeriods, generation unknown: 0) for an empty WAL.
	LastSeq           uint64
	LastGeneration    uint32
	CompactedAtUnixNS int64
}

// ScanResult is what Open-time recovery found on disk.
type ScanResult struct {
	Streams []StreamMeta
	// Quarantined lists stream IDs (or file names) moved to
	// <root>/quarantine/ because their state failed validation.
	Quarantined []string
}

// Scan inventories the store without hydrating anything: it reads
// each stream's manifest and walks its WAL frame headers (payloads
// are not decoded), so restart cost is proportional to the WAL sizes,
// not the model sizes. Streams whose manifest or base is corrupt are
// moved to quarantine and reported, never silently dropped; a torn
// WAL tail is normal crash debris and is truncated at next OpenStream
// (Scan just ignores it).
func (st *Store) Scan() (ScanResult, error) {
	var res ScanResult
	ents, err := os.ReadDir(st.dir)
	if err != nil {
		return res, fmt.Errorf("store: %w", err)
	}
	for _, ent := range ents {
		if !ent.IsDir() || ent.Name() == quarantineDir {
			continue
		}
		id := ent.Name()
		sm, err := st.scanStream(id)
		if err != nil {
			var ce *CorruptError
			if errors.As(err, &ce) {
				st.logf("store: quarantining stream %s: %v", id, err)
				if qerr := st.Quarantine(st.streamDir(id)); qerr != nil {
					return res, qerr
				}
				res.Quarantined = append(res.Quarantined, id)
				continue
			}
			return res, err
		}
		res.Streams = append(res.Streams, sm)
	}
	sort.Slice(res.Streams, func(i, j int) bool { return res.Streams[i].ID < res.Streams[j].ID })
	return res, nil
}

func (st *Store) readManifest(id string) (manifest, error) {
	path := filepath.Join(st.streamDir(id), "manifest.json")
	b, err := os.ReadFile(path)
	if err != nil {
		return manifest{}, &CorruptError{Stream: id, Path: path, Reason: "unreadable manifest", Err: err}
	}
	var m manifest
	if err := json.Unmarshal(b, &m); err != nil {
		return manifest{}, &CorruptError{Stream: id, Path: path, Reason: "undecodable manifest", Err: err}
	}
	if m.Version != manifestVersion {
		return manifest{}, &CorruptError{Stream: id, Path: path,
			Reason: fmt.Sprintf("manifest version %d, this binary reads %d", m.Version, manifestVersion)}
	}
	if m.Epoch == 0 {
		return manifest{}, &CorruptError{Stream: id, Path: path, Reason: "manifest has no epoch"}
	}
	return m, nil
}

func (st *Store) scanStream(id string) (StreamMeta, error) {
	m, err := st.readManifest(id)
	if err != nil {
		return StreamMeta{}, err
	}
	dir := st.streamDir(id)
	basePath := filepath.Join(dir, baseName(m.Epoch))
	if _, err := os.Stat(basePath); err != nil {
		return StreamMeta{}, &CorruptError{Stream: id, Path: basePath, Reason: "missing base snapshot", Err: err}
	}
	sm := StreamMeta{
		ID:                id,
		Meta:              m.Meta,
		BasePeriods:       m.BasePeriods,
		LastSeq:           m.BasePeriods,
		CompactedAtUnixNS: m.CompactedAtUnixNS,
	}
	// The WAL may legitimately not exist yet (crash between the
	// manifest commit and the first append of the new epoch).
	wal, err := os.ReadFile(filepath.Join(dir, walName(m.Epoch)))
	if err != nil && !errors.Is(err, fs.ErrNotExist) {
		return StreamMeta{}, fmt.Errorf("store: stream %s: %w", id, err)
	}
	recs, good := decodeFrames(wal)
	sm.WALRecords = len(recs)
	sm.WALBytes = int64(good)
	if len(recs) > 0 {
		last := recs[len(recs)-1]
		sm.LastSeq = last.Seq
		sm.LastGeneration = last.Generation
	}
	return sm, nil
}

// ErrExists marks a Create against a stream that already has durable
// state.
var ErrExists = errors.New("store: stream already exists")

// Create initializes a new stream: epoch 1, the given base snapshot
// (nil for a stream with no learned state yet) and an empty WAL. It
// fails with ErrExists if the stream already exists.
func (st *Store) Create(id string, meta json.RawMessage, base []byte, basePeriods uint64) (*Stream, error) {
	if !validID(id) {
		return nil, fmt.Errorf("store: invalid stream id %q", id)
	}
	dir := st.streamDir(id)
	if _, err := os.Stat(filepath.Join(dir, "manifest.json")); err == nil {
		return nil, fmt.Errorf("store: stream %s: %w", id, ErrExists)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	const epoch = 1
	if err := writeFileSync(filepath.Join(dir, baseName(epoch)), base); err != nil {
		return nil, err
	}
	m := manifest{Version: manifestVersion, Epoch: epoch, BasePeriods: basePeriods, Meta: meta}
	if err := st.commitManifest(dir, m); err != nil {
		return nil, err
	}
	return st.openStream(id, m)
}

// OpenStream opens an existing stream for appending, truncating any
// torn WAL tail and sweeping files of non-current epochs.
func (st *Store) OpenStream(id string) (*Stream, error) {
	if !validID(id) {
		return nil, fmt.Errorf("store: invalid stream id %q", id)
	}
	m, err := st.readManifest(id)
	if err != nil {
		return nil, err
	}
	return st.openStream(id, m)
}

// Remove deletes a stream's state entirely (stream deletion, not
// corruption — corrupt state goes through Quarantine instead).
func (st *Store) Remove(id string) error {
	if !validID(id) {
		return fmt.Errorf("store: invalid stream id %q", id)
	}
	if err := os.RemoveAll(st.streamDir(id)); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	return nil
}

const quarantineDir = "quarantine"

// Quarantine moves a file or directory under <root>/quarantine/,
// appending a numeric suffix if the name is taken. It is used for
// corrupt store streams.
func (st *Store) Quarantine(path string) error {
	qdir := filepath.Join(st.dir, quarantineDir)
	if err := os.MkdirAll(qdir, 0o755); err != nil {
		return fmt.Errorf("store: quarantine: %w", err)
	}
	dst := filepath.Join(qdir, filepath.Base(path))
	for i := 1; ; i++ {
		if _, err := os.Stat(dst); errors.Is(err, fs.ErrNotExist) {
			break
		}
		dst = filepath.Join(qdir, fmt.Sprintf("%s.%d", filepath.Base(path), i))
	}
	if err := os.Rename(path, dst); err != nil {
		return fmt.Errorf("store: quarantine: %w", err)
	}
	return nil
}

// JitteredThreshold deterministically spreads a base threshold by
// ±frac using a hash of the stream ID, so a fleet of streams created
// together doesn't hit its checkpoint/compaction thresholds in
// lockstep. frac <= 0 returns base unchanged; the result is at least
// 1 for positive bases.
func JitteredThreshold(id string, base int, frac float64) int {
	if base <= 0 || frac <= 0 {
		return base
	}
	h := fnv.New64a()
	h.Write([]byte(id))
	// FNV-1a alone lacks avalanche — similar ids ("stream-001",
	// "stream-002") land adjacent — so finish with a 64-bit mixer
	// before mapping to [-1, 1) and scaling.
	x := h.Sum64()
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	u := float64(x&(1<<53-1)) / float64(1<<53) // [0, 1)
	v := base + int(float64(base)*frac*(2*u-1))
	if v < 1 {
		v = 1
	}
	return v
}

// commitManifest atomically replaces the stream's manifest: write to
// a temp file, fsync, rename over manifest.json, fsync the directory.
func (st *Store) commitManifest(dir string, m manifest) error {
	b, err := json.Marshal(m)
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	tmp := filepath.Join(dir, "manifest.json.tmp")
	if err := writeFileSync(tmp, b); err != nil {
		return err
	}
	if st.crash != nil {
		if err := st.crash("compact.manifest-tmp"); err != nil {
			return err
		}
	}
	if err := os.Rename(tmp, filepath.Join(dir, "manifest.json")); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	return syncDir(dir)
}

// openStream builds the Stream handle for manifest m: verifies the
// base, opens the WAL for appending after truncating any torn tail,
// and sweeps files of other epochs.
func (st *Store) openStream(id string, m manifest) (*Stream, error) {
	dir := st.streamDir(id)
	basePath := filepath.Join(dir, baseName(m.Epoch))
	if _, err := os.Stat(basePath); err != nil {
		return nil, &CorruptError{Stream: id, Path: basePath, Reason: "missing base snapshot", Err: err}
	}
	walPath := filepath.Join(dir, walName(m.Epoch))
	b, err := os.ReadFile(walPath)
	if err != nil && !errors.Is(err, fs.ErrNotExist) {
		return nil, fmt.Errorf("store: stream %s: %w", id, err)
	}
	recs, good := decodeFrames(b)
	if good < len(b) {
		st.logf("store: stream %s: truncating torn WAL tail (%d of %d bytes intact)", id, good, len(b))
		if err := os.Truncate(walPath, int64(good)); err != nil {
			return nil, fmt.Errorf("store: stream %s: %w", id, err)
		}
	}
	f, err := os.OpenFile(walPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("store: stream %s: %w", id, err)
	}
	s := &Stream{
		st:          st,
		id:          id,
		dir:         dir,
		epoch:       m.Epoch,
		meta:        m.Meta,
		basePeriods: m.BasePeriods,
		compactedAt: m.CompactedAtUnixNS,
		f:           f,
		walRecords:  len(recs),
		walBytes:    int64(good),
		lastSeq:     m.BasePeriods,
	}
	if len(recs) > 0 {
		last := recs[len(recs)-1]
		s.lastSeq = last.Seq
		s.lastGen = last.Generation
		st.gDirty.Add(1)
		s.dirty = true
	}
	s.sweepStaleEpochs()
	return s, nil
}

// sweepStaleEpochs best-effort deletes base/WAL files whose epoch is
// not current — debris from a compaction that crashed after the
// manifest commit but before cleanup.
func (s *Stream) sweepStaleEpochs() {
	ents, err := os.ReadDir(s.dir)
	if err != nil {
		return
	}
	keepBase, keepWAL := baseName(s.epoch), walName(s.epoch)
	for _, ent := range ents {
		name := ent.Name()
		if name == "manifest.json" || name == keepBase || name == keepWAL {
			continue
		}
		var e uint64
		if n, _ := fmt.Sscanf(name, "base-%d.json", &e); n == 1 && name == baseName(e) {
			s.st.logf("store: stream %s: sweeping stale %s", s.id, name)
			os.Remove(filepath.Join(s.dir, name))
			continue
		}
		if n, _ := fmt.Sscanf(name, "wal-%d.log", &e); n == 1 && name == walName(e) {
			s.st.logf("store: stream %s: sweeping stale %s", s.id, name)
			os.Remove(filepath.Join(s.dir, name))
			continue
		}
		if name == "manifest.json.tmp" || name == "base.tmp" {
			os.Remove(filepath.Join(s.dir, name))
		}
	}
}

// ObserveHydration records one lazy hydration in the store metrics.
func (st *Store) ObserveHydration(d time.Duration) {
	st.mHydrations.Inc()
	st.hHydration.Observe(d.Seconds())
}

// writeFileSync writes b (nil writes an empty file) and fsyncs before
// closing, so a subsequent rename publishes durable content.
func writeFileSync(path string, b []byte) error {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	if _, err := f.Write(b); err != nil {
		f.Close()
		return fmt.Errorf("store: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("store: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	return nil
}

// syncDir fsyncs a directory so renames within it are durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	defer d.Close()
	if err := d.Sync(); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	return nil
}
