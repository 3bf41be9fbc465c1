package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"github.com/blackbox-rt/modelgen/internal/conformance"
	"github.com/blackbox-rt/modelgen/internal/learner"
	"github.com/blackbox-rt/modelgen/internal/model"
	"github.com/blackbox-rt/modelgen/internal/obs"
	"github.com/blackbox-rt/modelgen/internal/sim"
	"github.com/blackbox-rt/modelgen/internal/trace"
)

// shutdownServer drains a server and fails the test on error.
func shutdownServer(t *testing.T, sv *Server) {
	t.Helper()
	if err := sv.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// debugStreams fetches and decodes /debug/streams.
func debugStreams(t *testing.T, c *client) []StreamDebug {
	t.Helper()
	resp, body := c.do("GET", "/debug/streams", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/debug/streams: %d %s", resp.StatusCode, body)
	}
	var dbg DebugStreamsResponse
	if err := json.Unmarshal(body, &dbg); err != nil {
		t.Fatal(err)
	}
	return dbg.Streams
}

// TestRestartWithoutCheckpointIsLossless is the tentpole durability
// guarantee: every learned period is WAL-durable the moment ingest is
// acknowledged as consumed, so a server that shuts down WITHOUT any
// checkpoint request restores the identical model purely from the
// write-ahead log.
func TestRestartWithoutCheckpointIsLossless(t *testing.T) {
	dir := t.TempDir()
	sv := New(Config{CheckpointDir: dir})
	ts := httptest.NewServer(sv.Handler())
	c := newClient(t, ts)

	tr := trace.PaperFigure2()
	tables, lub := batchTables(t, tr, learner.Options{})
	c.createStream(CreateStreamRequest{ID: "walonly", Tasks: tr.Tasks})
	c.feed("walonly", tr.String()+"period\n")
	waitLearned(t, c, "walonly", len(tr.Periods))

	// No checkpoint POST anywhere; drain and restart.
	shutdownServer(t, sv)
	ts.Close()

	sv2 := New(Config{CheckpointDir: dir})
	if n, err := sv2.RestoreFromDir(); err != nil || n != 1 {
		t.Fatalf("restore: n=%d err=%v", n, err)
	}
	ts2 := httptest.NewServer(sv2.Handler())
	defer ts2.Close()
	c2 := newClient(t, ts2)
	assertModelEquals(t, c2.model("walonly"), tables, lub)
	if st := c2.stats("walonly"); st.PeriodsLearned != len(tr.Periods) {
		t.Fatalf("restored periods = %d, want %d", st.PeriodsLearned, len(tr.Periods))
	}
}

// TestLazyHydrationOnlyTouchedStreams pins the restart-cost contract:
// RestoreFromDir registers every stored stream cold, and only the
// streams actually ingested or queried afterwards hydrate.
func TestLazyHydrationOnlyTouchedStreams(t *testing.T) {
	const nStreams, nActive = 12, 3
	dir := t.TempDir()
	sv := New(Config{CheckpointDir: dir})
	ts := httptest.NewServer(sv.Handler())
	c := newClient(t, ts)
	for i := 0; i < nStreams; i++ {
		id := fmt.Sprintf("s%03d", i)
		c.createStream(CreateStreamRequest{ID: id, Tasks: []string{"t1", "t2"}})
		c.feed(id, learnableFeed(0, 2))
		waitLearned(t, c, id, 2)
	}
	shutdownServer(t, sv)
	ts.Close()

	reg := obs.NewRegistry()
	sv2 := New(Config{CheckpointDir: dir, Registry: reg})
	if n, err := sv2.RestoreFromDir(); err != nil || n != nStreams {
		t.Fatalf("restore: n=%d err=%v", n, err)
	}
	ts2 := httptest.NewServer(sv2.Handler())
	defer ts2.Close()
	c2 := newClient(t, ts2)

	for _, d := range debugStreams(t, c2) {
		if d.Hydrated {
			t.Fatalf("stream %s hydrated right after restore", d.ID)
		}
		if d.LastPeriod != 2 || d.WALRecords == 0 {
			t.Fatalf("cold debug view = %+v", d)
		}
	}

	// Touch a subset: one by ingest, the rest by queries.
	c2.feed("s000", learnableFeed(2000, 1))
	waitLearned(t, c2, "s000", 3)
	c2.model("s001")
	c2.stats("s002") // stats query hydrates too (read-your-writes path)

	hydrated := map[string]bool{}
	for _, d := range debugStreams(t, c2) {
		if d.Hydrated {
			hydrated[d.ID] = true
		}
	}
	for _, id := range []string{"s000", "s001", "s002"} {
		if !hydrated[id] {
			t.Errorf("touched stream %s not hydrated", id)
		}
	}
	if len(hydrated) != nActive {
		t.Errorf("%d streams hydrated, want %d: %v", len(hydrated), nActive, hydrated)
	}
	if m := reg.Snapshot()[obs.MetricStoreHydrations]; m.Value != nActive {
		t.Errorf("%s = %d, want %d", obs.MetricStoreHydrations, m.Value, nActive)
	}
	// The ingested stream continued from its durable state.
	if st := c2.stats("s000"); st.PeriodsLearned != 3 {
		t.Errorf("s000 periods = %d, want 3", st.PeriodsLearned)
	}
}

// TestRestoreQuarantinesCorruptState: a corrupt store stream is moved
// to <dir>/quarantine/ and counted, a stray file at the store root is
// left where it is and not counted, and every healthy stream restores
// and serves.
func TestRestoreQuarantinesCorruptState(t *testing.T) {
	dir := t.TempDir()
	sv := New(Config{CheckpointDir: dir})
	ts := httptest.NewServer(sv.Handler())
	c := newClient(t, ts)
	tr := trace.PaperFigure2()
	tables, lub := batchTables(t, tr, learner.Options{})
	for _, id := range []string{"good", "bad"} {
		c.createStream(CreateStreamRequest{ID: id, Tasks: tr.Tasks})
		c.feed(id, tr.String()+"period\n")
		waitLearned(t, c, id, len(tr.Periods))
	}
	shutdownServer(t, sv)
	ts.Close()

	// Corrupt one stream's manifest and drop a stray file next to the
	// store directories.
	if err := os.WriteFile(filepath.Join(dir, "bad", "manifest.json"), []byte("{torn"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "junk.json"), []byte("not a checkpoint"), 0o644); err != nil {
		t.Fatal(err)
	}

	reg := obs.NewRegistry()
	sv2 := New(Config{CheckpointDir: dir, Registry: reg})
	n, err := sv2.RestoreFromDir()
	if err != nil {
		t.Fatalf("restore must not hard-fail on corrupt state: %v", err)
	}
	if n != 1 {
		t.Fatalf("restored %d streams, want 1", n)
	}
	if m := reg.Snapshot()["serve_restore_quarantined_total"]; m.Value != 1 {
		t.Errorf("serve_restore_quarantined_total = %d, want 1", m.Value)
	}
	if _, err := os.Stat(filepath.Join(dir, "quarantine", "bad")); err != nil {
		t.Errorf("quarantined stream missing: %v", err)
	}
	if _, err := os.Stat(filepath.Join(dir, "junk.json")); err != nil {
		t.Errorf("stray root file moved or removed: %v", err)
	}
	ts2 := httptest.NewServer(sv2.Handler())
	defer ts2.Close()
	c2 := newClient(t, ts2)
	assertModelEquals(t, c2.model("good"), tables, lub)
	if resp, _ := c2.do("GET", "/v1/streams/bad/model", nil); resp.StatusCode != http.StatusNotFound {
		t.Errorf("quarantined stream answers %d, want 404", resp.StatusCode)
	}
}

// TestDriftForkSurvivesRestartWithoutCheckpoint: a generation fork is
// itself a WAL record, so a crash-style restart right after a change
// point restores the forked learner and the monitor mid-flight —
// bit-identical drift state, no checkpoint anywhere.
func TestDriftForkSurvivesRestartWithoutCheckpoint(t *testing.T) {
	dir := t.TempDir()
	sv := New(Config{CheckpointDir: dir})
	ts := httptest.NewServer(sv.Handler())
	c := newClient(t, ts)
	c.createStream(CreateStreamRequest{ID: "fork", Tasks: []string{"t1", "t2"}, Drift: driftEnabled()})

	const flipAt = 20
	c.feed("fork", driftFeed(0, flipAt))
	waitLearned(t, c, "fork", flipAt)
	c.feed("fork", flipFeed(flipAt, 8)) // enough to alarm and fork
	waitLearned(t, c, "fork", flipAt+8)

	dr, before := c.drift("fork")
	if dr.State.Alarms != 1 || dr.State.Generation != 2 {
		t.Fatalf("pre-restart state = %+v", dr.State)
	}
	shutdownServer(t, sv)
	ts.Close()

	sv2 := New(Config{CheckpointDir: dir})
	if n, err := sv2.RestoreFromDir(); err != nil || n != 1 {
		t.Fatalf("restore: n=%d err=%v", n, err)
	}
	ts2 := httptest.NewServer(sv2.Handler())
	defer ts2.Close()
	c2 := newClient(t, ts2)
	if _, after := c2.drift("fork"); string(after) != string(before) {
		t.Fatalf("drift state changed across WAL-only restart:\n%s\nvs\n%s", before, after)
	}
	// The restored generation-2 learner keeps converging on the new
	// regime exactly as the original would.
	c2.feed("fork", flipFeed(flipAt+8, 10))
	waitLearned(t, c2, "fork", flipAt+18)
	if dr, _ := c2.drift("fork"); dr.State.Generation != 2 || dr.State.Alarms != 1 {
		t.Fatalf("post-restart continuation = %+v", dr.State)
	}
}

// TestCompactEndpoint: POST /v1/streams/{id}/compact folds the WAL
// into a fresh base on demand and the debug surface tracks it.
func TestCompactEndpoint(t *testing.T) {
	dir := t.TempDir()
	sv := New(Config{CheckpointDir: dir})
	ts := httptest.NewServer(sv.Handler())
	defer ts.Close()
	c := newClient(t, ts)
	c.createStream(CreateStreamRequest{ID: "cmp", Tasks: []string{"t1", "t2"}})
	c.feed("cmp", learnableFeed(0, 5))
	waitLearned(t, c, "cmp", 5)

	if d := debugStreams(t, c)[0]; d.WALRecords != 5 || d.LastCompaction != "" {
		t.Fatalf("pre-compact debug = %+v", d)
	}
	resp, body := c.do("POST", "/v1/streams/cmp/compact", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("compact: %d %s", resp.StatusCode, body)
	}
	var cr CompactResponse
	if err := json.Unmarshal(body, &cr); err != nil {
		t.Fatal(err)
	}
	if cr.Periods != 5 || cr.WALRecords != 0 {
		t.Fatalf("compact response = %+v", cr)
	}
	if _, err := os.Stat(cr.Path); err != nil {
		t.Fatalf("compacted base %s: %v", cr.Path, err)
	}
	if d := debugStreams(t, c)[0]; d.WALRecords != 0 || d.LastCompaction == "" || d.CheckpointAgeSeconds <= 0 {
		t.Fatalf("post-compact debug = %+v", d)
	}
	// On a store-less server the endpoint is a 409, like checkpoint.
	svNone := New(Config{})
	tsNone := httptest.NewServer(svNone.Handler())
	defer tsNone.Close()
	cNone := newClient(t, tsNone)
	cNone.createStream(CreateStreamRequest{ID: "cmp", Tasks: []string{"t1", "t2"}})
	if resp, _ := cNone.do("POST", "/v1/streams/cmp/compact", nil); resp.StatusCode != http.StatusConflict {
		t.Fatalf("compact without store: %d, want 409", resp.StatusCode)
	}
}

// TestCheckpointSizeIndependentOfLength: a converged stream's durable
// state grows with its model, not with its trace. After 40 and after
// 440 learned periods of the same Figure 1 simulation, the compacted
// base envelope and the /stats body differ by at most a few counter
// digits.
func TestCheckpointSizeIndependentOfLength(t *testing.T) {
	const (
		first, total = 40, 440
		chunk        = 40
		slack        = 64 // bytes of wider counters
	)
	out, err := sim.Run(model.Figure1(), sim.Options{Periods: total, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	tr := out.Trace
	sv := New(Config{CheckpointDir: t.TempDir()})
	ts := httptest.NewServer(sv.Handler())
	defer ts.Close()
	c := newClient(t, ts)
	c.createStream(CreateStreamRequest{ID: "long", Tasks: tr.Tasks, Options: LearnOptions{Bound: 8}})

	fed := 0
	// feedTo feeds periods up to n, compacts, and returns the base
	// envelope's size on disk and the /stats body's size.
	feedTo := func(n int) (base, stats int) {
		for ; fed < n; fed += chunk {
			part := &trace.Trace{Tasks: tr.Tasks, Periods: tr.Periods[fed:min(fed+chunk, n)]}
			c.feed("long", part.String()+"period\n")
			waitLearned(t, c, "long", min(fed+chunk, n))
		}
		resp, body := c.do("POST", "/v1/streams/long/compact", nil)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("compact: %d %s", resp.StatusCode, body)
		}
		var cr CompactResponse
		if err := json.Unmarshal(body, &cr); err != nil {
			t.Fatal(err)
		}
		if cr.Periods != n {
			t.Fatalf("compacted %d periods, want %d", cr.Periods, n)
		}
		fi, err := os.Stat(cr.Path)
		if err != nil {
			t.Fatal(err)
		}
		_, sb := c.do("GET", "/v1/streams/long/stats", nil)
		return int(fi.Size()), len(sb)
	}
	shortBase, shortStats := feedTo(first)
	shortModel := c.model("long")
	longBase, longStats := feedTo(total)
	if !reflect.DeepEqual(c.model("long").Hypotheses, shortModel.Hypotheses) {
		t.Fatalf("stream not converged after %d periods: the size comparison needs an unchanged model", first)
	}
	if longBase > shortBase+slack {
		t.Errorf("base envelope grew from %d B after %d periods to %d B after %d", shortBase, first, longBase, total)
	}
	if longStats > shortStats+slack {
		t.Errorf("/stats body grew from %d B after %d periods to %d B after %d", shortStats, first, longStats, total)
	}
}

// TestServeTornWALTailRecovers: serve-level crash recovery. Bytes
// flipped in the WAL's final frame lose exactly that period — the
// intact prefix hydrates and the stream keeps learning from there.
func TestServeTornWALTailRecovers(t *testing.T) {
	const n = 6
	dir := t.TempDir()
	sv := New(Config{CheckpointDir: dir})
	ts := httptest.NewServer(sv.Handler())
	c := newClient(t, ts)
	c.createStream(CreateStreamRequest{ID: "torn", Tasks: []string{"t1", "t2"}})
	c.feed("torn", learnableFeed(0, n))
	waitLearned(t, c, "torn", n)
	shutdownServer(t, sv)
	ts.Close()

	walPath := filepath.Join(dir, "torn", "wal-1.log")
	b, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	b[len(b)-1] ^= 0xFF // corrupt the last frame's tail
	if err := os.WriteFile(walPath, b, 0o644); err != nil {
		t.Fatal(err)
	}

	sv2 := New(Config{CheckpointDir: dir})
	if nr, err := sv2.RestoreFromDir(); err != nil || nr != 1 {
		t.Fatalf("restore: n=%d err=%v", nr, err)
	}
	ts2 := httptest.NewServer(sv2.Handler())
	defer ts2.Close()
	c2 := newClient(t, ts2)
	if st := c2.stats("torn"); st.PeriodsLearned != n-1 {
		t.Fatalf("periods after torn tail = %d, want %d", st.PeriodsLearned, n-1)
	}
	// Re-feeding the lost period (the documented client contract)
	// lands the stream exactly where it was.
	c2.feed("torn", learnableFeed(int64(n-1)*1000, 1))
	waitLearned(t, c2, "torn", n)
	if d := debugStreams(t, c2)[0]; d.WALRecords != n {
		t.Fatalf("wal records after refeed = %d, want %d", d.WALRecords, n)
	}
}

// TestCorpusWALRestartEquivalence is the acceptance criterion for the
// WAL path: for every golden-corpus entry, feeding half the trace,
// restarting with NO checkpoint, and feeding the rest yields exactly
// the model of an uninterrupted batch run — the strict variant of
// TestCorpusCheckpointRestart where durability comes from the period
// log alone.
func TestCorpusWALRestartEquivalence(t *testing.T) {
	corpus, err := conformance.LoadCorpus("../../testdata/corpus")
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range corpus.Entries {
		e := e
		t.Run(e.Name, func(t *testing.T) {
			opt := LearnOptions{
				Bound:          8,
				SenderWindow:   e.SenderWindow,
				ReceiverWindow: e.ReceiverWindow,
				MaxSenders:     e.MaxSenders,
				MaxReceivers:   e.MaxReceivers,
			}
			tables, lub := batchTables(t, e.Trace, opt.options())

			dir := t.TempDir()
			sv := New(Config{CheckpointDir: dir})
			ts := httptest.NewServer(sv.Handler())
			c := newClient(t, ts)
			c.createStream(CreateStreamRequest{ID: e.Name, Tasks: e.Trace.Tasks, Options: opt})

			lines := strings.Split(strings.TrimRight(e.Trace.String(), "\n"), "\n")
			lines = append(lines, "period")
			half := len(lines) / 2
			c.feed(e.Name, strings.Join(lines[:half], "\n"))
			var replayFrom int
			if st := c.stats(e.Name); st.Partial {
				replayFrom = lastPeriodStart(lines[:half])
			} else {
				replayFrom = half
			}
			// No checkpoint POST: drain so queued periods hit the WAL,
			// then drop the process state.
			shutdownServer(t, sv)
			ts.Close()

			sv2 := New(Config{CheckpointDir: dir})
			if n, err := sv2.RestoreFromDir(); err != nil || n != 1 {
				t.Fatalf("restore: n=%d err=%v", n, err)
			}
			ts2 := httptest.NewServer(sv2.Handler())
			defer ts2.Close()
			c2 := newClient(t, ts2)
			c2.feed(e.Name, strings.Join(lines[replayFrom:], "\n"))
			assertModelEquals(t, c2.model(e.Name), tables, lub)
		})
	}
}
