package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"github.com/blackbox-rt/modelgen/internal/learner"
	"github.com/blackbox-rt/modelgen/internal/store"
	"github.com/blackbox-rt/modelgen/internal/trace"
)

// The compatibility fixture under testdata/compat/ is a stream's
// durable state as the binary at commit 466b47f wrote it: base.json is
// the base envelope after the first period (its snapshot still carries
// the rendered "working" tables beside "working_packed"), and
// wal.jsonl holds the WAL record payloads of the remaining periods, one
// per line. Both came from recordCompatRun below. The fixture is never
// regenerated: its point is that it predates the current encoder. It
// also predates the deletion of the per-period live series: its
// snapshot stats carry "PeriodLive", and each WAL delta carries
// "live" and a null stats "PeriodLive", keys the current decoder
// ignores and the current encoder no longer writes.

const compatID = "compat"

// compatTrace is the fixture's input: the paper's Figure 2 periods
// followed by a repeat of the third, so the WAL holds both
// working-set edit scripts and an unchanged-set ("same") delta.
func compatTrace() *trace.Trace {
	tr := trace.PaperFigure2()
	again := tr.Periods[2].Clone()
	again.Index = len(tr.Periods)
	tr.Periods = append(tr.Periods, again)
	return tr
}

func compatRequest() CreateStreamRequest {
	return CreateStreamRequest{ID: compatID, Tasks: compatTrace().Tasks,
		Options: LearnOptions{RetainPeriods: 2}, Drift: driftEnabled()}
}

// recordCompatRun serves compatTrace through a server persisting to
// dir: the first period, an on-demand compaction (so the base holds
// learned state), then the rest as WAL records. It returns the stored
// base envelope and the WAL payloads in sequence order.
func recordCompatRun(t *testing.T, dir string) (base []byte, payloads [][]byte) {
	t.Helper()
	tr := compatTrace()
	sv := New(Config{CheckpointDir: dir})
	ts := httptest.NewServer(sv.Handler())
	c := newClient(t, ts)
	c.createStream(compatRequest())
	c.feed(compatID, (&trace.Trace{Tasks: tr.Tasks, Periods: tr.Periods[:1]}).String()+"period\n")
	waitLearned(t, c, compatID, 1)
	if resp, body := c.do("POST", "/v1/streams/"+compatID+"/compact", nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("compact: %d %s", resp.StatusCode, body)
	}
	c.feed(compatID, (&trace.Trace{Tasks: tr.Tasks, Periods: tr.Periods[1:]}).String()+"period\n")
	waitLearned(t, c, compatID, len(tr.Periods))
	shutdownServer(t, sv)
	ts.Close()

	st, err := store.Open(store.Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	h, err := st.OpenStream(compatID)
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	base, recs, err := h.Load()
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range recs {
		payloads = append(payloads, r.Payload)
	}
	return base, payloads
}

// readCompatFixture loads testdata/compat/.
func readCompatFixture(t *testing.T) (base []byte, payloads [][]byte) {
	t.Helper()
	base, err := os.ReadFile(filepath.Join("testdata", "compat", "base.json"))
	if err != nil {
		t.Fatal(err)
	}
	wal, err := os.ReadFile(filepath.Join("testdata", "compat", "wal.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	return base, bytes.Split(bytes.TrimSuffix(wal, []byte("\n")), []byte("\n"))
}

// jsonMap decodes a JSON object.
func jsonMap(t *testing.T, b []byte) map[string]any {
	t.Helper()
	var m map[string]any
	if err := json.Unmarshal(b, &m); err != nil {
		t.Fatal(err)
	}
	return m
}

// dropFixtureKeys deletes keys from obj, failing when the fixture lacks
// one (then it was not written by the older encoder).
func dropFixtureKeys(t *testing.T, obj map[string]any, keys ...string) {
	t.Helper()
	for _, k := range keys {
		if _, ok := obj[k]; !ok {
			t.Fatalf("fixture has no %q key; it was not written by the older encoder", k)
		}
		delete(obj, k)
	}
}

// fixturePayload decodes a fixture WAL payload without the keys of
// the deleted live series: delta.live and delta.stats.PeriodLive.
func fixturePayload(t *testing.T, p []byte) map[string]any {
	t.Helper()
	m := jsonMap(t, p)
	delta := m["delta"].(map[string]any)
	dropFixtureKeys(t, delta, "live")
	dropFixtureKeys(t, delta["stats"].(map[string]any), "PeriodLive")
	return m
}

// settleWorkCounters fails unless each engine work counter (children
// created, merges, in-period peak) in the stats object cur is at most
// its value in the fixture's stats object old, then copies the
// fixture's values into cur so that the caller's comparison of every
// other key stays exact. The counters count work, not model: the older
// binary generalized every period, while the current engine skips a
// period whose shape cannot change the model, so it may count less.
func settleWorkCounters(t *testing.T, what string, cur, old map[string]any) {
	t.Helper()
	for _, k := range []string{"Children", "Merges", "Peak"} {
		c, ok1 := cur[k].(float64)
		o, ok2 := old[k].(float64)
		if !ok1 || !ok2 {
			t.Fatalf("%s: work counter %q missing (current %v, fixture %v)", what, k, cur[k], old[k])
		}
		if c > o {
			t.Errorf("%s: %s = %v, above the fixture's %v", what, k, c, o)
		}
		cur[k] = o
	}
}

// TestCompatFixtureHydrates: a store holding the older binary's base
// envelope and WAL hydrates to the batch learner's model, to a learner
// state bit-identical to a session that never left memory, and every
// WAL delta re-encodes to the JSON on disk less the live-series keys.
func TestCompatFixtureHydrates(t *testing.T) {
	base, payloads := readCompatFixture(t)
	tr := compatTrace()
	if want := len(tr.Periods) - 1; len(payloads) != want {
		t.Fatalf("fixture holds %d WAL payloads, want %d", len(payloads), want)
	}
	cf, err := decodeCheckpoint(base)
	if err != nil {
		t.Fatalf("decode fixture base: %v", err)
	}

	// Served path: seed a store with the fixture and restore from it.
	dir := t.TempDir()
	st, err := store.Open(store.Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	meta, err := json.Marshal(cf.Info)
	if err != nil {
		t.Fatal(err)
	}
	h, err := st.Create(compatID, meta, base, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range payloads {
		if err := h.Append(store.Record{Seq: uint64(i + 2), Generation: 1, Payload: p}); err != nil {
			t.Fatal(err)
		}
	}
	h.Close()
	sv := New(Config{CheckpointDir: dir})
	if n, err := sv.RestoreFromDir(); err != nil || n != 1 {
		t.Fatalf("restore: n=%d err=%v", n, err)
	}
	ts := httptest.NewServer(sv.Handler())
	defer ts.Close()
	c := newClient(t, ts)
	tables, lub := batchTables(t, tr, compatRequest().Options.options())
	assertModelEquals(t, c.model(compatID), tables, lub)
	if got := c.stats(compatID).PeriodsLearned; got != len(tr.Periods) {
		t.Errorf("restored periods = %d, want %d", got, len(tr.Periods))
	}
	shutdownServer(t, sv)

	// Learner state: fixture base + deltas versus an uninterrupted
	// session, compared through their full snapshots.
	o, err := learner.RestoreOnline(cf.Snapshot, learner.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range payloads {
		var e walEntry
		if err := json.Unmarshal(p, &e); err != nil {
			t.Fatalf("payload %d: %v", i, err)
		}
		if e.Delta == nil {
			t.Fatalf("payload %d carries no delta", i)
		}
		if err := o.ApplyDelta(e.Delta); err != nil {
			t.Fatalf("payload %d: %v", i, err)
		}
		again, err := json.Marshal(&e)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(jsonMap(t, again), fixturePayload(t, p)) {
			t.Errorf("payload %d re-encodes differently:\n got %s\nwant %s", i, again, p)
		}
	}
	live, err := learner.NewOnline(tr.Tasks, compatRequest().Options.options())
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range tr.Periods {
		if err := live.AddPeriod(p); err != nil {
			t.Fatal(err)
		}
	}
	got, err := o.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	want, err := live.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	gotJSON, err := json.Marshal(got)
	if err != nil {
		t.Fatal(err)
	}
	wantJSON, err := json.Marshal(want)
	if err != nil {
		t.Fatal(err)
	}
	hydrated, uninterrupted := jsonMap(t, gotJSON), jsonMap(t, wantJSON)
	settleWorkCounters(t, "uninterrupted session", uninterrupted["stats"].(map[string]any), hydrated["stats"].(map[string]any))
	if !reflect.DeepEqual(hydrated, uninterrupted) {
		t.Errorf("hydrated learner differs from an uninterrupted session:\n got %s\nwant %s", gotJSON, wantJSON)
	}
}

// TestCompatFixtureMatchesCurrentEncoder: the current binary, serving
// the fixture's run, writes WAL payloads and a base envelope that
// differ from the older ones only by the dropped "working" table array
// and the dropped live-series keys.
func TestCompatFixtureMatchesCurrentEncoder(t *testing.T) {
	oldBase, oldPayloads := readCompatFixture(t)
	base, payloads := recordCompatRun(t, t.TempDir())
	if len(payloads) != len(oldPayloads) {
		t.Fatalf("%d WAL payloads, fixture has %d", len(payloads), len(oldPayloads))
	}
	for i := range payloads {
		cur, old := jsonMap(t, payloads[i]), fixturePayload(t, oldPayloads[i])
		settleWorkCounters(t, fmt.Sprintf("WAL payload %d", i),
			cur["delta"].(map[string]any)["stats"].(map[string]any), old["delta"].(map[string]any)["stats"].(map[string]any))
		if !reflect.DeepEqual(cur, old) {
			t.Errorf("WAL payload %d differs from the fixture:\n got %s\nwant %s", i, payloads[i], oldPayloads[i])
		}
	}
	cur, old := jsonMap(t, base), jsonMap(t, oldBase)
	oldSnap := old["snapshot"].(map[string]any)
	dropFixtureKeys(t, oldSnap, "working")
	dropFixtureKeys(t, oldSnap["stats"].(map[string]any), "PeriodLive")
	if !reflect.DeepEqual(cur, old) {
		t.Errorf("base envelope differs beyond the dropped working tables and live series:\n got %s\nwant %s", base, oldBase)
	}
}
