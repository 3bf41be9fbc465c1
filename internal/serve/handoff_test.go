package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"testing"

	"github.com/blackbox-rt/modelgen/internal/learner"
	"github.com/blackbox-rt/modelgen/internal/trace"
)

// periodText renders one period as an ingest batch: its events in the
// text format followed by the closing "period" directive.
func periodText(p *trace.Period) string {
	var sb strings.Builder
	names := make([]string, 0, len(p.Execs))
	for t := range p.Execs {
		names = append(names, t)
	}
	sort.Strings(names)
	sort.SliceStable(names, func(i, j int) bool {
		return p.Execs[names[i]].Start < p.Execs[names[j]].Start
	})
	for _, t := range names {
		iv := p.Execs[t]
		fmt.Fprintf(&sb, "exec %s %d %d\n", t, iv.Start, iv.End)
	}
	for _, m := range p.Msgs {
		fmt.Fprintf(&sb, "msg %s %d %d\n", m.ID, m.Rise, m.Fall)
	}
	sb.WriteString("period\n")
	return sb.String()
}

// resultTables flattens a learner result into the wire shape models
// are compared in.
func resultTables(t *testing.T, o *learner.Online) ([]string, string) {
	t.Helper()
	res, err := o.Result()
	if err != nil {
		t.Fatal(err)
	}
	var tables []string
	for _, d := range res.Hypotheses {
		tables = append(tables, d.Table())
	}
	return tables, res.LUB.Table()
}

// TestSnapshotDuringIngest pins the drain-before-handoff contract
// migration is built on: a snapshot taken on the owner goroutine while
// the ingest queue is NON-empty covers exactly the drained prefix, and
// restoring it and replaying exactly the still-queued periods yields a
// model bit-identical to the live stream that consumed them in place.
func TestSnapshotDuringIngest(t *testing.T) {
	sv := New(Config{QueueDepth: 16})
	defer sv.Shutdown(context.Background())
	ts := httptest.NewServer(sv.Handler())
	defer ts.Close()
	c := newClient(t, ts)

	tr := trace.PaperFigure2()
	c.createStream(CreateStreamRequest{ID: "fig2", Tasks: tr.Tasks})
	c.feed("fig2", periodText(tr.Periods[0]))

	s, ok := sv.stream("fig2")
	if !ok {
		t.Fatal("stream not registered")
	}

	// Park the owner goroutine inside a request closure. do() drains
	// the queue before running the closure, so period 1 is consumed by
	// the time we are parked; the feeds below then pile up in the queue
	// with the owner unable to drain them.
	parked := make(chan struct{})
	unpark := make(chan struct{})
	var snap *learner.Snapshot
	var snapErr error
	var queuedAtSnap int
	doErr := make(chan error, 1)
	go func() {
		doErr <- s.do(func(o *learner.Online) {
			close(parked)
			<-unpark
			queuedAtSnap = len(s.queue)
			snap, snapErr = o.Snapshot()
		})
	}()
	<-parked
	c.feed("fig2", periodText(tr.Periods[1]))
	c.feed("fig2", periodText(tr.Periods[2]))
	close(unpark)
	if err := <-doErr; err != nil {
		t.Fatal(err)
	}
	if snapErr != nil {
		t.Fatal(snapErr)
	}
	if queuedAtSnap != 2 {
		t.Fatalf("queue depth at snapshot time = %d, want 2 (periods 2 and 3 un-drained)", queuedAtSnap)
	}
	if snap.Stats.Periods != 1 {
		t.Fatalf("snapshot covers %d periods, want exactly the drained prefix of 1", snap.Stats.Periods)
	}

	// The live stream drains its queue before answering the model
	// query (read-your-writes), so this is the three-period model.
	m := c.model("fig2")
	if m.Periods != 3 {
		t.Fatalf("served model covers %d periods, want 3", m.Periods)
	}

	// Restore the mid-ingest snapshot and replay exactly the periods
	// that were still queued when it was taken.
	o2, err := learner.RestoreOnline(snap, s.opt)
	if err != nil {
		t.Fatal(err)
	}
	replay := trace.PaperFigure2() // fresh periods, shared with nothing
	for _, p := range replay.Periods[1:] {
		if err := o2.AddPeriod(p); err != nil {
			t.Fatal(err)
		}
	}
	tables, lub := resultTables(t, o2)
	assertModelEquals(t, m, tables, lub)
}

// TestExportImportHandoff is the serve-level migration round trip:
// export drains the source stream's queue and removes every local
// trace of it (owner, metrics, durable state); import rebuilds it
// elsewhere; continuing the feed there converges on the same model a
// single server would have learned.
func TestExportImportHandoff(t *testing.T) {
	dir1, dir2 := t.TempDir(), t.TempDir()
	sv1 := New(Config{CheckpointDir: dir1})
	defer sv1.Shutdown(context.Background())
	ts1 := httptest.NewServer(sv1.Handler())
	defer ts1.Close()
	c1 := newClient(t, ts1)

	sv2 := New(Config{CheckpointDir: dir2})
	defer sv2.Shutdown(context.Background())
	ts2 := httptest.NewServer(sv2.Handler())
	defer ts2.Close()
	c2 := newClient(t, ts2)

	tr := trace.PaperFigure2()
	c1.createStream(CreateStreamRequest{ID: "mig", Tasks: tr.Tasks})
	c1.feed("mig", periodText(tr.Periods[0]))
	c1.feed("mig", periodText(tr.Periods[1]))

	envelope, learned, err := sv1.ExportStream("mig")
	if err != nil {
		t.Fatal(err)
	}
	// Export drains before snapshotting: both acked periods are in.
	if learned != 2 {
		t.Fatalf("exported learned count = %d, want 2", learned)
	}
	if sv1.StreamExists("mig") {
		t.Fatal("exported stream still registered on the source")
	}
	if resp, _ := c1.do("GET", "/v1/streams/mig/model", nil); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("model on source after export: %d, want 404", resp.StatusCode)
	}
	if _, _, err := sv1.ExportStream("mig"); !errors.Is(err, ErrNoStream) {
		t.Fatalf("re-export: %v, want ErrNoStream", err)
	}

	info, err := sv2.ImportStream(envelope, learned)
	if err != nil {
		t.Fatal(err)
	}
	if info.ID != "mig" {
		t.Fatalf("imported stream id %q, want %q", info.ID, "mig")
	}
	if _, err := sv2.ImportStream(envelope, learned); !errors.Is(err, ErrStreamExists) {
		t.Fatalf("double import: %v, want ErrStreamExists", err)
	}

	// The migrated stream keeps learning on the target.
	c2.feed("mig", periodText(tr.Periods[2]))
	m := c2.model("mig")
	tables, lub := batchTables(t, tr, learner.Options{})
	assertModelEquals(t, m, tables, lub)
	if sr := c2.stats("mig"); sr.PeriodsLearned != 3 {
		t.Fatalf("target learned %d periods, want 3", sr.PeriodsLearned)
	}

	// The source's durable state went with the stream: a server
	// restarted over the source directory restores nothing.
	if err := sv1.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	svr := New(Config{CheckpointDir: dir1})
	defer svr.Shutdown(context.Background())
	if n, err := svr.RestoreFromDir(); err != nil {
		t.Fatal(err)
	} else if n != 0 {
		t.Fatalf("source dir restored %d streams after export, want 0", n)
	}

	// And the target's state is durable there: restart and re-read.
	if err := sv2.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	ts2.Close()
	sv2b := New(Config{CheckpointDir: dir2})
	defer sv2b.Shutdown(context.Background())
	if n, err := sv2b.RestoreFromDir(); err != nil {
		t.Fatal(err)
	} else if n != 1 {
		t.Fatalf("target dir restored %d streams, want 1", n)
	}
	ts2b := httptest.NewServer(sv2b.Handler())
	defer ts2b.Close()
	c2b := newClient(t, ts2b)
	assertModelEquals(t, c2b.model("mig"), tables, lub)
}

// TestExportImportCarriesDrift checks the envelope carries the drift
// monitor: generation, period count, and fingerprint survive the hop.
func TestExportImportCarriesDrift(t *testing.T) {
	sv1 := New(Config{})
	defer sv1.Shutdown(context.Background())
	ts1 := httptest.NewServer(sv1.Handler())
	defer ts1.Close()
	c1 := newClient(t, ts1)

	sv2 := New(Config{})
	defer sv2.Shutdown(context.Background())
	ts2 := httptest.NewServer(sv2.Handler())
	defer ts2.Close()
	c2 := newClient(t, ts2)

	tr := trace.PaperFigure2()
	c1.createStream(CreateStreamRequest{
		ID:    "drifty",
		Tasks: tr.Tasks,
		Drift: &DriftOptions{Enabled: true},
	})
	for _, p := range tr.Periods {
		c1.feed("drifty", periodText(p))
	}
	before := driftState(t, c1, "drifty")
	if before == nil || before.Periods != 3 {
		t.Fatalf("source drift state %+v, want 3 observed periods", before)
	}

	envelope, learned, err := sv1.ExportStream("drifty")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sv2.ImportStream(envelope, learned); err != nil {
		t.Fatal(err)
	}
	after := driftState(t, c2, "drifty")
	if after == nil {
		t.Fatal("imported stream lost its drift monitor")
	}
	if after.Generation != before.Generation || after.Periods != before.Periods ||
		after.Fingerprint != before.Fingerprint {
		t.Fatalf("drift state changed across handoff:\nbefore %+v\nafter  %+v", before, after)
	}
}

func driftState(t *testing.T, c *client, id string) *driftStateView {
	t.Helper()
	resp, out := c.do("GET", "/v1/streams/"+id+"/drift", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("drift %s: %d %s", id, resp.StatusCode, out)
	}
	var dr DriftResponse
	if err := json.Unmarshal(out, &dr); err != nil {
		t.Fatal(err)
	}
	if !dr.Enabled || dr.State == nil {
		return nil
	}
	return &driftStateView{
		Generation:  dr.State.Generation,
		Periods:     dr.State.Periods,
		Fingerprint: dr.State.Fingerprint,
	}
}

type driftStateView struct {
	Generation  int
	Periods     int
	Fingerprint string
}

// TestImportRejectsBadEnvelopes covers the envelope validation edges.
func TestImportRejectsBadEnvelopes(t *testing.T) {
	sv := New(Config{})
	defer sv.Shutdown(context.Background())

	if _, err := sv.ImportStream([]byte("not json"), 0); err == nil {
		t.Fatal("undecodable envelope accepted")
	}
	if _, err := sv.ImportStream([]byte(`{"serve_version":99}`), 0); err == nil {
		t.Fatal("future envelope version accepted")
	}
	if _, err := sv.ImportStream([]byte(`{"serve_version":1,"info":{"id":"x"}}`), 0); err == nil {
		t.Fatal("envelope without a snapshot accepted")
	}
	if _, err := sv.ImportStream([]byte(`{"serve_version":1,"info":{"id":"x","tasks":["a","b"]},"snapshot":{"version":2,`+
		`"tasks":["b","a"],"history":"0000","working_packed":["AAAAAAAAAAA="]}}`), 0); err == nil {
		t.Fatal("envelope whose snapshot and stream task sets differ accepted")
	}
	// The learner would restore at bound 150 from the snapshot, then
	// fork its next generation at bound 1 from the stream options.
	if _, err := sv.ImportStream([]byte(`{"serve_version":1,"info":{"id":"x","tasks":["a","b"],"options":{"bound":1}},`+
		`"snapshot":{"version":2,"tasks":["a","b"],"bound":150,"history":"0000","working_packed":["AAAAAAAAAAA="]}}`), 0); err == nil {
		t.Fatal("envelope whose snapshot and stream learner options differ accepted")
	}
}
