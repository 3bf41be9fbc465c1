package cluster

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
)

// TestClusterRequestRoutedBeforeMigrationIsRerouted: an events POST
// the gateway routed to the owner just before a migration reaches the
// owner only after the handoff took the stream away. The deposed
// owner refuses it, having applied nothing, and the gateway re-sends
// the buffered batch to the new owner once the migration settles: the
// client sees one 202 and the period is learned exactly once.
func TestClusterRequestRoutedBeforeMigrationIsRerouted(t *testing.T) {
	tc := newTestCluster(t, []string{"n1", "n2", "n3"}, 0)
	ds := newCorpus(1, 2)
	tc.createCorpus(ds)
	mig := ds[0]
	for mig.sent < 3 {
		if !tc.feedNext(mig) {
			t.Fatalf("feed %s failed with the cluster healthy", mig.id)
		}
	}
	source, _ := tc.gw.Owner(mig.id)
	var target string
	for _, n := range tc.order {
		if n != source {
			target = n
			break
		}
	}

	// Hold the next events POST at the source's door.
	src := tc.nodes[source]
	inner := src.node.Handler()
	arrived, release := make(chan struct{}), make(chan struct{})
	staleCode := make(chan int, 1)
	var once sync.Once
	src.tr.setHandler(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		held := false
		if r.Method == http.MethodPost && strings.HasSuffix(r.URL.Path, "/events") {
			once.Do(func() { held = true })
		}
		if !held {
			inner.ServeHTTP(w, r)
			return
		}
		close(arrived)
		<-release
		inner.ServeHTTP(w, r)
		staleCode <- w.(*httptest.ResponseRecorder).Code
	}))

	status := make(chan int, 1)
	go func() {
		resp, err := http.Post(tc.gwts.URL+"/v1/streams/"+mig.id+"/events", "text/plain",
			bytes.NewReader([]byte(mig.batches[mig.sent])))
		if err != nil {
			t.Error(err)
			status <- 0
			return
		}
		resp.Body.Close()
		status <- resp.StatusCode
	}()
	<-arrived

	// Deliver the held request inside the migration's fatal window:
	// the source has exported the stream and raised its fence, the
	// target has not imported it yet.
	var stale int
	tc.gw.hookAfterHandoff = func(string) {
		close(release)
		stale = <-staleCode
	}
	defer func() { tc.gw.hookAfterHandoff = nil }()
	if err := tc.gw.Migrate(mig.id, target); err != nil {
		t.Fatal(err)
	}
	if stale != http.StatusPreconditionFailed {
		t.Fatalf("the deposed owner answered the stale request %d, want 412", stale)
	}
	if got := <-status; got != http.StatusAccepted {
		t.Fatalf("the client got %d for a batch routed before the migration, want 202", got)
	}
	mig.sent++
	tc.finish(ds)
	tc.assertEquivalent(ds)

	// With no migration in flight a 404 passes through.
	if got, body := tc.gdo(http.MethodGet, "/v1/streams/nope/model", nil, nil); got != http.StatusNotFound {
		t.Fatalf("model of an unknown stream: %d %s, want 404", got, body)
	}
}
