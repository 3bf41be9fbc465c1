package serve

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"

	"github.com/blackbox-rt/modelgen/internal/learner"
	"github.com/blackbox-rt/modelgen/internal/obs"
)

// TestHandoffRacingIngestLosesNothing: requests that looked the stream
// up before an export began keep ingesting while it runs, the way a
// request routed just before a migration does. Every batch they had
// accepted must be in the exported envelope, and every batch refused
// must be refused whole with ErrStreamClosed — never accepted into the
// retiring stream, where the migrated copy would not hold it.
func TestHandoffRacingIngestLosesNothing(t *testing.T) {
	for iter := range 30 {
		sv := New(Config{QueueDepth: 64})
		id := fmt.Sprintf("race%d", iter)
		info := StreamInfo{ID: id, Tasks: []string{"t1", "t2"}}
		if _, err := sv.addStream(info, nil, 0, nil); err != nil {
			t.Fatal(err)
		}
		s, _ := sv.stream(id)
		// The export starts once a few batches are in, with the
		// ingester still going.
		head := iter % 5
		started, accepted := make(chan struct{}), make(chan int)
		go func() {
			n := 0
			for k := 0; ; k++ {
				if k == head {
					close(started)
				}
				lines := strings.Split(learnableFeed(int64(k)*1000, 1), "\n")
				_, shed, err := s.ingest(lines, obs.SpanContext{})
				switch {
				case shed:
					continue
				case errors.Is(err, ErrStreamClosed):
					accepted <- n
					return
				case err != nil:
					t.Errorf("ingest: %v", err)
					accepted <- n
					return
				}
				n++
			}
		}()
		<-started
		env, learned, err := sv.ExportStream(id)
		if err != nil {
			t.Fatal(err)
		}
		n := <-accepted
		if learned != n {
			t.Fatalf("iteration %d: %d batches accepted, the export holds %d", iter, n, learned)
		}
		cf, err := decodeCheckpoint(env)
		if err != nil {
			t.Fatal(err)
		}
		o, err := learner.RestoreOnline(cf.Snapshot, learner.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if got := o.Stats().Periods; got != n {
			t.Fatalf("iteration %d: envelope learned %d periods, %d accepted", iter, got, n)
		}
		if err := sv.Shutdown(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
}
