package serve

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"github.com/blackbox-rt/modelgen/internal/learner"
)

// FuzzImportEnvelope feeds arbitrary bytes to ImportStream, the decode
// path that takes envelopes from a network peer. It must never panic,
// and an envelope it accepts must export again to an equal snapshot.
func FuzzImportEnvelope(f *testing.F) {
	base, err := os.ReadFile(filepath.Join("testdata", "compat", "base.json"))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(base)
	f.Add([]byte(`{"serve_version":1,"info":{"id":"x","tasks":["a","b"]},"snapshot":{"version":2,` +
		`"tasks":["a","b"],"history":"0000","working_packed":["AAAAAAAAAAA="],"stats":{"Periods":1}}}`))
	// Non-zero base64 padding bits: the same matrix as above, spelled
	// differently.
	f.Add([]byte(`{"serve_version":1,"info":{"id":"x","tasks":["a","b"]},"snapshot":{"version":2,` +
		`"tasks":["a","b"],"history":"0000","working_packed":["AAAAAAAAAAB="],"stats":{"Periods":1}}}`))
	f.Add([]byte(`{"serve_version":1,"info":{"id":"x"}}`))
	f.Add([]byte("not json"))
	f.Fuzz(func(t *testing.T, envelope []byte) {
		in, err := decodeCheckpoint(envelope)
		if err != nil {
			return
		}
		sv := New(Config{})
		defer sv.Shutdown(context.Background())
		info, err := sv.ImportStream(envelope, 0)
		if err != nil {
			return
		}
		out, _, err := sv.ExportStream(info.ID)
		if err != nil {
			t.Fatalf("accepted envelope does not export: %v", err)
		}
		got, err := decodeCheckpoint(out)
		if err != nil {
			t.Fatalf("exported envelope does not decode: %v\n%s", err, out)
		}
		if g, w := snapshotState(got.Snapshot), snapshotState(in.Snapshot); !reflect.DeepEqual(g, w) {
			t.Fatalf("export changed the snapshot:\n got %+v\nwant %+v", g, w)
		}
		// The export is canonical: importing it again exports the same
		// bytes.
		if _, err := sv.ImportStream(out, 0); err != nil {
			t.Fatalf("exported envelope is refused: %v\n%s", err, out)
		}
		again, _, err := sv.ExportStream(info.ID)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(again, out) {
			t.Fatalf("second export differs:\n got %s\nwant %s", again, out)
		}
	})
}

// snapshotState is the part of a snapshot that restore carries over
// verbatim. Restore re-derives Stats.Peak from the working set, and
// the retained periods may come back re-ordered or with empty lists as
// null, so only their count is kept.
func snapshotState(s *learner.Snapshot) learner.Snapshot {
	c := *s
	c.Stats.Peak = 0
	c.Retained = make([]learner.SnapshotPeriod, len(s.Retained))
	return c
}
