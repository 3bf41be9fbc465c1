package trace

import (
	"strings"
	"testing"

	"github.com/blackbox-rt/modelgen/internal/obs"
)

// The observed parsing entry point times itself with a
// trace_parse span, so phase histograms cover the whole offline
// pipeline, not just the learner.
func TestReadObservedEmitsSpan(t *testing.T) {
	var sb strings.Builder
	if err := Write(&sb, PaperFigure2()); err != nil {
		t.Fatal(err)
	}
	rec := obs.NewRecorder()
	if _, err := ReadObserved(strings.NewReader(sb.String()), rec); err != nil {
		t.Fatal(err)
	}
	assertOneParseSpan(t, rec)

	// The span is emitted on the error path too: a partial parse is
	// still a timed phase.
	rec = obs.NewRecorder()
	if _, err := ReadObserved(strings.NewReader("tasks t1\nbogus line here\n"), rec); err == nil {
		t.Fatal("malformed trace accepted")
	}
	assertOneParseSpan(t, rec)
}

func assertOneParseSpan(t *testing.T, rec *obs.Recorder) {
	t.Helper()
	spans := rec.OfKind("span")
	if len(spans) != 1 {
		t.Fatalf("span events = %d, want 1", len(spans))
	}
	if e := spans[0].(obs.SpanEnd); e.Phase != obs.PhaseTraceParse || e.ElapsedNS < 0 {
		t.Errorf("span = %+v", e)
	}
}
