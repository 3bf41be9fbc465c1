package conformance

import (
	"testing"

	"github.com/blackbox-rt/modelgen/internal/depfunc"
	"github.com/blackbox-rt/modelgen/internal/learner"
	"github.com/blackbox-rt/modelgen/internal/model"
	"github.com/blackbox-rt/modelgen/internal/trace"
)

// Size caps keep individual fuzz executions fast; inputs beyond them
// are valid but uninteresting (the corpus covers big traces).
const (
	fuzzMaxTasks   = 8
	fuzzMaxPeriods = 12
	fuzzMaxMsgs    = 40
	fuzzMaxHyp     = 500
)

// FuzzLearn is the end-to-end target: arbitrary text goes through the
// trace parser, the bounded and (when tractable) exact learners, and
// the verification layer. Nothing may panic, and every result must
// satisfy the universal conformance properties — VerifyResults lets
// only matching hypotheses through, exact-mode hypotheses match their
// own trace, and the verifier's report stays internally consistent.
func FuzzLearn(f *testing.F) {
	f.Add(trace.PaperFigure2().String())
	if tr, err := simTrace(model.Figure1(), 4, 3); err == nil {
		f.Add(tr.String())
	}
	f.Add("tasks a b c\nperiod\nexec a 0 5\nmsg m1 6 7\nexec b 9 12\nperiod\nexec a 100 105\nmsg m2 106 107\nexec c 110 115\n")
	f.Add("tasks a b\nperiod\nexec a 0 5\nexec b 2 8\nmsg m1 3 4\n")
	f.Add("tasks t1\nperiod\nstart t1 0\nend t1 4\n")
	f.Add("tasks a b\nperiod\nmsg m1 5 1\n") // inverted edge
	f.Fuzz(func(t *testing.T, input string) {
		tr, err := trace.ReadString(input)
		if err != nil {
			return
		}
		if len(tr.Tasks) > fuzzMaxTasks || len(tr.Periods) > fuzzMaxPeriods {
			return
		}
		msgs := 0
		for _, p := range tr.Periods {
			msgs += len(p.Msgs)
		}
		if msgs > fuzzMaxMsgs {
			return
		}

		bounded, err := learner.Learn(tr, learner.Options{Bound: 4})
		if err != nil {
			// Degenerate parses (no explainable messages, hypothesis
			// blow-ups) are legitimate rejections, not crashes.
			return
		}
		// Merged hypotheses need not individually match the trace (a
		// mid-period merge splices two explanation lineages, and the
		// joined function may admit no single distinct-pair assignment
		// — fuzzing found such traces, which is what Options.
		// VerifyResults exists for). The universal contract is that the
		// VerifyResults filter leaves only matching hypotheses.
		verified, err := learner.Learn(tr, learner.Options{Bound: 4, VerifyResults: true})
		if err == nil {
			for i, d := range verified.Hypotheses {
				if ok, p := depfunc.MatchTrace(d, tr, depfunc.CandidatePolicy{}); !ok {
					t.Fatalf("VerifyResults let hypothesis %d through but it fails at period %d\ninput:\n%s", i, p, input)
				}
			}
		}
		if vs := VerifierConsistency(bounded.LUB); len(vs) > 0 {
			t.Fatalf("verifier inconsistency: %v\ninput:\n%s", vs[0], input)
		}

		// The bounded-vs-exact envelope containment is deliberately NOT
		// asserted here: it is an empirical regression pin on the curated
		// corpus (see BoundMonotonicity), not a universal theorem —
		// fuzzing found degenerate traces (zero-length executions,
		// duplicate labels) where the exact most-specific frontier's LUB
		// is smaller than a merged bounded hypothesis. Exact-mode
		// consistency, however, is universal: every surviving hypothesis
		// must match the trace it was learned from.
		exact, err := learner.Learn(tr, learner.Options{MaxHypotheses: fuzzMaxHyp})
		if err != nil {
			return // intractable or degenerate in exact mode: fine
		}
		for i, d := range exact.Hypotheses {
			if ok, p := depfunc.MatchTrace(d, tr, depfunc.CandidatePolicy{}); !ok {
				t.Fatalf("exact hypothesis %d fails to match its own trace at period %d\ninput:\n%s", i, p, input)
			}
		}
	})
}

// FuzzCompleteness runs the Theorem-3 oracle on arbitrary three-task
// text traces: the exact result must be exactly the ⊑-minimal
// consistent set of the full enumeration, and every bounded result
// must dominate an exact one. Inputs that do not parse, have another
// task count, exceed the FuzzLearn size caps or that the learner
// rejects (no explainable assignment) are skipped.
func FuzzCompleteness(f *testing.F) {
	for _, seed := range thm3Seeds[:4] {
		if tr, err := thm3Trace(seed); err == nil {
			f.Add(tr.String())
		}
	}
	f.Add("tasks a b c\nperiod\nexec a 0 5\nmsg m1 6 7\nexec b 9 12\nperiod\nexec a 100 105\nmsg m2 106 107\nexec c 110 115\n")
	f.Fuzz(func(t *testing.T, input string) {
		tr, err := trace.ReadString(input)
		if err != nil || len(tr.Tasks) != 3 || len(tr.Periods) > fuzzMaxPeriods {
			return
		}
		msgs := 0
		for _, p := range tr.Periods {
			msgs += len(p.Msgs)
		}
		if msgs > fuzzMaxMsgs {
			return
		}
		vs, err := Thm3Completeness(tr, depfunc.CandidatePolicy{}, thm3Bounds)
		if err != nil {
			return
		}
		for _, v := range vs {
			t.Errorf("%s: %s", v.Property, v.Detail)
		}
		if len(vs) > 0 {
			t.Fatalf("input:\n%s", input)
		}
	})
}
