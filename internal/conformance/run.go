package conformance

import (
	"errors"
	"fmt"
	"time"

	"github.com/blackbox-rt/modelgen/internal/depfunc"
	"github.com/blackbox-rt/modelgen/internal/lattice"
	"github.com/blackbox-rt/modelgen/internal/learner"
	"github.com/blackbox-rt/modelgen/internal/model"
	"github.com/blackbox-rt/modelgen/internal/obs"
	"github.com/blackbox-rt/modelgen/internal/trace"
)

// ReportSchemaVersion versions the JSON conformance report emitted by
// cmd/bbconform.
const ReportSchemaVersion = 1

// Oracle statuses.
const (
	StatusPass = "pass"
	StatusFail = "fail"
	StatusSkip = "skip"
)

// OracleResult is the outcome of one oracle on one input.
type OracleResult struct {
	Oracle     string      `json:"oracle"`
	Status     string      `json:"status"`
	Detail     string      `json:"detail,omitempty"`
	Violations []Violation `json:"violations,omitempty"`
	ElapsedMS  int64       `json:"elapsed_ms"`
}

// EntryReport groups the oracle results of one corpus entry.
type EntryReport struct {
	Name    string         `json:"name"`
	Results []OracleResult `json:"results"`
}

// Report is the full conformance report.
type Report struct {
	SchemaVersion int            `json:"schema_version"`
	CorpusVersion string         `json:"corpus_version"`
	Global        []OracleResult `json:"global"`
	Entries       []EntryReport  `json:"entries"`
	Oracles       int            `json:"oracles"`
	Passed        int            `json:"passed"`
	Skipped       int            `json:"skipped"`
	Failed        int            `json:"failed"`
	Violations    int            `json:"violations"`
}

// Ok reports whether every oracle passed or was skipped.
func (r *Report) Ok() bool { return r.Failed == 0 }

// Run executes the corpus-independent oracles once and every
// applicable per-entry oracle over the corpus, reporting progress as
// stage-"conformance" pipeline events on o (nil disables emission).
func Run(c *Corpus, o obs.Observer) *Report {
	r := &Report{SchemaVersion: ReportSchemaVersion, CorpusVersion: c.Version}
	r.Global = append(r.Global,
		record(r, o, "corpus", "lattice", func() ([]Violation, error) { return LatticeLaws(), nil }),
		record(r, o, "corpus", "fingerprint", func() ([]Violation, error) { return FingerprintKeyAgreement(), nil }),
		record(r, o, "corpus", "thm3", thm3Sweep),
	)
	for _, e := range c.Entries {
		er := EntryReport{Name: e.Name}
		pol := e.Policy()
		if e.Thm2 {
			er.Results = append(er.Results, record(r, o, e.Name, "thm2", func() ([]Violation, error) {
				return Thm2Soundness(e.Trace, e.Truth, pol, MaxExactHypotheses)
			}))
		}
		if e.Exact {
			er.Results = append(er.Results, record(r, o, e.Name, "bound", func() ([]Violation, error) {
				return BoundMonotonicity(e.Trace, e.Bounds, pol, MaxExactHypotheses)
			}))
		}
		er.Results = append(er.Results, record(r, o, e.Name, "metamorphic", func() ([]Violation, error) {
			opt := learner.Options{Policy: pol}
			if e.Exact {
				opt.MaxHypotheses = MaxExactHypotheses
			} else {
				opt.Bound = maxBound(e.Bounds)
			}
			return Metamorphic(e.Trace, opt)
		}))
		er.Results = append(er.Results, record(r, o, e.Name, "verify", func() ([]Violation, error) {
			res, err := learner.Learn(e.Trace, learner.Options{Bound: maxBound(e.Bounds), Policy: pol})
			if err != nil {
				return nil, err
			}
			return VerifierConsistency(res.LUB), nil
		}))
		er.Results = append(er.Results, record(r, o, e.Name, "drift", driftOracle(e)))
		r.Entries = append(r.Entries, er)
	}
	return r
}

// driftOracle builds the drift-detection closure for one entry: the
// bounded learner mirrors what the serving layer runs in production,
// so the oracle measures the deployed signal path, not a lab variant.
func driftOracle(e *Entry) func() ([]Violation, error) {
	return func() ([]Violation, error) {
		return DriftDetection(e, learner.Options{Bound: maxBound(e.Bounds), Policy: e.Policy()})
	}
}

// RunDrift executes only the drift oracle over the corpus — the quick
// drift-focused gate behind `make drift` and `bbconform -drift`:
// change-point detection on drift-marked entries, zero false alarms on
// the stationary rest.
func RunDrift(c *Corpus, o obs.Observer) *Report {
	r := &Report{SchemaVersion: ReportSchemaVersion, CorpusVersion: c.Version}
	for _, e := range c.Entries {
		er := EntryReport{Name: e.Name}
		er.Results = append(er.Results, record(r, o, e.Name, "drift", driftOracle(e)))
		r.Entries = append(r.Entries, er)
	}
	return r
}

func maxBound(bounds []int) int {
	max := 8
	for _, b := range bounds {
		if b > max {
			max = b
		}
	}
	return max
}

// record runs one oracle, classifies its outcome and updates the
// report tallies plus the observer stream.
func record(r *Report, o obs.Observer, entry, oracle string, fn func() ([]Violation, error)) OracleResult {
	t0 := time.Now()
	vs, err := fn()
	res := OracleResult{Oracle: oracle, ElapsedMS: time.Since(t0).Milliseconds(), Violations: vs}
	switch {
	case errors.Is(err, ErrOracleSkipped):
		res.Status = StatusSkip
		res.Detail = err.Error()
	case err != nil:
		res.Status = StatusFail
		res.Detail = err.Error()
	case len(vs) > 0:
		res.Status = StatusFail
	default:
		res.Status = StatusPass
	}
	r.Oracles++
	switch res.Status {
	case StatusPass:
		r.Passed++
	case StatusSkip:
		r.Skipped++
	default:
		r.Failed++
		r.Violations += len(vs)
	}
	if o != nil {
		o.OnPipeline(obs.Pipeline{
			Stage: "conformance",
			Name:  "oracle_" + res.Status,
			Value: int64(len(vs)),
			Label: entry + "/" + oracle,
		})
	}
	return res
}

// Smoke is the harness's self-test: it injects deliberate faults and
// fails unless the oracles catch them. Three faults are injected — a
// lattice join returning a non-least upper bound for (→, ←), a
// ground-truth table with one entry demoted below what the trace
// supports, and an exact result missing a minimal hypothesis or
// holding a non-minimal one — covering the LUB, Theorem-2 and
// Theorem-3 oracles respectively. It also asserts the unbroken
// counterparts pass, so a vacuously-failing oracle cannot hide.
func Smoke() error {
	// Fault 1: Join(→, ←) = ↔? — an upper bound, but not the least
	// one (the correct answer is ↔). The lattice oracle must notice.
	brokenJoin := func(a, b lattice.Value) lattice.Value {
		if (a == lattice.Fwd && b == lattice.Bwd) || (a == lattice.Bwd && b == lattice.Fwd) {
			return lattice.BiMaybe
		}
		return lattice.Join(a, b)
	}
	if len(LatticeLawsWith(brokenJoin, lattice.Meet)) == 0 {
		return fmt.Errorf("conformance: smoke: lattice oracle missed a non-least upper bound at (→, ←)")
	}
	if vs := LatticeLaws(); len(vs) > 0 {
		return fmt.Errorf("conformance: smoke: genuine lattice tables fail their own oracle: %v", vs[0])
	}

	// Fault 2: demote the true d(t1,t2) of the Figure-1 design from →?
	// to ‖. Every exact hypothesis explains Figure 2's first message
	// via (t1,t2) or (t1,t4), and the demoted truth holds ‖ at both,
	// so Theorem 2 must report a violation at period 0.
	truth, ok := TruthFromModel(model.Figure1(), maxTruthChoiceBits)
	if !ok {
		return fmt.Errorf("conformance: smoke: Figure-1 truth enumeration failed")
	}
	tr := trace.PaperFigure2()
	if vs, err := Thm2Soundness(tr, truth, depfunc.CandidatePolicy{}, MaxExactHypotheses); err != nil || len(vs) > 0 {
		return fmt.Errorf("conformance: smoke: genuine Figure-1 truth fails Theorem 2 (err=%v, violations=%d)", err, len(vs))
	}
	demoted := truth.Clone()
	ts := demoted.TaskSet()
	demoted.Set(ts.Index("t1"), ts.Index("t2"), lattice.Par)
	vs, err := Thm2Soundness(tr, demoted, depfunc.CandidatePolicy{}, MaxExactHypotheses)
	if err != nil {
		return fmt.Errorf("conformance: smoke: thm2 oracle errored on the demoted truth: %v", err)
	}
	if len(vs) == 0 {
		return fmt.Errorf("conformance: smoke: thm2 oracle missed a demoted ground-truth entry")
	}

	// Fault 3: hand the Theorem-3 comparison an exact result with one
	// hypothesis missing, then one with the LUB of the hypotheses
	// added (strictly above each of them, so consistent but not
	// minimal). The seed's exact result has three hypotheses.
	tr3, err := thm3Trace(thm3SmokeSeed)
	if err != nil {
		return err
	}
	exact, err := learner.Learn(tr3, learner.Options{})
	if err != nil {
		return fmt.Errorf("conformance: smoke: thm3 exact run: %v", err)
	}
	if len(exact.Hypotheses) < 2 {
		return fmt.Errorf("conformance: smoke: thm3 seed %d has %d exact hypotheses, want at least 2",
			thm3SmokeSeed, len(exact.Hypotheses))
	}
	minimal := minimalConsistent(exact.TaskSet, tr3, depfunc.CandidatePolicy{})
	if vs := compareMinimal(exact.Hypotheses, minimal); len(vs) > 0 {
		return fmt.Errorf("conformance: smoke: genuine exact result fails Theorem 3: %v", vs[0])
	}
	if len(compareMinimal(exact.Hypotheses[1:], minimal)) == 0 {
		return fmt.Errorf("conformance: smoke: thm3 oracle missed a dropped minimal hypothesis")
	}
	widened := append(append([]*depfunc.DepFunc(nil), exact.Hypotheses...), depfunc.JoinAll(exact.Hypotheses))
	if len(compareMinimal(widened, minimal)) == 0 {
		return fmt.Errorf("conformance: smoke: thm3 oracle missed a non-minimal hypothesis")
	}
	return nil
}

// thm3SmokeSeed is a thm3Seeds seed whose exact result has more than
// one hypothesis.
const thm3SmokeSeed = 4
