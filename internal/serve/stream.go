package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"github.com/blackbox-rt/modelgen/internal/drift"
	"github.com/blackbox-rt/modelgen/internal/learner"
	"github.com/blackbox-rt/modelgen/internal/obs"
	"github.com/blackbox-rt/modelgen/internal/store"
	"github.com/blackbox-rt/modelgen/internal/trace"
)

// queuedPeriod is one unit of ingest→owner handoff: the cut period
// plus the telemetry needed to measure and trace its trip through the
// queue. The SpanContext is a value; with tracing disabled it is zero
// and the handoff stays allocation-free.
type queuedPeriod struct {
	p   *trace.Period
	enq time.Time
	ctx obs.SpanContext // the ingest span, parent of learn_period
}

// phaseBridge converts the engine's SpanEnd phase events
// (candidates/generalize/postprocess) into trace spans parented under
// the current learn_period span. The owner goroutine stores the
// parent before AddPeriod, and the engine emits OnSpan on that same
// goroutine; the atomic keeps the bridge sound should an observer call
// ever arrive from another one.
type phaseBridge struct {
	obs.NopObserver
	tracer *obs.Tracer
	parent atomic.Value // obs.SpanContext
}

func (b *phaseBridge) setParent(sc obs.SpanContext) { b.parent.Store(sc) }

func (b *phaseBridge) OnSpan(e obs.SpanEnd) {
	sc, _ := b.parent.Load().(obs.SpanContext)
	if !sc.Sampled {
		return
	}
	d := time.Duration(e.ElapsedNS)
	b.tracer.RecordSpan(sc, e.Phase, time.Now().Add(-d), d)
}

// ErrStreamClosed is returned by queries against a stream whose owner
// goroutine has exited (deleted or server shut down).
var ErrStreamClosed = errors.New("serve: stream closed")

// stream is one multiplexed learning session. Concurrency contract:
//
//   - The learner is touched ONLY by the owner goroutine (run); the
//     HTTP layer talks to it through the bounded period queue and the
//     closure request channel. No lock ever guards learner state.
//   - The ingest parser is guarded by feedMu and advanced
//     clone-and-commit, so a shed or failed batch leaves no trace.
//     feedClosed, also under feedMu, refuses every batch once an
//     export has captured the stream's state.
//   - dead / periodsCut / shed are atomics readable from any handler.
//   - A restored stream starts cold: no learner, no open store
//     handle. The owner hydrates (base snapshot + WAL replay) before
//     the first consume or query; until then the stream costs only
//     its registration.
type stream struct {
	id   string
	info StreamInfo
	opt  learner.Options

	feedMu     sync.Mutex
	parser     *parser
	feedClosed bool

	queue   chan queuedPeriod
	reqs    chan func(*learner.Online)
	closing chan struct{} // closed once by close() -> owner drains and exits
	done    chan struct{} // closed by the owner on exit

	closeOnce sync.Once
	dead      atomic.Pointer[error] // sticky learner error
	shed      atomic.Int64
	cut       atomic.Int64 // periods queued by ingest

	// Introspection atomics for /debug/streams, written by the owner.
	liveWS     atomic.Int64 // working-set size after the last period
	lastPeriod atomic.Int64 // periods learned
	ckptUnixNS atomic.Int64 // wall time of the last successful compaction

	// Drift-monitor introspection atomics (valid only when
	// driftEnabled).
	genA      atomic.Int64  // model generation
	streakA   atomic.Int64  // stability streak
	lastCPA   atomic.Int64  // last detected change point
	ambigBits atomic.Uint64 // ambiguity ratio as math.Float64bits

	// Tracing (nil tracer disables; the hot path then allocates
	// nothing extra).
	tracer *obs.Tracer
	bridge *phaseBridge

	// Persistence. store is the shared state store (nil = in-memory
	// only); st is the owner's per-stream handle, nil until hydration
	// opens it. stA mirrors st for lock-free debug reads; cold holds
	// the scan-time view a restored stream shows before hydration.
	// persistErrA is the last persistence failure (retried via forced
	// compaction each period, never fatal to learning).
	store       *store.Store
	st          *store.Stream
	stA         atomic.Pointer[store.Stream]
	cold        *store.StreamMeta
	hydrated    bool // owner-only
	hydratedA   atomic.Bool
	needCompact bool // owner-only: a failed append awaits resync
	persistErrA atomic.Pointer[error]

	// Owner-goroutine state (no synchronization needed).
	o       *learner.Online
	learned int // periods consumed, across restarts and generations

	// The /model body of learner modelFor at working-set generation
	// modelGen, encoded up to its "periods" value (modelPrefix). A
	// prefix is never written to once built, so a handler may write
	// it out after leaving the owner goroutine. Owner goroutine only.
	modelFor  *learner.Online
	modelGen  uint64
	modelBody []byte

	// Drift monitoring. driftEnabled is immutable after construction;
	// mon is owner-only (built at hydration) and observes every period
	// consume learns.
	driftEnabled bool
	mon          *drift.Monitor

	// Per-stream metric series, unregistered when the stream is
	// deleted.
	mQueueDepth  *obs.Gauge
	mPeriods     *obs.Counter
	mShed        *obs.Counter
	mDriftGen    *obs.Gauge      // modelgen_drift_generation{stream}
	mDriftStreak *obs.Gauge      // modelgen_drift_streak_periods{stream}
	mDriftAmbig  *obs.FloatGauge // modelgen_drift_ambiguity_ratio{stream}
	mDriftAlarms *obs.Counter    // modelgen_drift_alarms_total{stream}

	*sharedInstruments
}

// sharedInstruments are the service-wide instruments every stream
// updates, owned by the Server (nil without a registry).
type sharedInstruments struct {
	mLatency        *obs.Histogram // serve_ingest_latency_seconds
	mOfferedLines   *obs.Counter   // serve_ingest_offered_lines_total
	mShedLines      *obs.Counter   // serve_ingest_shed_lines_total
	mPeriodsLearned *obs.Counter   // serve_periods_learned_total
	mAlarmPeriods   *obs.Counter   // serve_drift_alarm_periods_total
	mDriftLag       *obs.Histogram // modelgen_drift_detection_lag_periods
	mModelRenders   *obs.Counter   // serve_model_renders_total
}

func (s *stream) deadErr() error {
	if p := s.dead.Load(); p != nil {
		return *p
	}
	return nil
}

// ingest parses the batch on a clone of the parser, then atomically
// either queues every cut period and commits the clone, or rejects
// the whole batch (shed=true on queue pressure) and commits nothing.
// parent is the request's ingest span context (zero when tracing is
// off); cut periods carry it into the owner's learn_period span.
func (s *stream) ingest(lines []string, parent obs.SpanContext) (resp IngestResponse, shed bool, err error) {
	s.mOfferedLines.Add(int64(len(lines)))
	if err := s.deadErr(); err != nil {
		return resp, false, fmt.Errorf("serve: stream %s is dead: %w", s.id, err)
	}
	s.feedMu.Lock()
	defer s.feedMu.Unlock()
	if s.feedClosed {
		// Exported: the envelope is taken, so a period queued now
		// would be learned into state that is being deleted.
		return resp, false, ErrStreamClosed
	}

	cutSpan := s.tracer.StartSpan("period_cut", parent)
	cp := s.parser.clone()
	var periods []*trace.Period
	for i, line := range lines {
		ps, err := cp.feed(line)
		if err != nil {
			err = fmt.Errorf("serve: batch line %d: %w", i+1, err)
			cutSpan.SetAttr("error", err.Error())
			cutSpan.End()
			return resp, false, err
		}
		periods = append(periods, ps...)
	}
	cutSpan.SetAttr("periods", strconv.Itoa(len(periods)))
	cutSpan.End()
	// Owner only drains the queue, so under feedMu the free-slot count
	// can only grow between this check and the sends below: the batch
	// either fits entirely or is shed entirely.
	if cap(s.queue)-len(s.queue) < len(periods) {
		s.shed.Add(1)
		s.mShed.Inc()
		s.mShedLines.Add(int64(len(lines)))
		return resp, true, fmt.Errorf("serve: stream %s ingest queue full (%d periods over %d free slots)",
			s.id, len(periods), cap(s.queue)-len(s.queue))
	}
	enq := time.Now()
	for _, p := range periods {
		select {
		case s.queue <- queuedPeriod{p: p, enq: enq, ctx: parent}:
		case <-s.done:
			return resp, false, ErrStreamClosed
		}
	}
	s.parser = cp
	s.cut.Add(int64(len(periods)))
	s.mPeriods.Add(int64(len(periods)))
	s.mQueueDepth.Set(int64(len(s.queue)))
	return IngestResponse{Lines: len(lines), Periods: len(periods), QueueDepth: len(s.queue)}, false, nil
}

// do runs fn on the owner goroutine and waits for it. The owner
// drains all already-queued periods first, so a query observes every
// period whose ingest request completed before the query began
// (read-your-writes for any single client).
func (s *stream) do(fn func(o *learner.Online)) error {
	ran := make(chan struct{})
	select {
	case s.reqs <- func(o *learner.Online) { fn(o); close(ran) }:
		<-ran
		return nil
	case <-s.done:
		return ErrStreamClosed
	}
}

// close asks the owner to drain and exit; safe to call repeatedly.
func (s *stream) close() {
	s.closeOnce.Do(func() { close(s.closing) })
}

// run is the owner goroutine: the only code that touches s.o.
func (s *stream) run() {
	defer close(s.done)
	defer func() {
		// Every learned period is already durable (WAL append + fsync
		// in consume), so exit needs no final checkpoint — just the
		// handle release.
		if s.st != nil {
			s.st.Close()
		}
	}()
	for {
		// Queue first: requests and shutdown never jump learning work
		// that is already buffered.
		select {
		case p := <-s.queue:
			s.consume(p)
			continue
		default:
		}
		select {
		case p := <-s.queue:
			s.consume(p)
		case req := <-s.reqs:
			s.ensureHydrated()
			s.drain()
			req(s.o)
		case <-s.closing:
			s.drain()
			return
		}
	}
}

func (s *stream) drain() {
	for {
		select {
		case p := <-s.queue:
			s.consume(p)
		default:
			s.mQueueDepth.Set(0)
			return
		}
	}
}

func (s *stream) consume(qp queuedPeriod) {
	if s.deadErr() != nil {
		return // learner is sticky-dead; drop the backlog
	}
	s.ensureHydrated()
	if s.deadErr() != nil {
		return // hydration failed; same sticky-dead contract
	}
	sp := s.tracer.StartSpan("learn_period", qp.ctx)
	if s.bridge != nil {
		s.bridge.setParent(sp.Context()) // zero when the period is untraced
	}
	// forked/replayed steer persistence: a forked period appends a
	// Fork WAL record; only a replayed fork has learner state (a
	// delta) to carry.
	var forked, replayed bool
	err := s.o.AddPeriod(qp.p)
	if err != nil && s.mon != nil && errors.Is(err, learner.ErrNoHypothesis) {
		// A period no hypothesis can explain is the strongest drift
		// signal there is: with a monitor attached, treat it as a
		// forced change point and replay the period on the fresh
		// generation instead of killing the stream.
		if ferr := s.forkGeneration(s.mon.ForceAlarm(), sp); ferr != nil {
			err = ferr
		} else {
			forked, replayed = true, true
			err = s.o.AddPeriod(qp.p)
		}
	}
	if err == nil && s.mon != nil {
		// Check the learned period against the frozen reference; a
		// detector alarm forks the next model generation.
		vs := sp.StartChild(obs.PhaseDriftVerify)
		ev := s.mon.Observe(qp.p, s.o.LUB(), s.o.WorkingSetSize())
		vs.End()
		if ev != nil {
			forked, replayed = true, false
			err = s.forkGeneration(ev, sp)
		}
	}
	if sp != nil {
		sp.SetAttr("stream", s.id)
		if err != nil {
			sp.SetAttr("error", err.Error())
		}
		sp.End()
	}
	if err != nil {
		e := err
		s.dead.Store(&e)
		return
	}
	s.learned++
	s.mPeriodsLearned.Inc()
	s.publishDriftView()
	s.lastPeriod.Store(int64(s.learned))
	s.liveWS.Store(int64(s.o.WorkingSetSize()))
	// Ingest→model-update latency: enqueue to committed learn.
	d := time.Since(qp.enq).Seconds()
	if sp != nil {
		s.mLatency.ObserveExemplar(d, sp.Context().TraceID.String(), time.Now())
	} else {
		s.mLatency.Observe(d)
	}
	s.mQueueDepth.Set(int64(len(s.queue)))
	s.persistPeriod(forked, replayed)
}

// forkGeneration retires the current learner after a change-point
// alarm and starts a fresh one for the monitor's new model
// generation, keeping the stream alive across regime changes. Owner
// goroutine only.
func (s *stream) forkGeneration(ev *drift.Event, sp *obs.TraceSpan) error {
	if err := s.buildLearner(nil); err != nil {
		return err
	}
	s.mDriftAlarms.Inc()
	s.mAlarmPeriods.Inc()
	lag := float64(ev.Period - ev.ChangePoint)
	if ev.Forced {
		lag = 0 // the offending period itself raised the alarm
	}
	// The alarm path gets an exemplar: the trace of the request
	// whose period tripped the detector.
	if sp != nil {
		s.mDriftLag.ObserveExemplar(lag, sp.Context().TraceID.String(), time.Now())
		sp.SetAttr("drift_generation", strconv.Itoa(ev.Generation))
		sp.SetAttr("drift_change_point", strconv.Itoa(ev.ChangePoint))
	} else {
		s.mDriftLag.Observe(lag)
	}
	return nil
}

// publishDriftView copies the monitor's headline numbers into the
// stream's atomics and gauges so /debug/streams and /metrics read
// them without disturbing the owner. Owner goroutine only.
func (s *stream) publishDriftView() {
	if s.mon == nil {
		return
	}
	gen, streak := int64(s.mon.Generation()), int64(s.mon.Streak())
	ambig := s.mon.AmbiguityRatio()
	s.genA.Store(gen)
	s.streakA.Store(streak)
	s.lastCPA.Store(int64(s.mon.LastChangePoint()))
	s.ambigBits.Store(math.Float64bits(ambig))
	s.mDriftGen.Set(gen)
	s.mDriftStreak.Set(streak)
	s.mDriftAmbig.Set(ambig)
}

// checkpointFile is the one envelope around a persisted learner
// snapshot: the serve-level identity and runtime knobs needed to
// reopen the stream. It is the schema of every base snapshot in the
// store and of every ExportStream handoff; encodeCheckpoint and
// decodeCheckpoint are its only encoder and decoder. Ingest parser
// residue (an open period, candump sequence numbers) is deliberately
// not persisted — bases and WAL records are cut at period boundaries,
// and a client that was mid-period replays that period after a
// restart.
type checkpointFile struct {
	ServeVersion int               `json:"serve_version"`
	Info         StreamInfo        `json:"info"`
	Snapshot     *learner.Snapshot `json:"snapshot"`
	// Drift is the drift-monitor state of a drift-enabled stream.
	Drift *drift.State `json:"drift,omitempty"`
}

// serveVersion is the checkpoint envelope schema version.
const serveVersion = 1

func encodeCheckpoint(info StreamInfo, snap *learner.Snapshot, dst *drift.State) ([]byte, error) {
	return json.Marshal(&checkpointFile{ServeVersion: serveVersion, Info: info, Snapshot: snap, Drift: dst})
}

// decodeCheckpoint parses an envelope and checks its version and that
// it carries a learner snapshot over the stream's task set and
// algorithmic options (RestoreOnline learns with the snapshot's, a
// generation fork with the stream's); RestoreOnline validates the
// snapshot itself.
func decodeCheckpoint(b []byte) (*checkpointFile, error) {
	var cf checkpointFile
	if err := json.Unmarshal(b, &cf); err != nil {
		return nil, fmt.Errorf("undecodable envelope: %w", err)
	}
	switch {
	case cf.ServeVersion != serveVersion:
		return nil, fmt.Errorf("envelope version %d, this binary reads %d", cf.ServeVersion, serveVersion)
	case cf.Snapshot == nil:
		return nil, errors.New("envelope carries no learner snapshot")
	case !slices.Equal(cf.Snapshot.Tasks, cf.Info.Tasks):
		return nil, fmt.Errorf("envelope snapshot is over tasks %v, stream over %v", cf.Snapshot.Tasks, cf.Info.Tasks)
	case snapshotOptions(cf.Snapshot) != cf.Info.Options.algorithmic():
		return nil, fmt.Errorf("envelope snapshot learns with options %+v, stream with %+v",
			snapshotOptions(cf.Snapshot), cf.Info.Options.algorithmic())
	}
	return &cf, nil
}

// checkpoint captures the owner's learner and drift monitor as an
// envelope at the current period boundary. Owner goroutine only.
func (s *stream) checkpoint() ([]byte, error) {
	snap, err := s.o.Snapshot()
	if err != nil {
		return nil, err
	}
	var dst *drift.State
	if s.mon != nil {
		st := s.mon.State()
		dst = &st
	}
	return encodeCheckpoint(s.info, snap, dst)
}

// walEntry is the JSON payload of one serve-layer WAL record: the
// period's learner delta, absent exactly when the period forked a
// model generation without replaying on it (the new learner starts
// empty), plus the post-period drift-monitor state so a detection in
// flight survives a crash.
type walEntry struct {
	Delta *learner.Delta `json:"delta,omitempty"`
	Drift *drift.State   `json:"drift,omitempty"`
}

// persistErr returns the stream's last persistence failure, nil while
// durable state is in sync with the learner.
func (s *stream) persistErr() error {
	if p := s.persistErrA.Load(); p != nil {
		return *p
	}
	return nil
}

// ensureHydrated pages a cold (restored) stream's state in before first
// use. It runs on the owner goroutine only and at most once; a failure
// marks the stream sticky-dead exactly like a learner error, so corrupt
// state surfaces on the API instead of crashing the process.
func (s *stream) ensureHydrated() {
	if s.hydrated {
		return
	}
	s.hydrated = true
	start := time.Now()
	if err := s.hydrate(); err != nil {
		e := fmt.Errorf("serve: stream %s: hydrate: %w", s.id, err)
		s.dead.Store(&e)
		s.o, s.mon = nil, nil // no half-replayed state behind the sticky error
		return
	}
	s.store.ObserveHydration(time.Since(start))
}

// hydrate opens the stream's store handle and installs what it holds:
// the base snapshot plus the WAL records beyond it. The result is
// bit-identical to the learner the previous process had made durable.
func (s *stream) hydrate() error {
	st, err := s.store.OpenStream(s.id)
	if err != nil {
		return err
	}
	var cf *checkpointFile
	base, recs, err := st.Load()
	if err == nil && base != nil {
		if cf, err = decodeCheckpoint(base); err != nil {
			err = fmt.Errorf("base snapshot: %w", err)
		}
	}
	if err == nil {
		err = s.install(cf, recs, int(st.LastSeq()), st)
	}
	if err != nil {
		st.Close()
	}
	return err
}

// install is the one way a stream's owner state comes up, whatever its
// source: nothing (create: cf and recs nil), a decoded envelope
// (import), or a store handle's base and the WAL records beyond it
// (restore). It builds the learner from cf's snapshot and replays recs
// (a Fork record swaps in a fresh learner for the new generation),
// restores the drift monitor from the newest state seen, and takes over
// st (nil for an in-memory stream) along with the period count learned.
// Create and import call it before the owner goroutine starts,
// hydration on it.
func (s *stream) install(cf *checkpointFile, recs []store.Record, learned int, st *store.Stream) error {
	var snap *learner.Snapshot
	var dst *drift.State
	if cf != nil {
		snap, dst = cf.Snapshot, cf.Drift
	}
	if err := s.buildLearner(snap); err != nil {
		return err
	}
	for _, r := range recs {
		var e walEntry
		if err := json.Unmarshal(r.Payload, &e); err != nil {
			return fmt.Errorf("wal record seq %d: %w", r.Seq, err)
		}
		if r.Fork {
			if err := s.buildLearner(nil); err != nil {
				return err
			}
		}
		if e.Delta != nil {
			if err := s.o.ApplyDelta(e.Delta); err != nil {
				return fmt.Errorf("wal record seq %d: %w", r.Seq, err)
			}
		}
		if e.Drift != nil {
			dst = e.Drift
		}
	}
	if s.driftEnabled {
		cfg := s.info.Drift.config(s.opt.Policy)
		s.mon = drift.New(cfg)
		if dst != nil {
			mon, err := drift.Restore(*dst, cfg)
			if err != nil {
				return fmt.Errorf("drift state: %w", err)
			}
			s.mon = mon
		}
	}
	s.learned = learned
	s.lastPeriod.Store(int64(learned))
	s.liveWS.Store(int64(s.o.WorkingSetSize()))
	s.publishDriftView()
	s.st = st
	s.stA.Store(st)
	if st != nil {
		s.ckptUnixNS.Store(st.Stats().CompactedAtUnixNS)
	}
	s.hydrated = true
	s.hydratedA.Store(true)
	return nil
}

// buildLearner (re)creates the stream's learner: fresh for a nil
// snapshot, restored otherwise. Owner goroutine (or pre-run setup).
func (s *stream) buildLearner(snap *learner.Snapshot) error {
	var err error
	if snap == nil {
		s.o, err = learner.NewOnline(s.info.Tasks, s.opt)
	} else {
		s.o, err = learner.RestoreOnline(snap, s.opt)
	}
	return err
}

// persistPeriod makes the period just consumed durable: one O(delta)
// WAL record in the common case, a full compaction when the WAL
// crossed its thresholds or a previous persistence step failed (the
// fresh base is cut from the live learner, so a lost record never
// leaves a gap). Persistence failures are surfaced via persistErrA
// and retried next period; they never kill learning. Owner goroutine
// only.
func (s *stream) persistPeriod(forked, replayed bool) {
	if s.st == nil {
		return
	}
	if s.needCompact {
		s.compactPersist()
		return
	}
	var e walEntry
	if !forked || replayed {
		d, err := s.o.PeriodDelta()
		if err != nil {
			s.persistFallback(err)
			return
		}
		e.Delta = d
	}
	gen := uint32(1)
	if s.mon != nil {
		dst := s.mon.State()
		e.Drift = &dst
		gen = uint32(dst.Generation)
	}
	payload, err := json.Marshal(&e)
	if err != nil {
		s.persistFallback(err)
		return
	}
	rec := store.Record{Seq: uint64(s.learned), Generation: gen, Fork: forked, Payload: payload}
	if err := s.st.Append(rec); err != nil {
		s.persistFallback(err)
		return
	}
	s.persistErrA.Store(nil)
	if s.st.ShouldCompact() {
		s.compactPersist()
	}
}

// persistFallback records a failed per-period append and falls back
// to a full compaction; Snapshot() inside compact also re-anchors the
// delta baseline, so the next period's delta capture lines up again.
func (s *stream) persistFallback(err error) {
	s.persistErrA.Store(&err)
	s.needCompact = true
	s.compactPersist()
}

// compactPersist runs a compaction and tracks its outcome in the
// retry flag and persistErrA. Owner goroutine only.
func (s *stream) compactPersist() {
	if err := s.compact(); err != nil {
		e := err
		s.persistErrA.Store(&e)
		s.needCompact = true
		return
	}
	s.needCompact = false
	s.persistErrA.Store(nil)
}

// compact folds the stream's WAL into a fresh base snapshot under the
// next epoch (see store.Stream.Compact). Owner goroutine only.
func (s *stream) compact() error {
	base, err := s.checkpoint()
	if err != nil {
		return err
	}
	meta, err := json.Marshal(s.info)
	if err != nil {
		return err
	}
	now := time.Now()
	if err := s.st.Compact(base, uint64(s.learned), meta, now); err != nil {
		return err
	}
	s.ckptUnixNS.Store(now.UnixNano())
	return nil
}
