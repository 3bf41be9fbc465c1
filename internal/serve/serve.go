// Package serve implements the model-generation service: a
// long-running HTTP server multiplexing many independent trace
// streams, each backed by its own online learner (see
// internal/learner). A logging device POSTs raw trace or candump
// lines as they are captured; the service cuts periods server-side,
// feeds them to the stream's learner, and serves the current
// dependency-model frontier at any time — the paper's workflow turned
// into an always-on endpoint.
//
// Design:
//
//   - Per-stream goroutine ownership. Each stream's learner is
//     touched only by its owner goroutine; the HTTP layer communicates
//     through a bounded period queue and a closure request channel.
//     There is no shared mutable learner state and nothing to lock.
//   - Explicit backpressure. The ingest queue is bounded; a batch
//     that does not fit entirely is rejected with 429 and Retry-After
//     and leaves no partial state behind (clone-and-commit parsing),
//     so the producer can simply resend it.
//   - Per-period durability. With a state store configured
//     (CheckpointDir), every learned period appends one O(delta) record
//     to the stream's write-ahead log (internal/store); the log is
//     periodically folded into a base snapshot. A crash at any point
//     loses at most the period being written.
//   - Lazy hydration. RestoreFromDir is an index scan: it registers
//     every stored stream without decoding a single model, and a
//     stream's learner state pages in (base + WAL replay) on its first
//     ingest or query — restart cost is O(active streams), not
//     O(stored streams). Restored state is bit-identical to what the
//     previous process had made durable. Corrupt state is quarantined,
//     never silently dropped.
//   - Graceful drain. Shutdown stops ingest, lets every owner finish
//     the queued periods (each made durable as it lands), and only
//     then returns.
package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/blackbox-rt/modelgen/internal/learner"
	"github.com/blackbox-rt/modelgen/internal/obs"
	"github.com/blackbox-rt/modelgen/internal/store"
)

// Config configures a Server.
type Config struct {
	// CheckpointDir is the root of the stream state store. Empty
	// disables persistence entirely (streams are purely in-memory).
	CheckpointDir string
	// CheckpointEvery is the WAL-compaction record threshold: a
	// stream's log is folded into a fresh base snapshot once it holds
	// this many period records. Zero selects the store default (256).
	// Durability does not depend on it — every period is WAL-durable
	// regardless — it only bounds replay work at hydration.
	CheckpointEvery int
	// CompactBytes additionally triggers a stream compaction once its
	// WAL reaches this size. Zero selects the store default (4 MiB).
	CompactBytes int64
	// CompactJitter spreads each stream's compaction thresholds by a
	// deterministic per-stream factor in [1-f, 1+f], so a fleet of
	// streams fed in lockstep doesn't compact in lockstep. Zero
	// selects the store default (0.2); negative disables.
	CompactJitter float64
	// Logf, when non-nil, receives store recovery and restore logs
	// (torn WAL tails, quarantined state).
	Logf func(format string, args ...any)
	// QueueDepth bounds each stream's ingest queue (default 256).
	QueueDepth int
	// MaxBody bounds an events request body in bytes (default 8 MiB).
	MaxBody int64
	// Registry, when non-nil, receives the service metrics:
	// serve_streams, serve_http_requests_total, serve_http_errors_total,
	// serve_ingest_offered_lines_total, serve_ingest_shed_lines_total,
	// the serve_ingest_latency_seconds histogram (enqueue → committed
	// model update, with trace exemplars when tracing is on),
	// serve_model_renders_total (GET /model bodies rendered rather
	// than reused), and per-stream serve_queue_depth{stream=...},
	// serve_periods_total{stream=...}, serve_shed_total{stream=...}.
	// The registry's Prometheus handler is mounted at /metrics.
	Registry *obs.Registry
	// Tracer, when non-nil, records request traces: /events extracts
	// W3C traceparent headers, spans cover ingest → period_cut →
	// learn_period → engine phases, and /debug/traces serves the span
	// ring. Nil disables tracing with zero ingest-path overhead.
	Tracer *obs.Tracer
	// SLO, when non-nil, is mounted at /slo. The caller owns sampling
	// (slo.Monitor.Start) so tests can drive a synthetic clock.
	SLO http.Handler
}

// Server multiplexes trace streams over HTTP. Create with New, mount
// Handler, and Shutdown when done.
type Server struct {
	cfg Config
	mux *http.ServeMux

	// store is the stream state store, nil when CheckpointDir is
	// empty; storeErr holds the open failure (surfaced by
	// RestoreFromDir and create) so New can keep its signature.
	store    *store.Store
	storeErr error

	mu      sync.Mutex
	streams map[string]*stream
	closed  bool
	nextID  atomic.Int64

	mStreams     *obs.Gauge
	mReqs, mErrs *obs.Counter
	mQuarantined *obs.Counter
	sharedInstruments
}

func (sv *Server) logf(format string, args ...any) {
	if sv.cfg.Logf != nil {
		sv.cfg.Logf(format, args...)
	}
}

// errStreamExists marks create collisions so the handler can map them
// to 409 while other addStream failures stay 400.
var errStreamExists = errors.New("stream already exists")

// errServerClosed rejects work arriving after Shutdown began.
var errServerClosed = errors.New("serve: server is shutting down")

// New builds a Server. Call RestoreFromDir afterwards to reopen
// checkpointed streams.
func New(cfg Config) *Server {
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 256
	}
	if cfg.MaxBody <= 0 {
		cfg.MaxBody = 8 << 20
	}
	sv := &Server{cfg: cfg, streams: map[string]*stream{}}
	if cfg.CheckpointDir != "" {
		sv.store, sv.storeErr = store.Open(store.Options{
			Dir:            cfg.CheckpointDir,
			CompactRecords: cfg.CheckpointEvery,
			CompactBytes:   cfg.CompactBytes,
			JitterFrac:     cfg.CompactJitter,
			Registry:       cfg.Registry,
			Logf:           cfg.Logf,
		})
	}
	reg := cfg.Registry
	sv.mStreams = reg.Gauge("serve_streams", "Number of live trace streams.")
	sv.mReqs = reg.Counter("serve_http_requests_total", "API requests served.")
	sv.mErrs = reg.Counter("serve_http_errors_total", "API requests answered with a 5xx status.")
	sv.mOfferedLines = reg.Counter("serve_ingest_offered_lines_total", "Feed lines offered to ingest, shed or not.")
	sv.mShedLines = reg.Counter("serve_ingest_shed_lines_total", "Feed lines rejected with 429 under backpressure.")
	sv.mLatency = reg.HistogramWith(obs.HistogramOpts{
		Name: "serve_ingest_latency_seconds",
		Help: "Seconds from period enqueue to committed model update.",
	})
	sv.mPeriodsLearned = reg.Counter("serve_periods_learned_total",
		"Periods committed to a model update, across all streams.")
	sv.mAlarmPeriods = reg.Counter("serve_drift_alarm_periods_total",
		"Periods that raised a model change-point alarm, across all streams.")
	sv.mDriftLag = reg.HistogramWith(obs.HistogramOpts{
		Name:    obs.MetricDriftLag,
		Help:    "Periods between an estimated change point and its alarm.",
		Buckets: obs.DriftLagBuckets,
	})
	sv.mModelRenders = reg.Counter("serve_model_renders_total",
		"Model bodies rendered from a learner result; GET /model reuses the last one while the working set is unchanged.")
	sv.mQuarantined = reg.Counter("serve_restore_quarantined_total",
		"Corrupt stream state moved to quarantine during restore.")
	obs.RuntimeMetrics(reg)
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", sv.handleHealth)
	mux.HandleFunc("POST /v1/streams", sv.handleCreate)
	mux.HandleFunc("GET /v1/streams", sv.handleList)
	mux.HandleFunc("POST /v1/streams/{id}/events", sv.handleEvents)
	mux.HandleFunc("GET /v1/streams/{id}/model", sv.handleModel)
	mux.HandleFunc("GET /v1/streams/{id}/stats", sv.handleStats)
	mux.HandleFunc("GET /v1/streams/{id}/drift", sv.handleDrift)
	mux.HandleFunc("POST /v1/streams/{id}/compact", sv.handleCompact)
	mux.HandleFunc("DELETE /v1/streams/{id}", sv.handleDelete)
	mux.HandleFunc("GET /debug/streams", sv.handleDebugStreams)
	if cfg.Registry != nil {
		mux.Handle("GET /metrics", cfg.Registry.Handler())
	}
	if cfg.Tracer != nil {
		mux.Handle("GET /debug/traces", cfg.Tracer.Handler())
	}
	if cfg.SLO != nil {
		mux.Handle("GET /slo", cfg.SLO)
	}
	sv.mux = mux
	return sv
}

// statusWriter captures the response status for the request counters.
type statusWriter struct {
	http.ResponseWriter
	code int
}

func (w *statusWriter) WriteHeader(code int) {
	w.code = code
	w.ResponseWriter.WriteHeader(code)
}

// Handler returns the HTTP handler for the whole API surface. With a
// registry it is wrapped in request/error accounting (5xx only:
// backpressure 429s are deliberate and tracked by the shed SLO, not
// availability).
func (sv *Server) Handler() http.Handler {
	if sv.cfg.Registry == nil {
		return sv.mux
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		sv.mReqs.Inc()
		sw := &statusWriter{ResponseWriter: w, code: http.StatusOK}
		sv.mux.ServeHTTP(sw, r)
		if sw.code >= 500 {
			sv.mErrs.Inc()
		}
	})
}

// StreamCount returns the number of live streams.
func (sv *Server) StreamCount() int {
	sv.mu.Lock()
	defer sv.mu.Unlock()
	return len(sv.streams)
}

// RestoreFromDir registers every stream found in the state store
// without hydrating any of them, returning how many were registered.
// The scan reads per-stream manifests and WAL frame headers only, so
// restart cost is proportional to the number of streams and their WAL
// sizes, never their model sizes; each stream's learner state pages
// in lazily on its first ingest or query, bit-identical to what the
// previous process had made durable.
//
// Only stream directories are read; other entries of the root are
// left alone. A stream failing validation is moved to
// <dir>/quarantine/ and counted in serve_restore_quarantined_total
// (typed as store.CorruptError in the logs), never silently dropped
// and never fatal to the remaining streams.
func (sv *Server) RestoreFromDir() (int, error) {
	if sv.cfg.CheckpointDir == "" {
		return 0, nil
	}
	if sv.storeErr != nil {
		return 0, sv.storeErr
	}
	res, err := sv.store.Scan()
	if err != nil {
		return 0, err
	}
	nq := len(res.Quarantined)
	n := 0
	for _, sm := range res.Streams {
		if err := sv.registerCold(sm); err != nil {
			var ce *store.CorruptError
			if !errors.As(err, &ce) {
				return n, fmt.Errorf("serve: restore %s: %w", sm.ID, err)
			}
			sv.logf("serve: restore %s: %v; quarantining", sm.ID, err)
			if qerr := sv.store.Quarantine(filepath.Join(sv.store.Dir(), sm.ID)); qerr != nil {
				return n, qerr
			}
			nq++
			continue
		}
		n++
	}
	sv.mQuarantined.Add(int64(nq))
	return n, nil
}

// registerCold registers a scanned stream without hydrating it: no
// learner, no drift monitor, no open WAL handle — just the shell and
// the scan-time stats for /debug. The owner goroutine installs the
// stored state on first use (ensureHydrated).
func (sv *Server) registerCold(sm store.StreamMeta) error {
	manifestPath := filepath.Join(sv.store.Dir(), sm.ID, "manifest.json")
	if len(sm.Meta) == 0 {
		return &store.CorruptError{Stream: sm.ID, Path: manifestPath, Reason: "manifest carries no stream info"}
	}
	var info StreamInfo
	if err := json.Unmarshal(sm.Meta, &info); err != nil {
		return &store.CorruptError{Stream: sm.ID, Path: manifestPath, Reason: "undecodable stream info", Err: err}
	}
	if info.ID != sm.ID {
		return &store.CorruptError{Stream: sm.ID, Path: manifestPath,
			Reason: fmt.Sprintf("manifest names stream %q", info.ID)}
	}
	s, err := sv.newStreamShell(info, int(sm.LastSeq))
	if err != nil {
		return &store.CorruptError{Stream: sm.ID, Path: manifestPath, Reason: "stream info rejected", Err: err}
	}
	s.cold = &sm
	s.ckptUnixNS.Store(sm.CompactedAtUnixNS)
	if s.driftEnabled && sm.LastGeneration > 0 {
		s.genA.Store(int64(sm.LastGeneration))
	}
	return sv.register(s)
}

// Shutdown drains every stream (remaining queued periods are learned,
// each made durable as it lands, and the store handles released) and
// refuses new work. It returns early with the context's error if
// draining outlasts the deadline.
func (sv *Server) Shutdown(ctx context.Context) error {
	sv.mu.Lock()
	sv.closed = true
	streams := make([]*stream, 0, len(sv.streams))
	for _, s := range sv.streams {
		streams = append(streams, s)
	}
	sv.mu.Unlock()

	for _, s := range streams {
		s.close()
	}
	for _, s := range streams {
		select {
		case <-s.done:
		case <-ctx.Done():
			return ctx.Err()
		}
	}
	return nil
}

// newStreamShell builds a stream minus its owner state: parser,
// channels, service instruments and the trace bridge, with its period
// counters at learned, the count its state will come up with. Every
// stream starts here; install fills in the rest, eagerly for create
// and import (addStream), on first use for restore (registerCold).
func (sv *Server) newStreamShell(info StreamInfo, learned int) (*stream, error) {
	p, err := newParser(info.Tasks, info.BitRate, info.PeriodUS)
	if err != nil {
		return nil, err
	}
	s := &stream{
		id:                info.ID,
		info:              info,
		opt:               info.Options.options(),
		parser:            p,
		learned:           learned,
		driftEnabled:      info.Drift != nil && info.Drift.Enabled,
		queue:             make(chan queuedPeriod, sv.cfg.QueueDepth),
		reqs:              make(chan func(*learner.Online)),
		closing:           make(chan struct{}),
		done:              make(chan struct{}),
		store:             sv.store,
		tracer:            sv.cfg.Tracer,
		sharedInstruments: &sv.sharedInstruments,
	}
	s.cut.Store(int64(learned))
	s.lastPeriod.Store(int64(learned))
	if sv.cfg.Tracer != nil {
		s.bridge = &phaseBridge{tracer: sv.cfg.Tracer}
		s.opt.Observer = s.bridge
	}
	return s, nil
}

// streamSeries is the one table of per-stream metric series, each
// labeled stream="<id>": register binds them once the stream's ID is
// known to be free, and retire unregisters the same list.
var streamSeries = []struct {
	name, help string
	drift      bool // drift-enabled streams only
	bind       func(s *stream, r *obs.Registry, name, help string)
}{
	{"serve_queue_depth", "Ingest queue occupancy per stream.", false,
		func(s *stream, r *obs.Registry, n, h string) { s.mQueueDepth = r.LabeledGauge(n, h, "stream", s.id) }},
	{"serve_periods_total", "Periods cut and queued per stream.", false,
		func(s *stream, r *obs.Registry, n, h string) { s.mPeriods = r.LabeledCounter(n, h, "stream", s.id) }},
	{"serve_shed_total", "Ingest batches shed with 429 per stream.", false,
		func(s *stream, r *obs.Registry, n, h string) { s.mShed = r.LabeledCounter(n, h, "stream", s.id) }},
	{obs.MetricDriftGeneration, "Current model generation per stream.", true,
		func(s *stream, r *obs.Registry, n, h string) { s.mDriftGen = r.LabeledGauge(n, h, "stream", s.id) }},
	{obs.MetricDriftStreak, "Stability streak (periods with an unchanged model) per stream.", true,
		func(s *stream, r *obs.Registry, n, h string) { s.mDriftStreak = r.LabeledGauge(n, h, "stream", s.id) }},
	{obs.MetricDriftAmbiguity, "Fraction of task pairs with a conditional dependency per stream.", true,
		func(s *stream, r *obs.Registry, n, h string) {
			s.mDriftAmbig = r.LabeledFloatGauge(n, h, "stream", s.id)
		}},
	{obs.MetricDriftAlarms, "Model change-point alarms per stream.", true,
		func(s *stream, r *obs.Registry, n, h string) { s.mDriftAlarms = r.LabeledCounter(n, h, "stream", s.id) }},
}

// register publishes a built stream and starts its owner goroutine. It
// binds the stream's series only after the ID is known to be free, so
// a refused stream never touches the series of a live one, and seeds
// them with the installed drift view (the owner is not running yet).
func (sv *Server) register(s *stream) error {
	sv.mu.Lock()
	defer sv.mu.Unlock()
	if sv.closed {
		return errServerClosed
	}
	if _, dup := sv.streams[s.id]; dup {
		return fmt.Errorf("serve: stream %q: %w", s.id, errStreamExists)
	}
	for _, ss := range streamSeries {
		if !ss.drift || s.driftEnabled {
			ss.bind(s, sv.cfg.Registry, ss.name, ss.help)
		}
	}
	s.publishDriftView()
	sv.publishLocked(s)
	go s.run()
	return nil
}

// addStream brings a stream up eagerly, so its errors answer the
// request: fresh for create (cf nil), else from the decoded envelope
// cf of an import, whose validated bytes env become the stream's first
// store base. learned is the stream's period count.
func (sv *Server) addStream(info StreamInfo, cf *checkpointFile, learned int, env []byte) (*stream, error) {
	if sv.cfg.CheckpointDir != "" && sv.storeErr != nil {
		return nil, sv.storeErr
	}
	s, err := sv.newStreamShell(info, learned)
	if err != nil {
		return nil, err
	}
	var st *store.Stream
	if sv.store != nil {
		meta, err := json.Marshal(info)
		if err != nil {
			return nil, err
		}
		// An imported stream's entry starts from the envelope as its
		// base, so a restart before its first local compaction replays
		// WAL deltas against the right baseline.
		if st, err = sv.store.Create(info.ID, meta, env, uint64(learned)); err != nil {
			if errors.Is(err, store.ErrExists) {
				err = fmt.Errorf("serve: stream %q: %w", info.ID, errStreamExists)
			}
			return nil, err
		}
	}
	if err = s.install(cf, nil, learned, st); err == nil {
		err = sv.register(s)
	}
	if err != nil {
		if st != nil {
			// We created the entry above, so nothing else references it.
			st.Close()
			_ = sv.store.Remove(info.ID)
		}
		return nil, err
	}
	return s, nil
}

// publishLocked makes s findable by its ID; sv.mu must be held.
func (sv *Server) publishLocked(s *stream) {
	sv.streams[s.id] = s
	sv.mStreams.Set(int64(len(sv.streams)))
}

// unpublish removes the stream from the map, so no new request finds
// it, and returns it (nil when this server owns no such stream). The
// first step of delete and export alike.
func (sv *Server) unpublish(id string) *stream {
	sv.mu.Lock()
	defer sv.mu.Unlock()
	s := sv.streams[id]
	if s != nil {
		delete(sv.streams, id)
		sv.mStreams.Set(int64(len(sv.streams)))
	}
	return s
}

// retire takes an unpublished stream down for good: its owner drains
// and exits (releasing its store handle), then its durable state and
// its per-stream series are deleted. The series stay if a new stream
// of the same ID was registered meanwhile, since it shares them.
func (sv *Server) retire(s *stream) {
	s.close()
	<-s.done
	if sv.store != nil {
		if err := sv.store.Remove(s.id); err != nil {
			sv.logf("serve: retire %s: remove store state: %v", s.id, err)
		}
	}
	sv.mu.Lock()
	defer sv.mu.Unlock()
	if _, reborn := sv.streams[s.id]; !reborn {
		for _, ss := range streamSeries {
			sv.cfg.Registry.Unregister(obs.SeriesName(ss.name, "stream", s.id))
		}
	}
}

func (sv *Server) stream(id string) (*stream, bool) {
	sv.mu.Lock()
	defer sv.mu.Unlock()
	s, ok := sv.streams[id]
	return s, ok
}

// ---- handlers ----

func (sv *Server) handleHealth(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

func (sv *Server) handleCreate(w http.ResponseWriter, r *http.Request) {
	var req CreateStreamRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20)).Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("serve: bad create body: %w", err))
		return
	}
	if req.ID == "" {
		req.ID = fmt.Sprintf("s%d", sv.nextID.Add(1))
	}
	if err := validateID(req.ID); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	info := StreamInfo{ID: req.ID, Tasks: append([]string(nil), req.Tasks...),
		BitRate: req.BitRate, PeriodUS: req.PeriodUS, Options: req.Options, Drift: req.Drift}
	s, err := sv.addStream(info, nil, 0, nil)
	switch {
	case errors.Is(err, errStreamExists) || errors.Is(err, errServerClosed):
		writeError(w, http.StatusConflict, err)
		return
	case err != nil:
		writeError(w, http.StatusBadRequest, err)
		return
	}
	writeJSON(w, http.StatusCreated, s.info)
}

func (sv *Server) handleList(w http.ResponseWriter, _ *http.Request) {
	sv.mu.Lock()
	infos := make([]StreamInfo, 0, len(sv.streams))
	for _, s := range sv.streams {
		infos = append(infos, s.info)
	}
	sv.mu.Unlock()
	sort.Slice(infos, func(i, j int) bool { return infos[i].ID < infos[j].ID })
	writeJSON(w, http.StatusOK, infos)
}

func (sv *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	s, ok := sv.stream(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("serve: no stream %q", r.PathValue("id")))
		return
	}
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, sv.cfg.MaxBody))
	if err != nil {
		writeError(w, http.StatusRequestEntityTooLarge, fmt.Errorf("serve: events body: %w", err))
		return
	}
	lines := strings.Split(string(body), "\n")
	parent, _ := obs.ParseTraceparent(r.Header.Get("traceparent"))
	sp := sv.cfg.Tracer.StartSpan("ingest", parent)
	sp.SetAttr("stream", s.id)
	if sp != nil {
		// Inject the (possibly server-started) trace back to the client
		// so it can find the span tree at /debug/traces.
		w.Header().Set("traceparent", sp.Context().Traceparent())
	}
	resp, shed, err := s.ingest(lines, sp.Context())
	sp.End()
	switch {
	case shed:
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusTooManyRequests, err)
	case errors.Is(err, ErrStreamClosed):
		writeError(w, http.StatusGone, err)
	case err != nil && s.deadErr() != nil:
		writeError(w, http.StatusConflict, err)
	case err != nil:
		writeError(w, http.StatusBadRequest, err)
	default:
		writeJSON(w, http.StatusAccepted, resp)
	}
}

func (sv *Server) handleModel(w http.ResponseWriter, r *http.Request) {
	s, ok := sv.stream(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("serve: no stream %q", r.PathValue("id")))
		return
	}
	dot := r.URL.Query().Get("format") == "dot"
	var res *learner.Result
	var prefix []byte
	var periods int
	var resErr error
	err := s.do(func(o *learner.Online) {
		switch {
		case o == nil: // hydration failed; surface the sticky error
			resErr = s.deadErr()
		case dot:
			res, resErr = o.Result()
		default:
			prefix, resErr = s.modelPrefix(o)
			periods = o.Stats().Periods
		}
	})
	if errors.Is(err, ErrStreamClosed) {
		writeError(w, http.StatusGone, err)
		return
	}
	if resErr != nil {
		writeError(w, http.StatusConflict, resErr)
		return
	}
	if dot {
		w.Header().Set("Content-Type", "text/vnd.graphviz")
		fmt.Fprint(w, res.LUB.DOT(s.id))
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(prefix)
	_, _ = w.Write(append(strconv.AppendInt(make([]byte, 0, 24), int64(periods), 10), "\n}\n"...))
}

// modelTail is how an encoded ModelResponse with Periods zero ends.
// Periods is its last field and the only one that moves while the
// working set holds still (a skipped period counts), so everything
// before it can be rendered once per working-set change.
const modelTail = "0\n}\n"

// modelPrefix returns o's /model body up to its "periods" value. It
// renders the body only when the learner or its working-set generation
// differs from the cached one's, so a drift fork, an install or a
// restore (each a new learner) invalidates the cache. A VerifyResults
// stream renders every time: its result depends on the retained
// window as well as the working set. Owner goroutine only.
func (s *stream) modelPrefix(o *learner.Online) ([]byte, error) {
	if err := o.Err(); err != nil {
		return nil, err
	}
	if !s.opt.VerifyResults && s.modelFor == o && s.modelGen == o.Generation() {
		return s.modelBody, nil
	}
	res, err := o.Result()
	if err != nil {
		return nil, err
	}
	m := ModelResponse{
		ID:         s.id,
		Tasks:      res.TaskSet.Names(),
		Hypotheses: make([]string, len(res.Hypotheses)),
		LUB:        res.LUB.Table(),
		Converged:  res.Converged,
	}
	for i, d := range res.Hypotheses {
		m.Hypotheses[i] = d.Table()
	}
	var buf bytes.Buffer
	encodeJSON(&buf, m)
	prefix, ok := bytes.CutSuffix(buf.Bytes(), []byte(modelTail))
	if !ok {
		panic("serve: an encoded ModelResponse no longer ends in its periods field")
	}
	s.modelFor, s.modelGen, s.modelBody = o, o.Generation(), prefix
	s.mModelRenders.Inc()
	return prefix, nil
}

func (sv *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	s, ok := sv.stream(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("serve: no stream %q", r.PathValue("id")))
		return
	}
	resp := StatsResponse{ID: s.id, QueueCap: cap(s.queue)}
	err := s.do(func(o *learner.Online) {
		// s.learned, not engine periods: a drift fork starts a fresh
		// learner whose own period count resets with the generation.
		resp.PeriodsLearned = s.learned
		if o == nil { // hydration failed; Err carries the sticky error
			return
		}
		resp.Engine = o.Stats()
		resp.WorkingSet = o.WorkingSetSize()
	})
	if errors.Is(err, ErrStreamClosed) {
		writeError(w, http.StatusGone, err)
		return
	}
	resp.PeriodsCut = int(s.cut.Load())
	resp.QueueDepth = len(s.queue)
	resp.Shed = s.shed.Load()
	s.feedMu.Lock()
	resp.Partial = s.parser.partial()
	s.feedMu.Unlock()
	if derr := s.deadErr(); derr != nil {
		resp.Err = derr.Error()
	}
	writeJSON(w, http.StatusOK, resp)
}

// handleDrift serves the stream's drift-monitor state. The query runs
// on the owner goroutine, so like /model it observes every period
// whose ingest completed before the request.
func (sv *Server) handleDrift(w http.ResponseWriter, r *http.Request) {
	s, ok := sv.stream(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("serve: no stream %q", r.PathValue("id")))
		return
	}
	resp := DriftResponse{ID: s.id}
	err := s.do(func(*learner.Online) {
		if s.mon != nil {
			resp.Enabled = true
			st := s.mon.State()
			resp.State = &st
		}
	})
	if errors.Is(err, ErrStreamClosed) {
		writeError(w, http.StatusGone, err)
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

// handleCompact is POST /v1/streams/{id}/compact: fold the stream's
// WAL into a fresh base right now, regardless of thresholds. It runs on
// the stream's owner goroutine (hydrating a cold stream first) and
// answers with the new base's path, the periods it covers and the
// post-compaction WAL record count.
func (sv *Server) handleCompact(w http.ResponseWriter, r *http.Request) {
	s, ok := sv.stream(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("serve: no stream %q", r.PathValue("id")))
		return
	}
	if sv.store == nil {
		writeError(w, http.StatusConflict, errors.New("serve: server has no checkpoint directory"))
		return
	}
	var out CompactResponse
	var cpErr error
	err := s.do(func(o *learner.Online) {
		if o == nil || s.st == nil {
			if cpErr = s.deadErr(); cpErr == nil {
				cpErr = errors.New("serve: stream has no durable state handle")
			}
			return
		}
		s.compactPersist()
		if cpErr = s.persistErr(); cpErr != nil {
			return
		}
		out = CompactResponse{
			ID:         s.id,
			Path:       s.st.BasePath(),
			Periods:    s.learned,
			WALRecords: s.st.Stats().WALRecords,
		}
	})
	switch {
	case errors.Is(err, ErrStreamClosed):
		writeError(w, http.StatusGone, err)
	case cpErr != nil:
		writeError(w, http.StatusConflict, cpErr)
	default:
		writeJSON(w, http.StatusOK, out)
	}
}

// handleDebugStreams serves the one-page operational view: every
// stream's queue depth, live hypothesis count, last period index and
// checkpoint age, read from atomics without disturbing the owners.
func (sv *Server) handleDebugStreams(w http.ResponseWriter, _ *http.Request) {
	sv.mu.Lock()
	streams := make([]*stream, 0, len(sv.streams))
	for _, s := range sv.streams {
		streams = append(streams, s)
	}
	sv.mu.Unlock()
	sort.Slice(streams, func(i, j int) bool { return streams[i].id < streams[j].id })

	now := time.Now()
	out := DebugStreamsResponse{Streams: make([]StreamDebug, 0, len(streams))}
	for _, s := range streams {
		d := StreamDebug{
			ID:         s.id,
			QueueDepth: len(s.queue),
			QueueCap:   cap(s.queue),
			PeriodsCut: s.cut.Load(),
			LastPeriod: s.lastPeriod.Load(),
			LiveHyps:   s.liveWS.Load(),
			Shed:       s.shed.Load(),
		}
		if ns := s.ckptUnixNS.Load(); ns > 0 {
			d.CheckpointAgeSeconds = now.Sub(time.Unix(0, ns)).Seconds()
		}
		if s.driftEnabled { // immutable after construction, safe to read
			d.Generation = s.genA.Load()
			d.Streak = s.streakA.Load()
			d.AmbiguityRatio = math.Float64frombits(s.ambigBits.Load())
			d.LastChangePoint = s.lastCPA.Load()
		}
		// Store view: live handle stats once hydrated, the scan-time
		// snapshot while cold (exact — a cold stream appends nothing).
		d.Hydrated = s.hydratedA.Load()
		var sm *store.StreamMeta
		if h := s.stA.Load(); h != nil {
			v := h.Stats()
			sm = &v
		} else if s.cold != nil {
			sm = s.cold
		}
		if sm != nil {
			d.WALRecords = sm.WALRecords
			d.WALBytes = sm.WALBytes
			if sm.CompactedAtUnixNS > 0 {
				d.LastCompaction = time.Unix(0, sm.CompactedAtUnixNS).UTC().Format(time.RFC3339Nano)
			}
		}
		if err := s.persistErr(); err != nil {
			d.PersistErr = err.Error()
		}
		if err := s.deadErr(); err != nil {
			d.Err = err.Error()
		}
		out.Streams = append(out.Streams, d)
	}
	writeJSON(w, http.StatusOK, out)
}

func (sv *Server) handleDelete(w http.ResponseWriter, r *http.Request) {
	s := sv.unpublish(r.PathValue("id"))
	if s == nil {
		writeError(w, http.StatusNotFound, fmt.Errorf("serve: no stream %q", r.PathValue("id")))
		return
	}
	sv.retire(s)
	w.WriteHeader(http.StatusNoContent)
}

func writeJSON(w http.ResponseWriter, status int, v interface{}) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	encodeJSON(w, v)
}

// encodeJSON writes v the way every API body is encoded: indented two
// spaces, HTML-escaped, newline-terminated.
func encodeJSON(w io.Writer, v interface{}) {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

func writeError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, errorResponse{Error: err.Error()})
}
