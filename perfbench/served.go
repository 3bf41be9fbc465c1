package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"

	"github.com/blackbox-rt/modelgen/internal/casestudy"
	"github.com/blackbox-rt/modelgen/internal/cluster"
	"github.com/blackbox-rt/modelgen/internal/learner"
	"github.com/blackbox-rt/modelgen/internal/obs"
	"github.com/blackbox-rt/modelgen/internal/serve"
	"github.com/blackbox-rt/modelgen/internal/sim"
	"github.com/blackbox-rt/modelgen/internal/trace"
)

// servedSpec is a served workload: one closed-loop client feeding
// trace streams to an in-process server, one round after another. A
// round boots a fresh deployment on an empty store, creates the
// streams, feeds every stream its whole trace and shuts down; every
// round feeds the same traces, so every round must end in the same
// models.
//
// Its traffic is timed on the CPU clock of the whole process (see
// processCPU). The single client and GOMAXPROCS=1 are what make that
// clock fit: nothing else runs while a request is in flight.
type servedSpec struct {
	cluster      bool
	streams      int // trace streams, each simulated from its own seed
	bound        int // learner bound of every stream
	periods      int // periods per stream per round
	batch        int // periods per POST
	compactEvery int // WAL records before a stream's log is folded into a base
}

var (
	serveWAL     = servedSpec{streams: 8, bound: 16, periods: 96, batch: 3, compactEvery: 32}
	serveCluster = func() servedSpec { s := serveWAL; s.cluster = true; return s }()
)

// Headers carrying the benchmark's span parent and request id through
// the gateway hop (the gateway forwards client headers to the node).
const (
	hdrParent = "X-Bench-Parent"
	hdrReq    = "X-Bench-Req"
)

// stream is one simulated trace stream and its expected model.
type stream struct {
	id     string
	bodies []string // POST bodies: batch periods, each closed by a trailing "period"
	want   modelView
}

func (spec servedSpec) inputs(seed int64) ([]*stream, []string, error) {
	var tasks []string
	out := make([]*stream, spec.streams)
	for i := range out {
		res, err := sim.Run(casestudy.FullModel(), sim.Options{Periods: spec.periods, Seed: subSeed(seed, i)})
		if err != nil {
			return nil, nil, err
		}
		tr := res.Trace
		tasks = tr.Tasks
		s := &stream{id: fmt.Sprintf("s%d", i)}
		for lo := 0; lo < len(tr.Periods); lo += spec.batch {
			var sb strings.Builder
			if err := trace.Write(&sb, tr.Slice(lo, min(lo+spec.batch, len(tr.Periods)))); err != nil {
				return nil, nil, err
			}
			body := sb.String()
			body = body[strings.IndexByte(body, '\n')+1:] // the stream was created with its task set
			s.bodies = append(s.bodies, body+"period\n")
		}
		// Expected model: the batch learner over the same periods and
		// options, parsed from the same rendered text.
		var sb strings.Builder
		if err := trace.Write(&sb, tr); err != nil {
			return nil, nil, err
		}
		parsed, err := trace.ReadString(sb.String())
		if err != nil {
			return nil, nil, err
		}
		want, err := learner.Learn(parsed, learner.Options{Bound: spec.bound})
		if err != nil {
			return nil, nil, err
		}
		s.want = viewOf(want)
		out[i] = s
	}
	return out, tasks, nil
}

// inprocTransport serves a request by calling the handler directly:
// no sockets, the way cmd/bbload drives an in-process server.
type inprocTransport struct{ h http.Handler }

func (t inprocTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	rec := httptest.NewRecorder()
	t.h.ServeHTTP(rec, r)
	return rec.Result(), nil
}

// spanHandler records a span around every request it hands to h,
// parented by the caller's span from hdrParent, and passes its own
// span id on so the next hop nests under it.
func spanHandler(rec *recorder, name string, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		parent, _ := strconv.Atoi(r.Header.Get(hdrParent))
		req, _ := strconv.ParseInt(r.Header.Get(hdrReq), 10, 64)
		id := rec.open(name, parent, req)
		r.Header.Set(hdrParent, strconv.Itoa(id))
		h.ServeHTTP(w, r)
		rec.close(id)
	})
}

// deployment is one booted server (or gateway plus nodes).
type deployment struct {
	client  *http.Client
	servers []*serve.Server
}

func (d *deployment) shutdown() error {
	var first error
	for _, sv := range d.servers {
		if err := sv.Shutdown(context.Background()); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// boot builds the deployment on dir: serve.New with a WAL store (and
// for the cluster, two nodes behind a gateway). rec, when non-nil,
// wraps the gateway and each node backend in spans.
func (spec servedSpec) boot(dir string, rec *recorder) (*deployment, error) {
	newServer := func(dir string) (*serve.Server, error) {
		sv := serve.New(serve.Config{CheckpointDir: dir, CheckpointEvery: spec.compactEvery, Registry: obs.NewRegistry()})
		if _, err := sv.RestoreFromDir(); err != nil {
			return nil, err
		}
		return sv, nil
	}
	d := &deployment{}
	if !spec.cluster {
		sv, err := newServer(dir)
		if err != nil {
			return nil, err
		}
		d.servers = []*serve.Server{sv}
		d.client = &http.Client{Transport: inprocTransport{sv.Handler()}}
		return d, nil
	}
	var backends []cluster.Backend
	for i := 0; i < 2; i++ {
		name := fmt.Sprintf("node%d", i)
		sv, err := newServer(filepath.Join(dir, name))
		if err != nil {
			_ = d.shutdown()
			return nil, err
		}
		d.servers = append(d.servers, sv)
		var h http.Handler = cluster.NewNode(cluster.NodeConfig{ID: name, Server: sv, Registry: obs.NewRegistry()}).Handler()
		if rec != nil {
			h = spanHandler(rec, "cluster.node", h)
		}
		backends = append(backends, cluster.Backend{Name: name, URL: "http://" + name, Client: &http.Client{Transport: inprocTransport{h}}})
	}
	gw, err := cluster.NewGateway(cluster.GatewayConfig{Backends: backends, Registry: obs.NewRegistry()})
	if err != nil {
		_ = d.shutdown()
		return nil, err
	}
	var h http.Handler = gw.Handler()
	if rec != nil {
		h = spanHandler(rec, "cluster.gateway", h)
	}
	d.client = &http.Client{Transport: inprocTransport{h}}
	return d, nil
}

// call issues one in-process request; any transport error or status
// other than want is a failure.
func call(c *http.Client, method, path, body string, want int, hdr map[string]string) (int, []byte, error) {
	req, err := http.NewRequest(method, "http://bench.inproc"+path, strings.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	resp, err := c.Do(req)
	if err != nil {
		return 0, nil, fmt.Errorf("%s %s: %w", method, path, err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		return resp.StatusCode, nil, fmt.Errorf("%s %s: %w", method, path, err)
	}
	if resp.StatusCode != want {
		return resp.StatusCode, nil, fmt.Errorf("%s %s: status %d: %s", method, path, resp.StatusCode, bytes.TrimSpace(out))
	}
	return resp.StatusCode, out, nil
}

// round is the outcome of one round. Set-up is wall time: it is mostly
// file creation and fsync, whose cost is the wait. The traffic is
// timed on the process CPU clock; wall holds its wall time too, for
// the report's notes.
type round struct {
	acks    []float64     // POST + GET round trips, ms
	shed    int64         // POSTs answered 429
	setup   time.Duration // boot plus stream creation
	elapsed time.Duration // first POST until the last model read
	wall    time.Duration
	finals  []modelView // per stream, from the last GET
	tally   tally
}

// runRound boots a deployment under dir, creates the streams, lets the
// client feed every stream its bodies in closed loop, and shuts down.
func (spec servedSpec) runRound(dir string, tasks []string, streams []*stream, rec *recorder, reqBase int64) (*round, error) {
	r := &round{finals: make([]modelView, len(streams))}
	// Every round starts from a collected heap, so a collection left
	// over from the last round does not land in this one's set-up.
	runtime.GC()
	t0 := time.Now()
	d, err := spec.boot(dir, rec)
	if err != nil {
		return nil, err
	}
	taskJSON, _ := json.Marshal(tasks) // a []string always encodes
	for _, s := range streams {
		body := fmt.Sprintf(`{"id":%q,"tasks":%s,"options":{"bound":%d}}`, s.id, taskJSON, spec.bound)
		_, _, err := call(d.client, "POST", "/v1/streams", body, http.StatusCreated, nil)
		r.tally.op(err)
	}
	start, wall := processCPU(), time.Now()
	r.setup = wall.Sub(t0)
	spec.client(d.client, streams, rec, reqBase, r)
	r.elapsed, r.wall = processCPU()-start, time.Since(wall)
	if err := d.shutdown(); err != nil {
		return nil, err
	}
	return r, nil
}

// client is the closed-loop client: for each batch index it sends, to
// each stream in turn, the POST of the batch and then the GET of the
// model, and waits for both before the next request. out.finals
// receives each stream's last model.
func (spec servedSpec) client(c *http.Client, streams []*stream, rec *recorder, reqBase int64, out *round) {
	nb := len(streams[0].bodies)
	for b := 0; b < nb; b++ {
		for i, s := range streams {
			req := reqBase + int64(i*nb+b)
			var hdr map[string]string
			rt := rec.open("serve.round_trip", 0, req)
			a := processCPU()
			post := rec.open("serve.post_events", rt, req)
			if rec != nil {
				hdr = map[string]string{hdrParent: strconv.Itoa(post), hdrReq: strconv.FormatInt(req, 10)}
			}
			code, _, err := call(c, "POST", "/v1/streams/"+s.id+"/events", s.bodies[b], http.StatusAccepted, hdr)
			rec.close(post)
			if code == http.StatusTooManyRequests {
				out.shed++ // counted as a failure too: the closed loop never retries
			}
			if !out.tally.op(err) {
				rec.close(rt)
				continue
			}
			get := rec.open("serve.get_model", rt, req)
			if rec != nil {
				hdr[hdrParent] = strconv.Itoa(get)
			}
			_, body, err := call(c, "GET", "/v1/streams/"+s.id+"/model", "", http.StatusOK, hdr)
			rec.close(get)
			rec.close(rt)
			if !out.tally.op(err) {
				continue
			}
			out.acks = append(out.acks, ms(processCPU()-a))
			// Every acknowledged period must be readable at once.
			var m serve.ModelResponse
			if err := json.Unmarshal(body, &m); err != nil {
				out.tally.op(err)
				continue
			}
			if wantP := min((b+1)*spec.batch, spec.periods); m.Periods != wantP {
				out.tally.op(fmt.Errorf("stream %s: model after batch %d covers %d periods, want %d", s.id, b, m.Periods, wantP))
				continue
			}
			if b == nb-1 {
				out.finals[i] = modelView{LUB: m.LUB, Hyps: m.Hypotheses, Periods: m.Periods}
			}
		}
	}
}

// verifyFinals checks each stream's final served model against the
// batch learner's model for the same periods.
func verifyFinals(finals []modelView, streams []*stream, what string, t *tally) {
	for i, s := range streams {
		t.op(wrapErr(fmt.Sprintf("%s: stream %s", what, s.id), finals[i].diff(s.want)))
	}
}

func runServed(cfg runConfig, spec servedSpec) (*report, error) {
	if _, err := readProcessCPU(); err != nil {
		return nil, err
	}
	// One P runs the client, the handlers, the stream workers and the
	// collector in turn, so the process CPU time of a request is its
	// own work, with no idle P spinning beside it.
	runtime.GOMAXPROCS(1)
	streams, tasks, err := spec.inputs(cfg.seed)
	if err != nil {
		return nil, err
	}
	var t tally
	rep := &report{Metrics: map[string]metric{}}
	roundNo := 0
	// rounds runs rounds until budget has elapsed (at least one);
	// replay, when set, runs after each round outside its timing.
	rounds := func(budget time.Duration, rec *recorder, replay func(*round) error) ([]*round, error) {
		var out []*round
		begin := time.Now()
		for len(out) == 0 || time.Since(begin) < budget {
			roundNo++
			dir := filepath.Join(cfg.dir, fmt.Sprintf("round-%d", roundNo))
			r, err := spec.runRound(dir, tasks, streams, rec, int64(roundNo)<<32)
			if err != nil {
				return nil, err
			}
			t.add(r.tally)
			verifyFinals(r.finals, streams, fmt.Sprintf("round %d", roundNo), &t)
			if replay != nil {
				if err := replay(r); err != nil {
					return nil, err
				}
			}
			if err := os.RemoveAll(dir); err != nil {
				return nil, err
			}
			out = append(out, r)
		}
		return out, nil
	}
	perRound := spec.streams * spec.periods
	throughput := func(rs []*round) float64 {
		xs := make([]float64, len(rs))
		for i, r := range rs {
			xs[i] = float64(perRound) / r.elapsed.Seconds()
		}
		return median(xs)
	}
	wallThroughput := func(rs []*round) float64 {
		xs := make([]float64, len(rs))
		for i, r := range rs {
			xs[i] = float64(perRound) / r.wall.Seconds()
		}
		return median(xs)
	}
	// Warm-up: one untimed round.
	if _, err := spec.runRound(filepath.Join(cfg.dir, "warmup"), tasks, streams, nil, 0); err != nil {
		return nil, err
	}

	if !cfg.traced {
		rs, err := rounds(cfg.seconds, nil, nil)
		if err != nil {
			return nil, err
		}
		var acks, setups []float64
		for _, r := range rs {
			acks = append(acks, r.acks...)
			setups = append(setups, r.setup.Seconds())
		}
		if rep.Metrics, err = endToEndMetrics(throughput(rs), acks, setups); err != nil {
			return nil, err
		}
		rep.notes = append(rep.notes, fmt.Sprintf("rounds=%d periods/round=%d ack_samples=%d setup_samples=%d wall_periods_per_s=%.1f",
			len(rs), perRound, len(acks), len(setups), wallThroughput(rs)))
		t.fill(rep)
		return rep, nil
	}

	// Traced run: half the time untraced (overhead baseline and Go
	// runtime counters), half with spans, each traced round followed
	// by a layer replay of the same lines on a separate store.
	g0 := readGoCounters()
	base, err := rounds(cfg.seconds/2, nil, nil)
	if err != nil {
		return nil, err
	}
	g1 := readGoCounters()
	rec := newRecorder()
	rp := &replayer{spec: spec, tasks: tasks, streams: streams, rec: rec}
	traced, err := rounds(cfg.seconds/2, rec, func(r *round) error {
		return rp.replay(filepath.Join(cfg.dir, fmt.Sprintf("replay-%d", roundNo)), r.finals, &t)
	})
	if err != nil {
		return nil, err
	}
	if err := rec.dump(cfg.spansOut); err != nil {
		return nil, err
	}
	periods := len(traced) * perRound
	total, self := rec.totals()
	per := func(d time.Duration) float64 { return d.Seconds() / float64(periods) }
	l := newLayerMetrics()
	l.set("trace.parse_s", per(total["trace.parse"]))
	l.set("trace.lines", float64(rp.lines)/float64(periods))
	l.set("trace.periods_cut", float64(rp.cut)/float64(periods))
	l.engineCounts(rp.stats, periods)
	l.set("learner.add_period_s", per(total["learner.add_period"]))
	l.set("learner.period_delta_s", per(total["learner.period_delta"]))
	l.set("learner.delta_bytes", float64(rp.deltaBytes)/float64(periods))
	l.set("learner.result_s", per(total["learner.result"]))
	l.set("store.append_s", per(total["store.append"]))
	l.set("store.append_bytes", float64(rp.appendBytes)/float64(periods))
	l.set("store.records", float64(rp.records)/float64(periods))
	l.set("store.compact_s", per(total["store.compact"]))
	l.set("store.compactions", float64(rp.compactions)/float64(periods))
	l.set("serve.post_events_s", per(total["serve.post_events"]))
	l.set("serve.get_model_s", per(total["serve.get_model"]))
	var shed int64
	for _, r := range traced {
		shed += r.shed
	}
	l.set("serve.shed", float64(shed)/float64(periods))
	replayed := total["trace.parse"] + total["learner.add_period"] + total["learner.period_delta"] +
		total["learner.result"] + total["store.append"] + total["store.compact"]
	l.set("serve.self_s", per(total["serve.round_trip"]-self["cluster.gateway"]-replayed))
	l.set("cluster.gateway_s", per(total["cluster.gateway"]))
	l.set("cluster.node_s", per(total["cluster.node"]))
	l.set("cluster.gateway_self_s", per(self["cluster.gateway"]))
	gc, alloc := g0.perPeriod(g1, len(base)*perRound)
	l.set("go.gc_cycles", gc)
	l.set("go.alloc_bytes_per_period", alloc)
	tp := throughput(traced)
	l.set("bench.traced_periods_per_s", tp)
	l.set("bench.tracing_overhead", throughput(base)/tp-1)
	rep.Metrics = l.m
	rt := total["serve.round_trip"]
	rep.notes = append(rep.notes,
		fmt.Sprintf("traced rounds=%d untraced rounds=%d periods=%d spans=%d", len(traced), len(base), periods, len(rec.spans)),
		fmt.Sprintf("delta+append share of the served round trip: %.3f (base: round trips %.3fs)",
			(total["learner.period_delta"]+total["store.append"]).Seconds()/rt.Seconds(), rt.Seconds()))
	t.fill(rep)
	return rep, nil
}
