package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"time"

	"github.com/blackbox-rt/modelgen/internal/obs"
	"github.com/blackbox-rt/modelgen/internal/serve"
)

// Gateway metric names.
const (
	MetricProxyRequests = "modelgen_cluster_proxy_requests_total"
	MetricProxyErrors   = "modelgen_cluster_proxy_errors_total"
	MetricMigrations    = "modelgen_cluster_migrations_total"
	MetricFallbacks     = "modelgen_cluster_migration_fallbacks_total"
)

// Backend is one node the gateway routes to.
type Backend struct {
	// Name is the node's ring name; it must match the node's
	// NodeConfig.ID or fences and placement drift apart.
	Name string
	// URL is the node's base URL (no trailing slash).
	URL string
	// Client issues the proxied requests; nil uses
	// http.DefaultClient. Tests inject clients whose transports they
	// can cut to simulate partitions.
	Client *http.Client
}

// GatewayConfig configures the router.
type GatewayConfig struct {
	Backends []Backend
	// Ring parameterizes stream placement. Placement is a pure
	// function of (Ring.Seed, backend names, stream ID).
	Ring RingConfig
	// Registry receives the gateway's own modelgen_cluster_* series.
	Registry *obs.Registry
	// MigrationWait bounds how long a proxied request waits for an
	// in-flight migration of its stream before answering 503; zero
	// selects 5s.
	MigrationWait time.Duration
	// MaxBody bounds a create request's body; zero selects 1 MiB.
	MaxBody int64
	// Logf receives diagnostics; nil discards.
	Logf func(format string, args ...any)
}

// placement is the gateway's authoritative view of one stream: the
// owning node and the placement epoch every proxied request is stamped
// with. migrating is non-nil while a handoff is in flight; requests
// for the stream wait on it so clients see a paused stream, not a
// refused one.
type placement struct {
	node      string
	epoch     uint64
	migrating chan struct{}
}

// backend is a Backend plus its per-node proxy counters, resolved once
// at NewGateway so the request path never touches the registry.
type backend struct {
	Backend
	reqs, errs *obs.Counter
}

// Gateway proxies the /v1/streams API to the owning node of each
// stream and runs migrations. All proxied requests forward the
// client's headers — traceparent included, so traces span nodes — and
// carry the placement epoch in EpochHeader.
type Gateway struct {
	cfg      GatewayConfig
	ring     *Ring
	backends map[string]*backend
	mux      *http.ServeMux

	mu      sync.Mutex
	streams map[string]*placement
	nextID  uint64 // generated stream IDs for bodyless creates

	// Chaos hooks, called (when non-nil) at the two fatal instants of
	// a migration: after the source handoff committed (the fence is
	// up, the stream exists only as the envelope in our hands) and
	// before each import attempt. Tests cut transports inside them.
	hookAfterHandoff func(id string)
	hookBeforeImport func(id, target string)

	mMigrations *obs.Counter
	mFallbacks  *obs.Counter
}

// NewGateway builds the router. The ring is constructed over the
// backend names; construction fails on duplicate or empty names.
func NewGateway(cfg GatewayConfig) (*Gateway, error) {
	names := make([]string, 0, len(cfg.Backends))
	backends := make(map[string]*backend, len(cfg.Backends))
	for _, b := range cfg.Backends {
		names = append(names, b.Name)
		backends[b.Name] = &backend{Backend: b,
			reqs: cfg.Registry.LabeledCounter(MetricProxyRequests, "Requests proxied to each node.", "node", b.Name),
			errs: cfg.Registry.LabeledCounter(MetricProxyErrors, "Proxied requests that failed in transport.", "node", b.Name),
		}
	}
	ring, err := NewRing(names, cfg.Ring)
	if err != nil {
		return nil, err
	}
	if cfg.MigrationWait <= 0 {
		cfg.MigrationWait = 5 * time.Second
	}
	if cfg.MaxBody <= 0 {
		cfg.MaxBody = 1 << 20
	}
	g := &Gateway{
		cfg:      cfg,
		ring:     ring,
		backends: backends,
		streams:  map[string]*placement{},
	}
	g.mMigrations = cfg.Registry.Counter(MetricMigrations, "Completed stream migrations.")
	g.mFallbacks = cfg.Registry.Counter(MetricFallbacks,
		"Migrations that landed on a fallback node because the chosen target failed to import.")
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/streams", g.handleCreate)
	mux.HandleFunc("GET /v1/streams", g.handleList)
	mux.HandleFunc("/v1/streams/{id}", g.handleStream)
	mux.HandleFunc("/v1/streams/{id}/{rest...}", g.handleStream)
	mux.HandleFunc("GET /cluster/ring", g.handleRing)
	mux.HandleFunc("GET /cluster/metrics", g.handleMetrics)
	mux.HandleFunc("POST /cluster/migrate/{id}", g.handleMigrate)
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	})
	if cfg.Registry != nil {
		mux.Handle("GET /metrics", cfg.Registry.Handler())
	}
	g.mux = mux
	return g, nil
}

// Handler returns the gateway's HTTP surface.
func (g *Gateway) Handler() http.Handler { return g.mux }

// Ring returns the placement ring.
func (g *Gateway) Ring() *Ring { return g.ring }

// Owner returns the node currently serving the stream and its
// placement epoch (ring placement at epoch 1 if the gateway has not
// seen the stream yet).
func (g *Gateway) Owner(id string) (string, uint64) {
	g.mu.Lock()
	defer g.mu.Unlock()
	p := g.placementLocked(id)
	return p.node, p.epoch
}

func (g *Gateway) logf(format string, args ...any) {
	if g.cfg.Logf != nil {
		g.cfg.Logf(format, args...)
	}
}

func (g *Gateway) placementLocked(id string) *placement {
	p, ok := g.streams[id]
	if !ok {
		p = &placement{node: g.ring.Owner(id), epoch: 1}
		g.streams[id] = p
	}
	return p
}

// await returns the stream's owner and placement epoch, copied under
// the lock, once no migration is in flight; ok is false after
// MigrationWait.
func (g *Gateway) await(id string) (node string, epoch uint64, ok bool) {
	deadline := time.Now().Add(g.cfg.MigrationWait)
	for {
		g.mu.Lock()
		p := g.placementLocked(id)
		node, epoch, ch := p.node, p.epoch, p.migrating
		g.mu.Unlock()
		if ch == nil {
			return node, epoch, true
		}
		remain := time.Until(deadline)
		if remain <= 0 {
			return "", 0, false
		}
		t := time.NewTimer(remain)
		select {
		case <-ch:
			t.Stop()
		case <-t.C:
			return "", 0, false
		}
	}
}

// deposed reports whether a request routed to the stream at epoch has
// lost its owner since: a migration is in flight or has committed a
// later epoch.
func (g *Gateway) deposed(id string, epoch uint64) bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	p := g.streams[id]
	return p != nil && (p.migrating != nil || p.epoch > epoch)
}

// staleOwnerStatus reports whether a node's answer can mean that the
// request reached a deposed owner, which applied nothing: the stream
// was already unpublished (404), retired (410) or fenced (412).
func staleOwnerStatus(code int) bool {
	return code == http.StatusNotFound || code == http.StatusGone || code == http.StatusPreconditionFailed
}

func (b *backend) client() *http.Client {
	if b.Client != nil {
		return b.Client
	}
	return http.DefaultClient
}

// forward proxies the request to the node, stamping the placement
// epoch, and relays the answer.
func (g *Gateway) forward(w http.ResponseWriter, r *http.Request, node string, epoch uint64, body []byte) {
	resp, err := g.send(r, node, epoch, body)
	g.relay(w, node, resp, err)
}

// send issues the proxied request to the node. The client's headers
// are copied wholesale, so traceparent propagates into the node's span
// tree. An error means the node gave no answer.
func (g *Gateway) send(r *http.Request, node string, epoch uint64, body []byte) (*http.Response, error) {
	b := g.backends[node]
	b.reqs.Inc()
	req, err := http.NewRequestWithContext(r.Context(), r.Method, b.URL+r.URL.RequestURI(), bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header = r.Header.Clone()
	req.Header.Set(EpochHeader, strconv.FormatUint(epoch, 10))
	resp, err := b.client().Do(req)
	if err != nil {
		b.errs.Inc()
		g.logf("cluster: gateway: %s %s → %s: %v", r.Method, r.URL.Path, node, err)
		return nil, err
	}
	return resp, nil
}

// relay writes send's outcome to the client: the node's answer as is,
// or 502 when there was none.
func (g *Gateway) relay(w http.ResponseWriter, node string, resp *http.Response, err error) {
	if err != nil {
		writeJSON(w, http.StatusBadGateway,
			map[string]string{"error": fmt.Sprintf("cluster: node %s unreachable: %v", node, err)})
		return
	}
	defer resp.Body.Close()
	for k, vs := range resp.Header {
		for _, v := range vs {
			w.Header().Add(k, v)
		}
	}
	w.WriteHeader(resp.StatusCode)
	_, _ = io.Copy(w, resp.Body)
}

func (g *Gateway) handleCreate(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, g.cfg.MaxBody))
	if err != nil {
		writeJSON(w, http.StatusBadRequest, map[string]string{"error": err.Error()})
		return
	}
	var req serve.CreateStreamRequest
	if len(body) > 0 {
		if err := json.Unmarshal(body, &req); err != nil {
			writeJSON(w, http.StatusBadRequest, map[string]string{"error": "serve: undecodable create request"})
			return
		}
	}
	if req.ID == "" {
		// The gateway must know the ID to place the stream, so it —
		// not the owning node — generates names for bodyless creates.
		g.mu.Lock()
		g.nextID++
		req.ID = "g" + strconv.FormatUint(g.nextID, 10)
		g.mu.Unlock()
		if body, err = json.Marshal(&req); err != nil {
			writeJSON(w, http.StatusInternalServerError, map[string]string{"error": err.Error()})
			return
		}
	}
	node, epoch, ok := g.await(req.ID)
	if !ok {
		writeMigrating(w, req.ID)
		return
	}
	g.forward(w, r, node, epoch, body)
}

func writeMigrating(w http.ResponseWriter, id string) {
	writeJSON(w, http.StatusServiceUnavailable,
		map[string]string{"error": fmt.Sprintf("cluster: stream %s is migrating", id)})
}

func (g *Gateway) handleStream(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxStreamBody))
	if err != nil {
		writeJSON(w, http.StatusBadRequest, map[string]string{"error": err.Error()})
		return
	}
	node, epoch, ok := g.await(id)
	if !ok {
		writeMigrating(w, id)
		return
	}
	resp, err := g.send(r, node, epoch, body)
	if err == nil && staleOwnerStatus(resp.StatusCode) && g.deposed(id, epoch) {
		// The request was routed just before a migration took the
		// stream off the node, which therefore applied nothing: send
		// the buffered body once more to wherever the migration
		// settles.
		resp.Body.Close()
		if node, epoch, ok = g.await(id); !ok {
			writeMigrating(w, id)
			return
		}
		resp, err = g.send(r, node, epoch, body)
	}
	g.relay(w, node, resp, err)
}

// maxStreamBody bounds proxied per-stream request bodies (events
// batches); it mirrors the serve default.
const maxStreamBody = 8 << 20

// handleList fans GET /v1/streams out to every node and merges the
// sorted results.
func (g *Gateway) handleList(w http.ResponseWriter, r *http.Request) {
	var all []serve.StreamInfo
	var errs []string
	for _, node := range g.ring.Nodes() {
		infos, err := g.listNode(r, node)
		if err != nil {
			errs = append(errs, fmt.Sprintf("%s: %v", node, err))
			continue
		}
		all = append(all, infos...)
	}
	if len(errs) > 0 && all == nil {
		writeJSON(w, http.StatusBadGateway, map[string]any{"error": errs})
		return
	}
	sort.Slice(all, func(i, j int) bool { return all[i].ID < all[j].ID })
	writeJSON(w, http.StatusOK, all)
}

func (g *Gateway) listNode(r *http.Request, node string) ([]serve.StreamInfo, error) {
	var infos []serve.StreamInfo
	err := g.call(r.Context(), node, http.MethodGet, "/v1/streams", nil, nil, http.StatusOK, &infos)
	return infos, err
}

// call sends one gateway-originated request (not a proxied one) to a
// node: it counts a transport failure in MetricProxyErrors, turns any
// status but want into an error carrying the body's first bytes, and
// decodes the answer into out unless out is nil.
func (g *Gateway) call(ctx context.Context, node, method, path string, body []byte, hdr map[string]string, want int, out any) error {
	b := g.backends[node]
	req, err := http.NewRequestWithContext(ctx, method, b.URL+path, bytes.NewReader(body))
	if err != nil {
		return err
	}
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	resp, err := b.client().Do(req)
	if err != nil {
		b.errs.Inc()
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != want {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		return fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(msg))
	}
	if out == nil {
		return nil
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// RingResponse is the body of GET /cluster/ring.
type RingResponse struct {
	Nodes        []string `json:"nodes"`
	VirtualNodes int      `json:"virtual_nodes"`
	Seed         uint64   `json:"seed"`
	// Streams maps every stream the gateway has placed to its owner.
	Streams map[string]StreamPlacement `json:"streams"`
}

// StreamPlacement is one stream's entry in RingResponse.
type StreamPlacement struct {
	Node      string `json:"node"`
	Epoch     uint64 `json:"epoch"`
	Migrating bool   `json:"migrating,omitempty"`
}

func (g *Gateway) handleRing(w http.ResponseWriter, _ *http.Request) {
	resp := RingResponse{
		Nodes:        g.ring.Nodes(),
		VirtualNodes: g.ring.cfg.VirtualNodes,
		Seed:         g.ring.cfg.Seed,
		Streams:      map[string]StreamPlacement{},
	}
	g.mu.Lock()
	for id, p := range g.streams {
		resp.Streams[id] = StreamPlacement{Node: p.node, Epoch: p.epoch, Migrating: p.migrating != nil}
	}
	g.mu.Unlock()
	writeJSON(w, http.StatusOK, resp)
}

func (g *Gateway) handleMigrate(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	target := r.URL.Query().Get("target")
	if target == "" {
		writeJSON(w, http.StatusBadRequest, map[string]string{"error": "cluster: migrate needs ?target=<node>"})
		return
	}
	if err := g.Migrate(id, target); err != nil {
		writeJSON(w, http.StatusConflict, map[string]string{"error": err.Error()})
		return
	}
	node, epoch := g.Owner(id)
	writeJSON(w, http.StatusOK, StreamPlacement{Node: node, Epoch: epoch})
}

// Migrate moves the stream to the target node by checkpoint handoff:
//
//  1. Mark the stream migrating; proxied requests for it now wait.
//  2. POST /cluster/handoff/{id} on the owner at epoch e+1. The owner
//     drains the stream's queue, snapshots, removes it, and fences
//     itself at e+1 — from here no epoch-e write can land anywhere.
//  3. POST /cluster/import on the target. If the target fails, try
//     the remaining nodes (the deposed owner last — its fence admits
//     epoch e+1 back); the first import wins ownership.
//  4. Commit the new placement {winner, e+1} and release waiters.
//
// A handoff failure aborts with placement unchanged: the stream never
// left the owner. After a successful handoff the envelope is the only
// copy of the stream until an import lands, which is why step 3 falls
// back across every live node rather than failing fast.
func (g *Gateway) Migrate(id, target string) error {
	if _, ok := g.backends[target]; !ok {
		return fmt.Errorf("cluster: unknown target node %q", target)
	}
	g.mu.Lock()
	p := g.placementLocked(id)
	if p.migrating != nil {
		g.mu.Unlock()
		return fmt.Errorf("cluster: stream %s already migrating", id)
	}
	if p.node == target {
		g.mu.Unlock()
		return nil
	}
	ch := make(chan struct{})
	p.migrating = ch
	source, newEpoch := p.node, p.epoch+1
	g.mu.Unlock()
	defer func() {
		g.mu.Lock()
		p.migrating = nil
		g.mu.Unlock()
		close(ch)
	}()

	hr, err := g.handoff(source, id, newEpoch)
	if err != nil {
		return fmt.Errorf("cluster: migrate %s: handoff from %s: %w (placement unchanged)", id, source, err)
	}
	if g.hookAfterHandoff != nil {
		g.hookAfterHandoff(id)
	}

	// Candidate order: the requested target, then the other nodes in
	// ring order, the deposed source last.
	candidates := []string{target}
	for _, n := range g.ring.Nodes() {
		if n != target && n != source {
			candidates = append(candidates, n)
		}
	}
	if source != target {
		candidates = append(candidates, source)
	}
	var winner string
	var lastErr error
	for _, cand := range candidates {
		if g.hookBeforeImport != nil {
			g.hookBeforeImport(id, cand)
		}
		if err := g.importTo(cand, hr, newEpoch); err != nil {
			lastErr = err
			g.logf("cluster: migrate %s: import on %s failed: %v", id, cand, err)
			continue
		}
		winner = cand
		break
	}
	if winner == "" {
		return fmt.Errorf("cluster: migrate %s: no node could import the stream: %w", id, lastErr)
	}
	g.mu.Lock()
	p.node = winner
	p.epoch = newEpoch
	g.mu.Unlock()
	g.mMigrations.Inc()
	if winner != target {
		g.mFallbacks.Inc()
	}
	g.logf("cluster: migrated stream %s %s→%s at epoch %d", id, source, winner, newEpoch)
	return nil
}

func (g *Gateway) handoff(node, id string, epoch uint64) (*HandoffResponse, error) {
	var hr HandoffResponse
	err := g.call(context.TODO(), node, http.MethodPost, "/cluster/handoff/"+id, nil,
		map[string]string{EpochHeader: strconv.FormatUint(epoch, 10)}, http.StatusOK, &hr)
	if err != nil {
		return nil, err
	}
	return &hr, nil
}

func (g *Gateway) importTo(node string, hr *HandoffResponse, epoch uint64) error {
	body, err := json.Marshal(ImportRequest{Learned: hr.Learned, Epoch: epoch, Envelope: hr.Envelope})
	if err != nil {
		return err
	}
	return g.call(context.TODO(), node, http.MethodPost, "/cluster/import", body,
		map[string]string{"Content-Type": "application/json"}, http.StatusCreated, nil)
}

// MetricsResponse is the body of the gateway's GET /cluster/metrics:
// every node's snapshot plus the cluster-wide aggregation.
type MetricsResponse struct {
	// Cluster sums every node's series: counters and gauges add,
	// histograms merge bucket-wise.
	Cluster obs.Snapshot `json:"cluster"`
	// Nodes holds each node's own snapshot ("" error = reachable).
	Nodes map[string]NodeMetrics `json:"nodes"`
}

// NodeMetrics is one node's entry in MetricsResponse.
type NodeMetrics struct {
	Error   string       `json:"error,omitempty"`
	Metrics obs.Snapshot `json:"metrics,omitempty"`
}

func (g *Gateway) handleMetrics(w http.ResponseWriter, r *http.Request) {
	resp := MetricsResponse{Cluster: obs.Snapshot{}, Nodes: map[string]NodeMetrics{}}
	for _, node := range g.ring.Nodes() {
		snap, err := g.fetchMetrics(r, node)
		if err != nil {
			resp.Nodes[node] = NodeMetrics{Error: err.Error()}
			continue
		}
		resp.Nodes[node] = NodeMetrics{Metrics: snap}
		mergeSnapshot(resp.Cluster, snap)
	}
	writeJSON(w, http.StatusOK, resp)
}

func (g *Gateway) fetchMetrics(r *http.Request, node string) (obs.Snapshot, error) {
	var snap obs.Snapshot
	err := g.call(r.Context(), node, http.MethodGet, "/cluster/metrics", nil, nil, http.StatusOK, &snap)
	return snap, err
}

// mergeSnapshot folds src into dst: counters and gauges sum,
// histograms merge count/sum and bucket-wise (by upper bound). Series
// that change type between nodes keep the first-seen value.
func mergeSnapshot(dst, src obs.Snapshot) {
	for name, m := range src {
		cur, ok := dst[name]
		if !ok {
			dst[name] = copyMetric(m)
			continue
		}
		if cur.Type != m.Type {
			continue
		}
		cur.Value += m.Value
		cur.Float += m.Float
		cur.Count += m.Count
		cur.Sum += m.Sum
		cur.Buckets = mergeBuckets(cur.Buckets, m.Buckets)
		dst[name] = cur
	}
}

func copyMetric(m obs.Metric) obs.Metric {
	c := m
	c.Buckets = append([]obs.Bucket(nil), m.Buckets...)
	for i := range c.Buckets {
		c.Buckets[i].Exemplar = nil // exemplars are per-node, not additive
	}
	return c
}

func mergeBuckets(a, b []obs.Bucket) []obs.Bucket {
	byLE := map[float64]int64{}
	for _, bk := range a {
		byLE[bk.LE] += bk.Count
	}
	for _, bk := range b {
		byLE[bk.LE] += bk.Count
	}
	les := make([]float64, 0, len(byLE))
	for le := range byLE {
		les = append(les, le)
	}
	sort.Float64s(les)
	out := make([]obs.Bucket, 0, len(les))
	for _, le := range les {
		out = append(out, obs.Bucket{LE: le, Count: byLE[le]})
	}
	return out
}
