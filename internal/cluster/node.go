package cluster

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"sync"

	"github.com/blackbox-rt/modelgen/internal/obs"
	"github.com/blackbox-rt/modelgen/internal/serve"
)

// EpochHeader carries the gateway's placement epoch on every proxied
// stream request. A node rejects requests whose epoch is below the
// stream's fence — the typed rejection a deposed owner's late writes
// get instead of silently forking state.
const EpochHeader = "X-Cluster-Epoch"

// Metric names of the per-node cluster series.
const (
	MetricFencedWrites = "modelgen_cluster_fenced_writes_total"
	MetricHandoffs     = "modelgen_cluster_handoffs_total"
	MetricImports      = "modelgen_cluster_imports_total"
)

// FencedError reports a request carrying a placement epoch older than
// the stream's fence on this node: the sender's view of ownership is
// stale and its write must not be applied.
type FencedError struct {
	Stream   string
	Epoch    uint64 // the request's epoch
	MinEpoch uint64 // the fence: lowest epoch this node still accepts
}

func (e *FencedError) Error() string {
	return fmt.Sprintf("cluster: stream %s fenced: request epoch %d below fence %d",
		e.Stream, e.Epoch, e.MinEpoch)
}

// fencedBody is the JSON body of a 412 fence rejection.
type fencedBody struct {
	Error    string `json:"error"`
	Fenced   bool   `json:"fenced"`
	Stream   string `json:"stream"`
	Epoch    uint64 `json:"epoch"`
	MinEpoch uint64 `json:"min_epoch"`
}

// HandoffResponse is the body of POST /cluster/handoff/{id}: the
// checkpoint envelope of the drained, removed stream.
type HandoffResponse struct {
	ID      string `json:"id"`
	Learned int    `json:"learned"`
	Epoch   uint64 `json:"epoch"`
	// Envelope is the serve checkpoint envelope, opaque to the
	// cluster layer.
	Envelope json.RawMessage `json:"envelope"`
}

// ImportRequest is the body of POST /cluster/import.
type ImportRequest struct {
	Learned  int             `json:"learned"`
	Epoch    uint64          `json:"epoch"`
	Envelope json.RawMessage `json:"envelope"`
}

// NodeConfig configures one cluster member.
type NodeConfig struct {
	// ID is the node's name on the ring.
	ID string
	// Server is the wrapped single-node serve instance.
	Server *serve.Server
	// Registry receives the node's modelgen_cluster_* series;
	// normally the same registry the serve.Server reports to, so
	// /cluster/metrics exposes both in one snapshot. Nil disables.
	Registry *obs.Registry
	// Logf receives diagnostics; nil discards.
	Logf func(format string, args ...any)
}

// Node wraps a serve.Server with the cluster-side endpoints: checkpoint
// handoff (export), import, epoch fencing on proxied stream requests,
// and the node's metrics snapshot for gateway aggregation.
//
//	POST /cluster/handoff/{id}   drain + export the stream, fence it at the header epoch
//	POST /cluster/import         rebuild a stream from a handoff envelope
//	GET  /cluster/info           node identity
//	GET  /cluster/metrics        full registry snapshot (JSON)
//	(anything else)              fence check, then the serve API
type Node struct {
	cfg   NodeConfig
	inner http.Handler
	mux   *http.ServeMux

	mu       sync.Mutex
	minEpoch map[string]uint64 // stream → lowest acceptable epoch

	mFenced   *obs.Counter
	mHandoffs *obs.Counter
	mImports  *obs.Counter
}

// NewNode wraps the serve.Server in cluster endpoints.
func NewNode(cfg NodeConfig) *Node {
	n := &Node{
		cfg:      cfg,
		inner:    cfg.Server.Handler(),
		minEpoch: map[string]uint64{},
	}
	reg := cfg.Registry
	n.mFenced = reg.Counter(MetricFencedWrites,
		"Stream requests rejected because their placement epoch was below the stream's fence.")
	n.mHandoffs = reg.Counter(MetricHandoffs,
		"Streams exported to another node by checkpoint handoff.")
	n.mImports = reg.Counter(MetricImports,
		"Streams imported from another node's checkpoint handoff.")
	reg.LabeledGauge("modelgen_cluster_node", "Constant 1, labeled with the node's ring name.",
		"node", cfg.ID).Set(1)
	mux := http.NewServeMux()
	mux.HandleFunc("POST /cluster/handoff/{id}", n.handleHandoff)
	mux.HandleFunc("POST /cluster/import", n.handleImport)
	mux.HandleFunc("GET /cluster/info", n.handleInfo)
	mux.HandleFunc("GET /cluster/metrics", n.handleMetrics)
	mux.HandleFunc("/", n.handleProxied)
	n.mux = mux
	return n
}

// ID returns the node's ring name.
func (n *Node) ID() string { return n.cfg.ID }

// Handler returns the node's HTTP surface: cluster endpoints layered
// over the wrapped serve API.
func (n *Node) Handler() http.Handler { return n.mux }

// MinEpoch returns the stream's fence on this node (0 = unfenced).
func (n *Node) MinEpoch(id string) uint64 {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.minEpoch[id]
}

func (n *Node) logf(format string, args ...any) {
	if n.cfg.Logf != nil {
		n.cfg.Logf(format, args...)
	}
}

// checkFence validates a request epoch against the stream's fence.
func (n *Node) checkFence(id string, epoch uint64) *FencedError {
	n.mu.Lock()
	min := n.minEpoch[id]
	n.mu.Unlock()
	if epoch < min {
		return &FencedError{Stream: id, Epoch: epoch, MinEpoch: min}
	}
	return nil
}

// raiseFence lifts the stream's fence to epoch (never lowers it).
func (n *Node) raiseFence(id string, epoch uint64) {
	n.mu.Lock()
	if epoch > n.minEpoch[id] {
		n.minEpoch[id] = epoch
	}
	n.mu.Unlock()
}

func (n *Node) rejectFenced(w http.ResponseWriter, fe *FencedError) {
	n.mFenced.Inc()
	n.logf("cluster: node %s: %v", n.cfg.ID, fe)
	writeJSON(w, http.StatusPreconditionFailed, fencedBody{
		Error:    fe.Error(),
		Fenced:   true,
		Stream:   fe.Stream,
		Epoch:    fe.Epoch,
		MinEpoch: fe.MinEpoch,
	})
}

// handleProxied fences stream-scoped requests, then delegates to the
// serve API. Requests without an epoch header (direct, non-gateway
// access) are passed through unfenced.
func (n *Node) handleProxied(w http.ResponseWriter, r *http.Request) {
	if eh := r.Header.Get(EpochHeader); eh != "" {
		if id := streamIDFromPath(r.URL.Path); id != "" {
			epoch, err := strconv.ParseUint(eh, 10, 64)
			if err != nil {
				writeJSON(w, http.StatusBadRequest,
					map[string]string{"error": fmt.Sprintf("cluster: bad %s header: %v", EpochHeader, err)})
				return
			}
			if fe := n.checkFence(id, epoch); fe != nil {
				n.rejectFenced(w, fe)
				return
			}
		}
	}
	n.inner.ServeHTTP(w, r)
}

// streamIDFromPath extracts {id} from /v1/streams/{id}[/...], or "".
func streamIDFromPath(path string) string {
	const prefix = "/v1/streams/"
	if !strings.HasPrefix(path, prefix) {
		return ""
	}
	id := path[len(prefix):]
	if i := strings.IndexByte(id, '/'); i >= 0 {
		id = id[:i]
	}
	return id
}

// handleHandoff drains and exports the stream, fencing it at the
// request epoch so this node — the deposed owner — rejects any write
// still carrying a pre-handoff epoch.
func (n *Node) handleHandoff(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	epoch, err := strconv.ParseUint(r.Header.Get(EpochHeader), 10, 64)
	if err != nil || epoch == 0 {
		writeJSON(w, http.StatusBadRequest,
			map[string]string{"error": fmt.Sprintf("cluster: handoff needs a positive %s header", EpochHeader)})
		return
	}
	envelope, learned, err := n.cfg.Server.ExportStream(id)
	if err != nil {
		status := http.StatusInternalServerError
		if errors.Is(err, serve.ErrNoStream) {
			status = http.StatusNotFound
		}
		writeJSON(w, status, map[string]string{"error": err.Error()})
		return
	}
	n.raiseFence(id, epoch)
	n.mHandoffs.Inc()
	n.logf("cluster: node %s: handed off stream %s at epoch %d (%d periods)", n.cfg.ID, id, epoch, learned)
	writeJSON(w, http.StatusOK, HandoffResponse{ID: id, Learned: learned, Epoch: epoch, Envelope: envelope})
}

// handleImport rebuilds a stream from a handoff envelope. The import
// epoch must clear this node's own fence for the stream: a node that
// handed the stream off at epoch e accepts it back only at ≥ e (the
// fallback path re-importing to the source is exactly the = case).
func (n *Node) handleImport(w http.ResponseWriter, r *http.Request) {
	var req ImportRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeJSON(w, http.StatusBadRequest, map[string]string{"error": "cluster: undecodable import request"})
		return
	}
	// Peek the stream ID out of the envelope to fence-check before the
	// import becomes observable.
	var peek struct {
		Info struct {
			ID string `json:"id"`
		} `json:"info"`
	}
	if err := json.Unmarshal(req.Envelope, &peek); err != nil || peek.Info.ID == "" {
		writeJSON(w, http.StatusBadRequest, map[string]string{"error": "cluster: import envelope names no stream"})
		return
	}
	if fe := n.checkFence(peek.Info.ID, req.Epoch); fe != nil {
		n.rejectFenced(w, fe)
		return
	}
	info, err := n.cfg.Server.ImportStream(req.Envelope, req.Learned)
	if err != nil {
		status := http.StatusInternalServerError
		if errors.Is(err, serve.ErrStreamExists) {
			status = http.StatusConflict
		}
		writeJSON(w, status, map[string]string{"error": err.Error()})
		return
	}
	n.raiseFence(info.ID, req.Epoch)
	n.mImports.Inc()
	n.logf("cluster: node %s: imported stream %s at epoch %d (%d periods)", n.cfg.ID, info.ID, req.Epoch, req.Learned)
	writeJSON(w, http.StatusCreated, info)
}

func (n *Node) handleInfo(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, map[string]string{"id": n.cfg.ID})
}

// handleMetrics serves the node's full registry snapshot as JSON —
// the feed the gateway's /cluster/metrics aggregation consumes.
func (n *Node) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	if n.cfg.Registry == nil {
		fmt.Fprint(w, "{}")
		return
	}
	_ = n.cfg.Registry.WriteJSON(w)
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}
