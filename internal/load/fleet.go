package load

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync"
	"time"

	"github.com/blackbox-rt/modelgen/internal/serve"
)

// The fleet driver every scenario shares: where requests go, the one
// synthetic period shape, stream creation and teardown, the typed
// outcome of an events POST, the sample of requests that did not get
// in, the bounded fan-out and the latency summary. Scenario policy —
// schedules, retries, phases — stays with the scenarios.

// target is where requests go: a live base URL or an in-process
// handler invoked without a socket.
type target struct {
	base string
	c    *http.Client
}

func newTarget(cfg Config) (*target, error) {
	switch {
	case cfg.BaseURL != "":
		return &target{base: strings.TrimRight(cfg.BaseURL, "/"),
			c: &http.Client{Timeout: 30 * time.Second}}, nil
	case cfg.Handler != nil:
		return inproc(cfg.Handler), nil
	default:
		return nil, fmt.Errorf("load: neither BaseURL nor Handler configured")
	}
}

// inproc targets h in process.
func inproc(h http.Handler) *target {
	return &target{base: "http://bbserved.inproc", c: &http.Client{Transport: inprocTransport{h: h}}}
}

// inprocTransport serves requests by calling the handler directly —
// the in-process mode that lets bbload push thousands of streams
// without sockets or ports.
type inprocTransport struct{ h http.Handler }

func (t inprocTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	rec := httptest.NewRecorder()
	t.h.ServeHTTP(rec, r)
	return rec.Result(), nil
}

func (t *target) do(ctx context.Context, method, path string, body []byte, hdr map[string]string) (int, []byte, error) {
	req, err := http.NewRequestWithContext(ctx, method, t.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	resp, err := t.c.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	return resp.StatusCode, out, err
}

// getJSON fetches path and decodes its 200 answer into v, one of
// serve's response types.
func (t *target) getJSON(ctx context.Context, path string, v any) error {
	code, out, err := t.do(ctx, "GET", path, nil, nil)
	if err != nil {
		return err
	}
	if code != http.StatusOK {
		return fmt.Errorf("status %d: %s", code, snippet(out))
	}
	return json.Unmarshal(out, v)
}

// fleetTasks is the task set of every synthetic stream.
var fleetTasks = []string{"t1", "t2"}

// create makes one synthetic stream; req carries everything but the
// task set.
func (t *target) create(ctx context.Context, req serve.CreateStreamRequest) error {
	req.Tasks = fleetTasks
	body, err := json.Marshal(req)
	if err != nil {
		return err
	}
	code, out, err := t.do(ctx, "POST", "/v1/streams", body, nil)
	if err == nil && code != http.StatusCreated {
		err = fmt.Errorf("status %d: %s", code, snippet(out))
	}
	if err != nil {
		return fmt.Errorf("load: create %s: %w", req.ID, err)
	}
	return nil
}

// cleanupTimeout bounds the teardown of a run's streams.
const cleanupTimeout = 30 * time.Second

// deleteStreams removes the streams under a context that outlives
// ctx's cancellation (bounded by cleanupTimeout), so an interrupted
// run still leaves the server as it found it.
func (t *target) deleteStreams(ctx context.Context, ids []string) {
	ctx, cancel := context.WithTimeout(context.WithoutCancel(ctx), cleanupTimeout)
	defer cancel()
	for _, id := range ids {
		_, _, _ = t.do(ctx, "DELETE", "/v1/streams/"+id, nil, nil)
	}
}

// Synthetic stream timing: the period length and the candump streams'
// bus speed.
const (
	periodUS = 1000
	bitRate  = 500_000
)

// renderBatch renders periods from..from+n-1 of the synthetic stream
// shape as one events body. Period k starts at k·periodUS: t1 runs,
// then m1 is on the bus — a msg pair, or one CAN frame on a candump
// stream — then t2 runs. With flipAt positive, periods k ≥ flipAt are
// the drift scenario's changed regime: t1 alone. Text periods end with
// an explicit cut; a candump stream is cut by the server's period
// grid, so its batch ends with one flush instead.
func renderBatch(from, n int, candump bool, flipAt int) string {
	var sb strings.Builder
	for k := from; k < from+n; k++ {
		base := int64(k) * periodUS
		fmt.Fprintf(&sb, "exec t1 %d %d\n", base, base+100)
		if flipAt <= 0 || k < flipAt {
			if candump {
				t := base + 150
				fmt.Fprintf(&sb, "(%d.%06d) can0 123#AA\n", t/1_000_000, t%1_000_000)
			} else {
				fmt.Fprintf(&sb, "msg m1 %d %d\n", base+150, base+200)
			}
			fmt.Fprintf(&sb, "exec t2 %d %d\n", base+400, base+500)
		}
		if !candump {
			sb.WriteString("period\n")
		}
	}
	if candump {
		sb.WriteString("period\n")
	}
	return sb.String()
}

// outcomeKind classifies the answer to an events POST.
type outcomeKind uint8

const (
	accepted  outcomeKind = iota // 202 with the server's IngestResponse
	shed                         // 429: the stream's ingest queue is full
	transient                    // 502/503: a node unreachable or the stream migrating
	failed                       // any other answer, or a transport error
)

// outcome is what one events POST got back.
type outcome struct {
	kind    outcomeKind
	status  int                  // HTTP status, 0 after a transport error
	ingest  serve.IngestResponse // the server's answer when accepted
	body    []byte               // the body of any other answer
	err     error                // the transport error
	latency float64              // seconds
}

// post sends one events batch to stream id and classifies the answer.
func (t *target) post(ctx context.Context, id string, batch []byte, hdr map[string]string) outcome {
	t0 := time.Now()
	code, out, err := t.do(ctx, "POST", "/v1/streams/"+id+"/events", batch, hdr)
	o := outcome{kind: failed, status: code, body: out, err: err, latency: time.Since(t0).Seconds()}
	switch {
	case err != nil:
	case code == http.StatusAccepted:
		if json.Unmarshal(out, &o.ingest) == nil {
			o.kind, o.body = accepted, nil
		}
	case code == http.StatusTooManyRequests:
		o.kind = shed
	case code == http.StatusBadGateway || code == http.StatusServiceUnavailable:
		o.kind = transient
	}
	return o
}

// Failure names one request that did not get in: its stream, the HTTP
// status (0 after a transport error), and the transport error text or
// the first bytes of the answer's body.
type Failure struct {
	Stream string `json:"stream"`
	Status int    `json:"status,omitempty"`
	Error  string `json:"error,omitempty"`
	Body   string `json:"body,omitempty"`
}

func (f Failure) String() string {
	if f.Error != "" {
		return f.Stream + ": " + f.Error
	}
	return fmt.Sprintf("%s: status %d: %s", f.Stream, f.Status, f.Body)
}

// failure records a non-accepted outcome of stream id.
func (o outcome) failure(id string) Failure {
	f := Failure{Stream: id, Status: o.status, Body: snippet(o.body)}
	if o.err != nil {
		f.Error = o.err.Error()
	}
	return f
}

// maxFailures bounds the failure sample a report carries.
const maxFailures = 8

// failureSample keeps the first maxFailures final (not retried)
// non-accepted outcomes of a run. add is safe for concurrent use; read
// list once the senders are done.
type failureSample struct {
	mu   sync.Mutex
	list []Failure
}

func (s *failureSample) add(id string, o outcome) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.list) < maxFailures {
		s.list = append(s.list, o.failure(id))
	}
}

// formatTail ends a report: the failure sample, then the ok line or
// one line per violation.
func formatTail(sb *strings.Builder, fs []Failure, violations []string, ok, prefix string) {
	for _, f := range fs {
		fmt.Fprintf(sb, "failed: %s\n", f)
	}
	if len(violations) == 0 {
		sb.WriteString(ok)
	}
	for _, v := range violations {
		fmt.Fprintf(sb, "%s: %s\n", prefix, v)
	}
}

// snippet trims a response body to its first 200 bytes for error
// texts.
func snippet(b []byte) string {
	b = bytes.TrimSpace(b)
	if len(b) > 200 {
		b = b[:200]
	}
	return string(b)
}

// fanOut runs fn(0..n-1) on at most width goroutines and returns the
// first error. After an error, or once ctx is done, no further item
// starts.
func fanOut(ctx context.Context, n, width int, fn func(i int) error) error {
	sem := make(chan struct{}, width)
	errc := make(chan error, 1)
	fail := func(err error) {
		select {
		case errc <- err:
		default:
		}
	}
	var wg sync.WaitGroup
	for i := 0; i < n && len(errc) == 0; i++ {
		select {
		case sem <- struct{}{}:
		case <-ctx.Done():
			fail(ctx.Err())
			continue
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			defer func() { <-sem }()
			if err := fn(i); err != nil {
				fail(err)
			}
		}(i)
	}
	wg.Wait()
	select {
	case err := <-errc:
		return err
	default:
		return nil
	}
}

// Latency summarizes a latency sample in seconds.
type Latency struct {
	P50  float64 `json:"p50_seconds"`
	P95  float64 `json:"p95_seconds"`
	P99  float64 `json:"p99_seconds"`
	Max  float64 `json:"max_seconds"`
	Mean float64 `json:"mean_seconds"`
}

// summarize summarizes samples (seconds, any order; the slice is not
// modified). Quantiles are nearest-rank: the p-th percentile is the
// sample of rank ⌈p·n/100⌉, so every quantile is an observed sample and
// below 100 samples p99 is the maximum.
func summarize(samples []float64) Latency {
	if len(samples) == 0 {
		return Latency{}
	}
	s := slices.Clone(samples)
	slices.Sort(s)
	q := func(pct int) float64 { return s[(pct*len(s)+99)/100-1] }
	var sum float64
	for _, v := range s {
		sum += v
	}
	return Latency{P50: q(50), P95: q(95), P99: q(99), Max: s[len(s)-1], Mean: sum / float64(len(s))}
}
