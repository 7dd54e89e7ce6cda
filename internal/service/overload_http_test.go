package service

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strconv"
	"testing"
	"time"
)

// newBlockingServer serves a real Handler over an engine whose backend parks
// until released — the HTTP-level overload fixture.
func newBlockingServer(t *testing.T, cfg Config) (*Engine, *blockingBackend, *httptest.Server) {
	t.Helper()
	backend := newBlockingBackend()
	e := newEngine(cfg, backend.compile)
	srv := httptest.NewServer(e.Handler())
	t.Cleanup(func() {
		srv.Close()
		e.Close()
	})
	return e, backend, srv
}

// serveWatching serves a one-worker engine over a blocking backend and
// signals on returned each time a request to path leaves the handler.
func serveWatching(t *testing.T, path string) (*Engine, *blockingBackend, *httptest.Server, <-chan struct{}) {
	t.Helper()
	backend := newBlockingBackend()
	e := newEngine(Config{Workers: 1, QueueSize: 8}, backend.compile)
	t.Cleanup(e.Close)
	returned := make(chan struct{}, 1)
	h := e.Handler()
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		h.ServeHTTP(w, r)
		if r.URL.Path == path {
			returned <- struct{}{}
		}
	}))
	t.Cleanup(srv.Close)
	return e, backend, srv, returned
}

// postThenHangUp posts body under traceID, waits until the batch queue
// holds depth jobs, then disconnects without reading a response.
func postThenHangUp(t *testing.T, e *Engine, url, traceID string, body any, depth int) {
	t.Helper()
	js, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(js))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set(TraceHeader, traceID)
	sent := make(chan struct{})
	go func() {
		defer close(sent)
		if resp, err := http.DefaultClient.Do(req); err == nil {
			resp.Body.Close()
		}
	}()
	deadline := time.Now().Add(10 * time.Second)
	for e.Stats().QueueDepthBatch < depth {
		if time.Now().After(deadline) {
			t.Fatalf("batch queue depth %d, want %d", e.Stats().QueueDepthBatch, depth)
		}
		time.Sleep(time.Millisecond)
	}
	cancel()
	<-sent
}

// awaitReturn fails the test if the watched handler is still running long
// after its client left: a hang guard, not a latency bound.
func awaitReturn(t *testing.T, returned <-chan struct{}) {
	t.Helper()
	select {
	case <-returned:
	case <-time.After(10 * time.Second):
		t.Fatal("handler still blocked 10 s after its client disconnected")
	}
}

// jobsByTrace snapshots every tracked job whose trace ID is traceID.
func jobsByTrace(e *Engine, traceID string) []*Job {
	e.mu.Lock()
	var js []*job
	for _, j := range e.jobs {
		if j.trace.ID == traceID {
			js = append(js, j)
		}
	}
	e.mu.Unlock()
	out := make([]*Job, len(js))
	for i, j := range js {
		out[i] = e.snapshot(j)
	}
	return out
}

// retryAfterSeconds parses the Retry-After header, failing on absence.
func retryAfterSeconds(t *testing.T, resp *http.Response) int {
	t.Helper()
	h := resp.Header.Get("Retry-After")
	if h == "" {
		t.Fatalf("status %d response has no Retry-After header", resp.StatusCode)
	}
	secs, err := strconv.Atoi(h)
	if err != nil || secs < 1 {
		t.Fatalf("Retry-After = %q, want integer seconds >= 1", h)
	}
	return secs
}

// TestQueueFull429CarriesRetryAfter: an HTTP submission rejected by a full
// queue must be a 429 with backoff advice in both the header and the body.
func TestQueueFull429CarriesRetryAfter(t *testing.T) {
	_, backend, srv := newBlockingServer(t, Config{Workers: 1, QueueSize: 1})
	defer close(backend.release)

	if resp, body := postJSON(t, srv.URL+"/v1/compile?async=1", Request{Benchmark: "H2-4", Seed: 1}); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("first submit status = %d, body %s", resp.StatusCode, body)
	}
	<-backend.started
	if resp, body := postJSON(t, srv.URL+"/v1/compile?async=1", Request{Benchmark: "H2-4", Seed: 2}); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("second submit status = %d, body %s", resp.StatusCode, body)
	}
	resp, body := postJSON(t, srv.URL+"/v1/compile?async=1", Request{Benchmark: "H2-4", Seed: 3})
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overflow submit status = %d, body %s", resp.StatusCode, body)
	}
	headerSecs := retryAfterSeconds(t, resp)
	var eb struct {
		Error             string `json:"error"`
		RetryAfterSeconds int    `json:"retryAfterSeconds"`
	}
	if err := json.Unmarshal(body, &eb); err != nil {
		t.Fatalf("decode 429 body %s: %v", body, err)
	}
	if eb.RetryAfterSeconds != headerSecs {
		t.Errorf("body retryAfterSeconds = %d, header %d; must agree", eb.RetryAfterSeconds, headerSecs)
	}
	if eb.Error == "" {
		t.Error("429 body has no error message")
	}
}

// TestClosedEngine503: submissions after shutdown are 503 (route elsewhere),
// not 500 (server bug), and still advise a retry.
func TestClosedEngine503(t *testing.T) {
	e := New(Config{Workers: 1})
	srv := httptest.NewServer(e.Handler())
	defer srv.Close()
	e.Close()

	resp, body := postJSON(t, srv.URL+"/v1/compile", Request{Benchmark: "H2-4", Seed: 1})
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status after Close = %d, body %s, want 503", resp.StatusCode, body)
	}
	retryAfterSeconds(t, resp)
}

// TestBatchEndpointQueuesAtBatchPriority: items submitted through
// /v1/compile/batch with no explicit priority land in the batch queue, so
// interactive compiles overtake them.
func TestBatchEndpointQueuesAtBatchPriority(t *testing.T) {
	e, backend, srv := newBlockingServer(t, Config{Workers: 1, QueueSize: 8})

	// Occupy the single worker.
	if resp, body := postJSON(t, srv.URL+"/v1/compile?async=1", Request{Benchmark: "H2-4", Seed: 1}); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("occupy submit status = %d, body %s", resp.StatusCode, body)
	}
	<-backend.started

	// The batch call blocks until its jobs finish; run it in the background
	// and watch the batch queue fill.
	batchDone := make(chan int, 1)
	go func() {
		resp, _ := postJSON(t, srv.URL+"/v1/compile/batch", batchRequest{Requests: []Request{
			{Benchmark: "H2-4", Seed: 2}, {Benchmark: "H2-4", Seed: 3},
		}})
		batchDone <- resp.StatusCode
	}()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) && e.Stats().QueueDepthBatch < 2 {
		time.Sleep(2 * time.Millisecond)
	}
	if st := e.Stats(); st.QueueDepthBatch != 2 || st.QueueDepthInteractive != 0 {
		t.Fatalf("queue depths interactive=%d batch=%d, want 0/2 (batch items misclassified)",
			st.QueueDepthInteractive, st.QueueDepthBatch)
	}
	close(backend.release)
	if code := <-batchDone; code != http.StatusOK {
		t.Fatalf("batch status = %d, want 200", code)
	}
}

// TestBatchAbandonCancelsQueuedJobs: a batch client that disconnects while
// its items wait behind a busy worker gives every item up; each reads
// "cancelled" at once rather than "queued".
func TestBatchAbandonCancelsQueuedJobs(t *testing.T) {
	e, backend, srv, returned := serveWatching(t, "/v1/compile/batch")
	defer close(backend.release)
	if _, err := e.Submit(context.Background(), Request{Benchmark: "H2-4", Seed: 1}); err != nil {
		t.Fatal(err)
	}
	<-backend.started

	postThenHangUp(t, e, srv.URL+"/v1/compile/batch", "batch-gone", batchRequest{Requests: []Request{
		{Benchmark: "H2-4", Seed: 2}, {Benchmark: "H2-4", Seed: 3},
	}}, 2)
	awaitReturn(t, returned)
	jobs := jobsByTrace(e, "batch-gone")
	if len(jobs) != 2 {
		t.Fatalf("found %d batch jobs, want 2", len(jobs))
	}
	for _, j := range jobs {
		if j.State != StateCancelled {
			t.Errorf("abandoned batch job %s reads %s, want cancelled", j.ID, j.State)
		}
	}
	if st := e.Stats(); st.Cancelled != 2 || st.QueueDepthBatch != 0 {
		t.Errorf("cancelled = %d, batch queue depth = %d after the abandon, want 2 and 0",
			st.Cancelled, st.QueueDepthBatch)
	}
}
