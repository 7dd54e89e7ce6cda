package service

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"strconv"
	"strings"
	"time"

	"atomique/internal/bench"
	"atomique/internal/compiler"
	"atomique/internal/obs"
	"atomique/internal/obs/slo"
)

// maxBodyBytes bounds request bodies (inline QASM included).
const maxBodyBytes = 8 << 20

// TraceHeader is the request/response header carrying the trace ID. Clients
// may supply their own (validated by obs.ValidTraceID; invalid values are
// ignored and a fresh ID minted); compile responses echo the job's ID back.
const TraceHeader = "X-Trace-Id"

// errorBody is the JSON error payload of every non-2xx response.
type errorBody struct {
	Error string `json:"error"`
	// Line is the QASM source line for parse errors, omitted otherwise.
	Line int `json:"line,omitempty"`
	// RetryAfterSeconds mirrors the Retry-After header on 429/503 responses,
	// so JSON-only clients get the backoff advice too.
	RetryAfterSeconds int `json:"retryAfterSeconds,omitempty"`
}

// batchRequest is the POST /v1/compile/batch body.
type batchRequest struct {
	Requests []Request `json:"requests"`
}

// batchResponse pairs each batch item with its job outcome.
type batchResponse struct {
	Jobs []*Job `json:"jobs"`
}

// benchmarkInfo is one GET /v1/benchmarks entry.
type benchmarkInfo struct {
	Name    string `json:"name"`
	Type    string `json:"type"`
	NQubits int    `json:"nQubits"`
	N2Q     int    `json:"n2Q"`
	N1Q     int    `json:"n1Q"`
}

// Handler returns the service's HTTP API:
//
//	POST   /v1/compile           compile one request (?async=1 to enqueue only)
//	POST   /v1/simulate          compile + Monte-Carlo noisy-shot simulation
//	POST   /v1/sample            compile + measurement sampling (?stream=1 for NDJSON shots)
//	POST   /v1/compile/batch     compile many requests concurrently
//	GET    /v1/jobs/{id}         job status and result
//	DELETE /v1/jobs/{id}         cancel a queued/running job
//	POST   /v1/jobs/{id}/cancel  same, for clients without DELETE
//	GET    /v1/backends          registered compiler backends + capabilities
//	GET    /v1/benchmarks        named benchmark registry
//	GET    /v1/healthz           liveness probe
//	GET    /v1/stats             queue/worker/cache counters
//	GET    /v1/traces            recent request traces (?limit=N)
//	GET    /v1/traces/{id}       one trace by ID
//	GET    /v1/slo               burn-rate state of every objective
//	GET    /v1/debug/bundles     flight-recorder bundle manifests
//	POST   /v1/debug/bundles     trigger a manual bundle capture (?reason=...)
//	GET    /v1/debug/bundles/{id}        one bundle manifest
//	GET    /v1/debug/bundles/{id}/{file} download one bundle file
//	GET    /metrics              Prometheus text exposition (OpenMetrics with
//	                             exemplars when Accept asks for it)
//
// Every request passes through the trace middleware: an X-Trace-Id request
// header (when valid) names the job's trace, compile responses echo the
// job's trace ID back in the same header, and each request is access-logged.
func (e *Engine) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/compile", e.handleCompile)
	mux.HandleFunc("POST /v1/simulate", e.handleSimulate)
	mux.HandleFunc("POST /v1/sample", e.handleSample)
	mux.HandleFunc("POST /v1/compile/batch", e.handleBatch)
	mux.HandleFunc("GET /v1/jobs/{id}", e.handleJobGet)
	mux.HandleFunc("DELETE /v1/jobs/{id}", e.handleJobCancel)
	mux.HandleFunc("POST /v1/jobs/{id}/cancel", e.handleJobCancel)
	mux.HandleFunc("GET /v1/backends", e.handleBackends)
	mux.HandleFunc("GET /v1/benchmarks", e.handleBenchmarks)
	mux.HandleFunc("GET /v1/healthz", e.handleHealthz)
	mux.HandleFunc("GET /v1/stats", e.handleStats)
	mux.HandleFunc("GET /v1/traces", e.handleTraces)
	mux.HandleFunc("GET /v1/traces/{id}", e.handleTraceGet)
	mux.HandleFunc("GET /v1/slo", e.handleSLO)
	mux.HandleFunc("GET /v1/debug/bundles", e.handleBundleList)
	mux.HandleFunc("POST /v1/debug/bundles", e.handleBundleTrigger)
	mux.HandleFunc("GET /v1/debug/bundles/{id}", e.handleBundleGet)
	mux.HandleFunc("GET /v1/debug/bundles/{id}/{file}", e.handleBundleFile)
	mux.Handle("GET /metrics", e.MetricsHandler())
	return e.instrument(mux)
}

// MetricsHandler serves the metrics exposition alone; cmd/atomiqued also
// mounts it on the ops listener next to pprof so scrapes need not share the
// API port. Clients that accept application/openmetrics-text get the
// OpenMetrics form — trace-ID exemplars on histogram buckets and a
// terminating # EOF — everyone else the classic Prometheus text format.
func (e *Engine) MetricsHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if strings.Contains(r.Header.Get("Accept"), "application/openmetrics-text") {
			w.Header().Set("Content-Type", "application/openmetrics-text; version=1.0.0; charset=utf-8")
			e.tel.registry.WriteOpenMetrics(w) //nolint:errcheck // client gone; nothing to do
			return
		}
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		e.tel.registry.WritePrometheus(w) //nolint:errcheck // client gone; nothing to do
	})
}

// statusWriter records the response code for the access log.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

// instrument wraps the API mux with trace-ID extraction and access logging.
func (e *Engine) instrument(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if id := r.Header.Get(TraceHeader); id != "" && obs.ValidTraceID(id) {
			r = r.WithContext(obs.ContextWithTraceID(r.Context(), id))
		}
		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		start := time.Now()
		next.ServeHTTP(sw, r)
		e.tel.log.Info("http request", "method", r.Method, "path", r.URL.Path,
			"status", sw.status, "seconds", time.Since(start).Seconds())
	})
}

func writeJSON(w http.ResponseWriter, status int, v interface{}) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v) //nolint:errcheck // client gone; nothing to do
}

// writeError maps service errors to HTTP statuses: RequestError -> 400,
// overload (admission shed or queue full) -> 429 with Retry-After, engine
// shutdown -> 503 with Retry-After, everything else -> 500. Shutdown is 503
// rather than 500 because it is the load balancer's cue to route elsewhere,
// not a server bug.
func writeError(w http.ResponseWriter, err error) {
	var re *RequestError
	var oe *OverloadedError
	switch {
	case errors.As(err, &re):
		writeJSON(w, http.StatusBadRequest, errorBody{Error: re.Msg, Line: re.Line})
	case errors.As(err, &oe):
		writeRetryable(w, http.StatusTooManyRequests, err.Error(), oe.RetryAfter)
	case errors.Is(err, ErrClosed):
		writeRetryable(w, http.StatusServiceUnavailable, err.Error(), time.Second)
	default:
		writeJSON(w, http.StatusInternalServerError, errorBody{Error: err.Error()})
	}
}

// writeRetryable writes a 429/503 with a Retry-After header (whole seconds,
// ceiling, at least 1 — the header's granularity) and the same advice in the
// body.
func writeRetryable(w http.ResponseWriter, status int, msg string, after time.Duration) {
	secs := int(math.Ceil(after.Seconds()))
	if secs < 1 {
		secs = 1
	}
	w.Header().Set("Retry-After", strconv.Itoa(secs))
	writeJSON(w, status, errorBody{Error: msg, RetryAfterSeconds: secs})
}

// jobStatus picks the response code for a finished job: failed compilations
// are 422 (the request was well-formed but uncompilable), cancellations 200
// with state "cancelled", successes 200.
func jobStatus(j *Job) int {
	if j.State == StateFailed {
		return http.StatusUnprocessableEntity
	}
	return http.StatusOK
}

// queryBool reads a boolean query parameter (absent = false); a value
// strconv.ParseBool rejects is a *RequestError.
func queryBool(r *http.Request, name string) (bool, error) {
	v := r.URL.Query().Get(name)
	if v == "" {
		return false, nil
	}
	b, err := strconv.ParseBool(v)
	if err != nil {
		return false, &RequestError{Msg: fmt.Sprintf("bad %s value %q", name, v)}
	}
	return b, nil
}

func decodeRequest(w http.ResponseWriter, r *http.Request, v interface{}) bool {
	r.Body = http.MaxBytesReader(w, r.Body, maxBodyBytes)
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		writeJSON(w, http.StatusBadRequest, errorBody{Error: fmt.Sprintf("invalid request body: %v", err)})
		return false
	}
	return true
}

func (e *Engine) handleCompile(w http.ResponseWriter, r *http.Request) {
	var req Request
	if !decodeRequest(w, r, &req) {
		return
	}
	e.serveCompile(w, r, req)
}

// serveCompile runs one decoded request through the synchronous compile
// path, honouring ?async=1 — shared by /v1/compile and /v1/simulate.
func (e *Engine) serveCompile(w http.ResponseWriter, r *http.Request, req Request) {
	async, err := queryBool(r, "async")
	if err != nil {
		writeError(w, err)
		return
	}
	if async {
		jv, err := e.Submit(r.Context(), req)
		if err != nil {
			writeError(w, err)
			return
		}
		w.Header().Set(TraceHeader, jv.TraceID)
		writeJSON(w, http.StatusAccepted, jv)
		return
	}
	jv, err := e.Compile(r.Context(), req)
	if err != nil {
		writeError(w, err)
		return
	}
	w.Header().Set(TraceHeader, jv.TraceID)
	writeJSON(w, jobStatus(jv), jv)
}

// handleSimulate is the noisy-shot workload entry point: compile (through
// the cache, like every job) and replay the program under the sampled noise
// model. It is POST /v1/compile with shots defaulted on — including the
// ?async=1 contract — so clients that only care about empirical fidelity
// need not know the option plumbing.
func (e *Engine) handleSimulate(w http.ResponseWriter, r *http.Request) {
	var req Request
	if !decodeRequest(w, r, &req) {
		return
	}
	if req.Shots == 0 {
		req.Shots = compiler.DefaultSimulateShots
	}
	e.serveCompile(w, r, req)
}

// handleBatch compiles every request concurrently through the worker pool.
// Enqueueing is flow-controlled (it waits for queue space rather than
// rejecting), so one batch may be larger than the queue; items share the
// cache, so duplicates inside a batch compile once. A client that
// disconnects gives up every item it has not yet received.
func (e *Engine) handleBatch(w http.ResponseWriter, r *http.Request) {
	var breq batchRequest
	if !decodeRequest(w, r, &breq) {
		return
	}
	if len(breq.Requests) == 0 {
		writeJSON(w, http.StatusBadRequest, errorBody{Error: "batch needs at least one request"})
		return
	}
	// Resolve everything first so a malformed item fails the batch before
	// any work is enqueued. Batch items default to the batch priority class:
	// they flow-control rather than fail fast, so they should queue behind
	// interactive compiles, not ahead of them.
	tasks := make([]task, len(breq.Requests))
	for i, req := range breq.Requests {
		if req.Priority == "" {
			req.Priority = PriorityBatch
		}
		t, err := e.resolve(req)
		if err != nil {
			var re *RequestError
			if errors.As(err, &re) {
				re.Msg = fmt.Sprintf("request %d: %s", i, re.Msg)
			}
			writeError(w, err)
			return
		}
		tasks[i] = t
	}
	jobs := make([]*job, 0, len(tasks))
	for _, t := range tasks {
		j, err := e.enqueue(r.Context(), t, true)
		if err != nil {
			// Nobody will read the results of the items already queued.
			for _, j := range jobs {
				e.abandon(j) //nolint:errcheck // a job that already finished has nothing to give up
			}
			writeError(w, err)
			return
		}
		jobs = append(jobs, j)
	}
	resp := batchResponse{Jobs: make([]*Job, len(jobs))}
	var gone error
	for i, j := range jobs {
		// Once the client has disconnected, await gives up on every item
		// still unfinished.
		jv, err := e.await(r.Context(), j)
		if err != nil {
			gone = err
			continue
		}
		resp.Jobs[i] = jv
	}
	if gone != nil {
		writeError(w, gone)
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

func (e *Engine) handleJobGet(w http.ResponseWriter, r *http.Request) {
	jv, ok := e.JobByID(r.PathValue("id"))
	if !ok {
		writeJSON(w, http.StatusNotFound, errorBody{Error: "unknown job"})
		return
	}
	writeJSON(w, http.StatusOK, jv)
}

func (e *Engine) handleJobCancel(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	ok, err := e.Cancel(id)
	if !ok {
		writeJSON(w, http.StatusNotFound, errorBody{Error: "unknown job"})
		return
	}
	if err != nil {
		writeJSON(w, http.StatusConflict, errorBody{Error: err.Error()})
		return
	}
	jv, _ := e.JobByID(id)
	writeJSON(w, http.StatusOK, jv)
}

// computeBenchmarkInfos builds the /v1/benchmarks payload. It runs once, at
// engine construction (the registry is immutable after init and ComputeStats
// over the full suite is too costly per request), so the first scrape after
// boot is as cheap as the thousandth.
func computeBenchmarkInfos() []benchmarkInfo {
	suite := bench.Table2Suite()
	infos := make([]benchmarkInfo, len(suite))
	for i, b := range suite {
		s := b.Circ.ComputeStats()
		infos[i] = benchmarkInfo{Name: b.Name, Type: b.Type, NQubits: s.Qubits, N2Q: s.Num2Q, N1Q: s.Num1Q}
	}
	return infos
}

func (e *Engine) handleBenchmarks(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, e.benchInfos)
}

// traceView is one GET /v1/traces entry: the trace ID plus its span tree.
type traceView struct {
	TraceID string            `json:"traceId"`
	Spans   *obs.SpanSnapshot `json:"spans"`
}

func traceViewOf(tr *obs.Trace) traceView {
	return traceView{TraceID: tr.ID, Spans: tr.Root.Snapshot()}
}

// handleTraces lists recently finished traces, newest first (?limit=N,
// default 50, bounded by the engine's trace ring).
func (e *Engine) handleTraces(w http.ResponseWriter, r *http.Request) {
	limit := 50
	if v := r.URL.Query().Get("limit"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 1 {
			writeJSON(w, http.StatusBadRequest, errorBody{Error: fmt.Sprintf("bad limit %q", v)})
			return
		}
		limit = n
	}
	recent := e.tel.traces.Recent(limit)
	views := make([]traceView, len(recent))
	for i, tr := range recent {
		views[i] = traceViewOf(tr)
	}
	writeJSON(w, http.StatusOK, views)
}

func (e *Engine) handleTraceGet(w http.ResponseWriter, r *http.Request) {
	tr, ok := e.tel.traces.Get(r.PathValue("id"))
	if !ok {
		writeJSON(w, http.StatusNotFound, errorBody{Error: "unknown or evicted trace"})
		return
	}
	writeJSON(w, http.StatusOK, traceViewOf(tr))
}

// backendInfo is one GET /v1/backends entry.
type backendInfo struct {
	Name         string                `json:"name"`
	Default      bool                  `json:"default,omitempty"`
	Capabilities compiler.Capabilities `json:"capabilities"`
}

// handleBackends lists the registered compiler backends; clients pick one
// via the request "backend" field.
func (e *Engine) handleBackends(w http.ResponseWriter, _ *http.Request) {
	backends := compiler.List()
	infos := make([]backendInfo, len(backends))
	for i, b := range backends {
		infos[i] = backendInfo{
			Name:         b.Name(),
			Default:      b.Name() == DefaultBackend,
			Capabilities: b.Capabilities(),
		}
	}
	writeJSON(w, http.StatusOK, infos)
}

func (e *Engine) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// sloResponse is the GET /v1/slo payload.
type sloResponse struct {
	// Worst is the most severe objective state: ok, warn, or page.
	Worst      string                `json:"worst"`
	Objectives []slo.ObjectiveStatus `json:"objectives"`
}

func (e *Engine) handleSLO(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, sloResponse{
		Worst:      e.slo.WorstState().String(),
		Objectives: e.slo.Status(),
	})
}

// bundlesDisabled answers for every bundle endpoint when the flight recorder
// is off (no -bundle-dir).
func (e *Engine) bundlesDisabled(w http.ResponseWriter) bool {
	if e.recorder == nil {
		writeJSON(w, http.StatusNotFound,
			errorBody{Error: "flight recorder disabled (start with -bundle-dir)"})
		return true
	}
	return false
}

func (e *Engine) handleBundleList(w http.ResponseWriter, _ *http.Request) {
	if e.bundlesDisabled(w) {
		return
	}
	writeJSON(w, http.StatusOK, e.recorder.List())
}

// handleBundleTrigger starts a manual capture (POST /v1/debug/bundles,
// ?reason=... optional). 202 with the bundle ID when a capture starts; 409
// when one is already in flight.
func (e *Engine) handleBundleTrigger(w http.ResponseWriter, r *http.Request) {
	if e.bundlesDisabled(w) {
		return
	}
	reason := r.URL.Query().Get("reason")
	if reason == "" {
		reason = "api"
	}
	id, started := e.triggerBundle("manual", reason, true)
	if !started {
		writeJSON(w, http.StatusConflict, errorBody{Error: "a bundle capture is already in flight"})
		return
	}
	writeJSON(w, http.StatusAccepted, map[string]string{"id": id})
}

func (e *Engine) handleBundleGet(w http.ResponseWriter, r *http.Request) {
	if e.bundlesDisabled(w) {
		return
	}
	meta, ok := e.recorder.Get(r.PathValue("id"))
	if !ok {
		writeJSON(w, http.StatusNotFound, errorBody{Error: "unknown bundle"})
		return
	}
	writeJSON(w, http.StatusOK, meta)
}

func (e *Engine) handleBundleFile(w http.ResponseWriter, r *http.Request) {
	if e.bundlesDisabled(w) {
		return
	}
	p, ok := e.recorder.FilePath(r.PathValue("id"), r.PathValue("file"))
	if !ok {
		writeJSON(w, http.StatusNotFound, errorBody{Error: "unknown bundle or file"})
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	http.ServeFile(w, r, p)
}

func (e *Engine) handleStats(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, e.Stats())
}
