// Package service turns the one-shot compilers into a long-running compile
// service: a bounded job queue drained by a worker pool that runs any
// registered compiler backend concurrently (compilation is deterministic per
// seed, so results are safely parallelizable and cacheable), fronted by a
// content-addressed LRU result cache keyed on (backend, circuit fingerprint,
// target, compile options). Backends are selected per request through the
// unified registry (internal/compiler); GET /v1/backends lists them. The
// HTTP/JSON API lives in http.go.
package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"atomique/internal/admission"
	"atomique/internal/circuit"
	"atomique/internal/compiler"
	"atomique/internal/hardware"
	"atomique/internal/metrics"
	"atomique/internal/noise"
	"atomique/internal/obs"
	"atomique/internal/obs/slo"
	"atomique/internal/report"

	_ "atomique/internal/compiler/backends" // register the built-in backends
)

// DefaultBackend is the backend used when a request does not name one.
const DefaultBackend = "atomique"

// ErrQueueFull is returned by fail-fast submission when the bounded job
// queue has no free slot; the HTTP layer maps it to 429 Too Many Requests.
var ErrQueueFull = errors.New("service: job queue full")

// ErrOverloaded marks any load-shedding rejection (queue full or admission
// control); errors.Is(err, ErrOverloaded) matches both.
var ErrOverloaded = errors.New("service: overloaded")

// ErrClosed is returned for submissions after Close; the HTTP layer maps it
// to 503 Service Unavailable.
var ErrClosed = errors.New("service: engine closed")

// OverloadedError is the structured load-shed rejection: the HTTP layer
// renders it as a 429 with a Retry-After header computed from the predicted
// queue drain time. QueueFull distinguishes a physically full queue (also
// matched by errors.Is(err, ErrQueueFull)) from a proactive admission shed.
type OverloadedError struct {
	// RetryAfter is the advised client backoff.
	RetryAfter time.Duration
	// Reason explains the shed (queue full, predicted wait over objective).
	Reason string
	// QueueFull marks a full-queue rejection rather than an admission shed.
	QueueFull bool
}

func (e *OverloadedError) Error() string {
	return fmt.Sprintf("service: overloaded: %s (retry after %s)", e.Reason, e.RetryAfter.Round(time.Millisecond))
}

// Is matches ErrOverloaded always and ErrQueueFull for full-queue sheds, so
// pre-admission callers checking errors.Is(err, ErrQueueFull) keep working.
func (e *OverloadedError) Is(target error) bool {
	return target == ErrOverloaded || (e.QueueFull && target == ErrQueueFull)
}

// Config sizes the engine. The zero value gets sensible defaults.
type Config struct {
	// Workers is the initial worker-pool size (default: GOMAXPROCS).
	Workers int
	// WorkersMin and WorkersMax bound the adaptive pool (Resize and the
	// admission controller's actuator clamp to them). When both are unset
	// the pool is fixed at Workers, preserving the pre-adaptive behaviour.
	WorkersMin, WorkersMax int
	// Admission configures the saturation-aware control loop: worker-pool
	// autoscaling within [WorkersMin, WorkersMax] plus load shedding with
	// computed Retry-After. Disabled by default.
	Admission admission.Config
	// QueueSize bounds the job queue (default: 64).
	QueueSize int
	// CacheSize bounds the result cache entry count (default: 256).
	CacheSize int
	// Hardware is the default machine for requests without an override
	// (default: hardware.DefaultConfig).
	Hardware hardware.Config
	// TraceBuffer bounds the finished-trace ring buffer behind GET
	// /v1/traces (default: 256). A quarter of it (at least one slot) is
	// reserved for pinned traces — errors, sheds, and slow-tail outliers —
	// which ordinary churn cannot evict.
	TraceBuffer int
	// TraceSample is the probability a fast successful trace enters the ring
	// (0 defaults to 1 — keep everything; negative keeps nothing). Pinned
	// traces always bypass the coin.
	TraceSample float64
	// SLO declares the burn-rate objectives evaluated against the engine's
	// own counters; an empty config gets slo.DefaultConfig over the three
	// request classes. Invalid configs must be caught by the loader
	// (slo.ParseConfig); New panics on one.
	SLO slo.Config
	// Bundles configures the flight recorder; an empty Dir disables it.
	Bundles BundleConfig
	// Logger receives structured job-lifecycle events, correlated by trace
	// ID (default: discard). cmd/atomiqued passes a JSON logger here.
	Logger *slog.Logger
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	// Unset bounds pin the pool at its initial size; explicit bounds clamp
	// the initial size into range.
	if c.WorkersMin <= 0 && c.WorkersMax <= 0 {
		c.WorkersMin, c.WorkersMax = c.Workers, c.Workers
	}
	if c.WorkersMin <= 0 {
		c.WorkersMin = 1
	}
	if c.WorkersMax < c.WorkersMin {
		c.WorkersMax = c.WorkersMin
	}
	if c.Workers < c.WorkersMin {
		c.Workers = c.WorkersMin
	}
	if c.Workers > c.WorkersMax {
		c.Workers = c.WorkersMax
	}
	c.Admission.MinWorkers = c.WorkersMin
	c.Admission.MaxWorkers = c.WorkersMax
	if c.QueueSize <= 0 {
		c.QueueSize = 64
	}
	if c.CacheSize <= 0 {
		c.CacheSize = 256
	}
	if c.TraceBuffer <= 0 {
		c.TraceBuffer = 256
	}
	switch {
	case c.TraceSample == 0:
		c.TraceSample = 1
	case c.TraceSample < 0:
		c.TraceSample = 0
	}
	// Only a fully zero Hardware gets the paper default; a non-zero but
	// invalid machine (e.g. an SLM with no AODs) is kept and rejected loudly
	// by Validate at resolve time rather than silently replaced.
	if c.Hardware.NumArrays() <= 1 && c.Hardware.SLM.Capacity() == 0 {
		c.Hardware = hardware.DefaultConfig()
	}
	return c
}

// State is a job's lifecycle phase.
type State string

// Job lifecycle states.
const (
	StateQueued    State = "queued"
	StateRunning   State = "running"
	StateDone      State = "done"
	StateFailed    State = "failed"
	StateCancelled State = "cancelled"
)

// Job is the externally visible snapshot of a compile job.
type Job struct {
	ID          string          `json:"id"`
	State       State           `json:"state"`
	TraceID     string          `json:"traceId,omitempty"`
	Backend     string          `json:"backend,omitempty"`
	Benchmark   string          `json:"benchmark,omitempty"`
	CircuitHash string          `json:"circuitHash"`
	Cached      bool            `json:"cached"`
	Error       string          `json:"error,omitempty"`
	Result      json.RawMessage `json:"result,omitempty"`
	SubmittedAt time.Time       `json:"submittedAt"`
	FinishedAt  *time.Time      `json:"finishedAt,omitempty"`
}

// task is a fully resolved compilation: inputs plus the content-addressed
// cache key.
type task struct {
	label   string // benchmark name or request label, informational only
	hash    string // circuit fingerprint
	key     string // cache key
	class   string // request class: ClassCompile or ClassSimulate
	prio    admission.Priority
	backend compiler.Backend
	target  compiler.Target
	circ    *circuit.Circuit
	opts    compiler.Options
	// emit, when set, streams sampled shot records as they are produced
	// (the /v1/sample?stream=1 path). Streaming outcomes bypass the result
	// cache: the records only exist on the live connection.
	emit func([]noise.ShotRecord) error
}

// job is the internal record behind a Job snapshot.
type job struct {
	id     string
	task   task
	ctx    context.Context
	cancel context.CancelFunc
	done   chan struct{} // closed exactly once, by finish

	// trace is the job's request-scoped span tree; its root spans the whole
	// job and every instrumented stage (queue wait, cache lookup, pipeline
	// passes, noise trajectory) hangs off it via j.ctx.
	trace *obs.Trace

	mu         sync.Mutex
	state      State
	finalized  bool // finish already ran; later finish/run calls are no-ops
	out        *outcome
	cached     bool
	submitted  time.Time
	finishedAt time.Time
	// tracedJSON memoises the cached envelope bytes with this job's trace
	// spliced in; built lazily on the first snapshot that carries a result.
	tracedJSON []byte
}

// compileFunc is the engine's compilation seam; tests substitute it to
// exercise queueing and cancellation without real compilations.
type compileFunc func(ctx context.Context, b compiler.Backend, tgt compiler.Target, circ *circuit.Circuit, opts compiler.Options) (*compiler.Result, error)

func defaultCompile(ctx context.Context, b compiler.Backend, tgt compiler.Target, circ *circuit.Circuit, opts compiler.Options) (*compiler.Result, error) {
	return b.Compile(ctx, tgt, circ, opts)
}

// maxTrackedJobs bounds the finished-job history kept for GET /v1/jobs/{id}.
const maxTrackedJobs = 4096

// slowTailMinSamples is the histogram mass required before a success is
// compared to the class p99 for slow-tail trace pinning; with fewer samples
// the estimate is noise and every other job would "exceed" it.
const slowTailMinSamples = 100

// Engine is the compile service: priority queues, an adaptive worker pool,
// cache, job registry, and the admission control loop.
type Engine struct {
	cfg Config
	// queues are the bounded per-priority job queues, indexed by
	// admission.Priority; workers drain interactive strictly first.
	queues  [2]chan *job
	cache   *lruCache
	compile compileFunc
	// tel bundles the engine's observability surface: metrics registry
	// (GET /metrics), finished-trace ring (GET /v1/traces), and logger.
	tel *telemetry
	// busy counts workers currently executing a job (workers_busy gauge).
	busy atomic.Int64
	// busySeconds accumulates wall time workers spent running jobs and
	// executed counts those runs; their ratio is the mean service time the
	// admission controller's saturation model fits.
	busySeconds obs.Counter
	executed    atomic.Uint64

	// poolMu guards quits, the adaptive pool's per-worker retirement
	// channels; closing one retires that worker after its current job.
	poolMu        sync.Mutex
	quits         []chan struct{}
	workersTarget atomic.Int64
	workersLive   atomic.Int64

	// ctrl is the admission control loop (nil when disabled); admTick
	// holds its latest tick for gauges and /v1/stats.
	ctrl    *admission.Controller
	admTick atomic.Pointer[admission.Tick]
	// slo is the burn-rate engine behind GET /v1/slo; recorder is the flight
	// recorder behind GET /v1/debug/bundles (nil when Bundles.Dir is unset).
	slo      *slo.Engine
	recorder *obs.Recorder

	// benchInfos is the /v1/benchmarks payload, computed once at engine
	// construction (the registry is immutable after init).
	benchInfos []benchmarkInfo

	ctx    context.Context
	stop   context.CancelFunc
	wg     sync.WaitGroup
	start  time.Time
	seq    atomic.Uint64
	closed atomic.Bool
	// closeMu orders submissions against Close: a submitter registers in
	// inFlight under the read lock while the engine is open; Close flips
	// closed under the write lock and then waits for inFlight, so every
	// admitted job is either run by a worker or caught by Close's drain.
	closeMu  sync.RWMutex
	inFlight sync.WaitGroup

	mu       sync.Mutex
	jobs     map[string]*job
	finished []string // FIFO of finished job IDs, for pruning

	// benchFP holds the fingerprints of named benchmarks, keyed by
	// registry name and filled on first use; the registry is fixed, so it
	// never grows past the suite.
	benchMu sync.Mutex
	benchFP map[string]string
}

// New starts an engine with cfg's worker pool running.
func New(cfg Config) *Engine { return newEngine(cfg, defaultCompile) }

// newEngine starts an engine with an explicit compilation backend (the
// backend must be fixed before the workers start; tests inject stubs here).
func newEngine(cfg Config, fn compileFunc) *Engine {
	cfg = cfg.withDefaults()
	ctx, stop := context.WithCancel(context.Background())
	e := &Engine{
		cfg:     cfg,
		cache:   newLRUCache(cfg.CacheSize),
		compile: fn,
		ctx:     ctx,
		stop:    stop,
		start:   time.Now(),
		jobs:    make(map[string]*job),
		benchFP: make(map[string]string),
	}
	for i := range e.queues {
		e.queues[i] = make(chan *job, cfg.QueueSize)
	}
	e.tel = newTelemetry(e, cfg.Logger, cfg.TraceBuffer)
	e.tel.traces.SetSampleRate(cfg.TraceSample)
	e.benchInfos = computeBenchmarkInfos()
	if cfg.Bundles.Dir != "" {
		rec, err := newRecorder(e)
		if err != nil {
			// A broken bundle directory degrades to "recorder disabled"
			// rather than refusing to serve compiles.
			e.tel.log.Error("flight recorder disabled", "dir", cfg.Bundles.Dir, "error", err.Error())
		} else {
			e.recorder = rec
		}
	}
	e.poolMu.Lock()
	e.workersTarget.Store(int64(cfg.Workers))
	e.spawnLocked(cfg.Workers)
	e.poolMu.Unlock()
	if cfg.Admission.Enabled {
		e.ctrl = admission.New(cfg.Admission, e, e, e.observeTick)
		e.ctrl.Start()
	}
	e.startSLO()
	return e
}

// beginSubmit admits a submission while the engine is open. On success the
// caller must call e.inFlight.Done() once its enqueue attempt is over.
func (e *Engine) beginSubmit() bool {
	e.closeMu.RLock()
	defer e.closeMu.RUnlock()
	if e.closed.Load() {
		return false
	}
	e.inFlight.Add(1)
	return true
}

// Close stops the admission controller and the workers, cancels running
// jobs, and fails queued ones.
func (e *Engine) Close() {
	e.closeMu.Lock()
	already := e.closed.Swap(true)
	e.closeMu.Unlock()
	if already {
		return
	}
	if e.ctrl != nil {
		e.ctrl.Stop() // no more Resize calls from the control loop
	}
	if e.slo != nil {
		e.slo.Stop() // no more evaluation ticks or recorder triggers
	}
	// Let any in-flight Resize finish its spawns before waiting on the
	// pool; later Resize calls observe closed and no-op.
	e.poolMu.Lock()
	e.poolMu.Unlock() //nolint:staticcheck // empty critical section is the barrier
	e.stop()
	e.wg.Wait()
	e.inFlight.Wait()
	// Workers are gone and no submitter is mid-enqueue; drain jobs still
	// sitting in the queues.
	for _, q := range e.queues {
		for drained := false; !drained; {
			select {
			case j := <-q:
				e.finish(j, &outcome{err: fmt.Errorf("service: %w", ErrClosed)}, false)
			default:
				drained = true
			}
		}
	}
	if e.recorder != nil {
		e.recorder.Wait() // let an in-flight bundle capture complete
	}
}

// newJob registers a queued job for a resolved task. callerCtx may carry a
// client-chosen trace ID (X-Trace-Id, validated by the HTTP layer); otherwise
// one is minted. The job's own context carries the trace root span, so every
// instrumentation site downstream (cache lookup, pipeline passes, noise
// trajectory) attaches to it without further plumbing.
func (e *Engine) newJob(callerCtx context.Context, t task) *job {
	tr := obs.NewTrace(obs.TraceIDFromContext(callerCtx), "job")
	tr.Root.SetAttr("class", t.class)
	tr.Root.SetAttr("benchmark", t.label)
	if t.backend != nil {
		tr.Root.SetAttr("backend", t.backend.Name())
	}
	ctx, cancel := context.WithCancel(obs.ContextWithSpan(e.ctx, tr.Root))
	j := &job{
		id:        fmt.Sprintf("job-%06d", e.seq.Add(1)),
		task:      t,
		ctx:       ctx,
		cancel:    cancel,
		done:      make(chan struct{}),
		trace:     tr,
		state:     StateQueued,
		submitted: time.Now(),
	}
	tr.Root.SetAttr("job", j.id)
	e.mu.Lock()
	e.jobs[j.id] = j
	e.mu.Unlock()
	return j
}

// Submit resolves and enqueues a job without waiting for it, failing fast
// with an *OverloadedError (a 429 with computed Retry-After at the HTTP
// layer) when the admission controller sheds the request's class or its
// queue is at capacity. ctx is consulted only for a request-scoped trace ID
// (obs.ContextWithTraceID); it does not bound the job's lifetime.
func (e *Engine) Submit(ctx context.Context, req Request) (*Job, error) {
	t, err := e.resolve(req)
	if err != nil {
		return nil, err
	}
	j, err := e.submitResolved(ctx, t)
	if err != nil {
		return nil, err
	}
	return e.snapshot(j), nil
}

// submitResolved enqueues an already-resolved task through the admission
// gate, fail-fast. The streaming sample handler uses it directly so it can
// attach its emit callback to the task before submission.
func (e *Engine) submitResolved(ctx context.Context, t task) (*job, error) {
	if !e.beginSubmit() {
		return nil, ErrClosed
	}
	defer e.inFlight.Done()
	// Admission gate: shed before the queue saturates. No job is minted for
	// a shed, but a minimal root-only trace is pinned into the ring's
	// reserved segment — shed storms are exactly the traffic a diagnostic
	// bundle needs to show, and a storm of successes must not evict them.
	if dec := e.admit(t.prio); !dec.Admit {
		e.tel.admissionDecisions.With(t.prio.String(), admissionShed).Inc()
		e.tel.requests.With(backendLabel(t), t.class, outcomeRejected).Inc()
		tr := obs.NewTrace(obs.TraceIDFromContext(ctx), "shed")
		tr.Root.SetAttr("state", "shed")
		tr.Root.SetAttr("backend", backendLabel(t))
		tr.Root.SetAttr("class", t.class)
		tr.Root.SetAttr("priority", t.prio.String())
		tr.Root.SetAttr("benchmark", t.label)
		tr.Root.SetAttr("reason", dec.Reason)
		tr.Root.SetAttr("retryAfterSeconds", strconv.FormatFloat(dec.RetryAfter.Seconds(), 'g', 4, 64))
		tr.Root.End()
		e.tel.traces.AddPinned(tr)
		e.tel.log.Warn("job shed by admission control",
			"backend", backendLabel(t), "class", t.class, "priority", t.prio.String(),
			"benchmark", t.label, "retryAfter", dec.RetryAfter.Seconds())
		return nil, &OverloadedError{RetryAfter: dec.RetryAfter, Reason: dec.Reason}
	}
	j := e.newJob(ctx, t)
	select {
	case e.queues[t.prio] <- j:
		e.tel.admissionDecisions.With(t.prio.String(), admissionAdmitted).Inc()
		e.logJob(j, "job queued")
		return j, nil
	default:
		e.tel.admissionDecisions.With(t.prio.String(), admissionQueueFull).Inc()
		e.tel.requests.With(backendLabel(t), t.class, outcomeRejected).Inc()
		e.tel.log.Warn("job rejected: queue full",
			"backend", backendLabel(t), "class", t.class, "priority", t.prio.String(),
			"benchmark", t.label)
		e.dropJob(j, "rejected")
		return nil, &OverloadedError{RetryAfter: e.retryAfterEstimate(),
			Reason: t.prio.String() + " queue full", QueueFull: true}
	}
}

// backendLabel names a task's backend for metric labels.
func backendLabel(t task) string {
	if t.backend == nil {
		return "unknown"
	}
	return t.backend.Name()
}

// logJob emits one structured lifecycle event correlated by trace ID.
func (e *Engine) logJob(j *job, msg string, extra ...any) {
	args := append([]any{
		"job", j.id, "traceId", j.trace.ID,
		"backend", backendLabel(j.task), "class", j.task.class,
		"benchmark", j.task.label,
	}, extra...)
	e.tel.log.Info(msg, args...)
}

// submitBlocking enqueues a job, waiting for queue space until ctx or the
// engine is done. The batch endpoint uses it so a burst larger than the
// queue is flow-controlled instead of rejected.
func (e *Engine) submitBlocking(ctx context.Context, t task) (*job, error) {
	if !e.beginSubmit() {
		return nil, ErrClosed
	}
	defer e.inFlight.Done()
	j := e.newJob(ctx, t)
	select {
	case e.queues[t.prio] <- j:
		e.tel.admissionDecisions.With(t.prio.String(), admissionAdmitted).Inc()
		e.logJob(j, "job queued")
		return j, nil
	case <-ctx.Done():
		e.dropJob(j, "abandoned")
		return nil, ctx.Err()
	case <-e.ctx.Done():
		e.dropJob(j, "closed")
		return nil, ErrClosed
	}
}

// dropJob unregisters a job that never entered a queue, closing out its
// trace into the ring's pinned segment: rejections are overload evidence,
// which a flood of ordinary successes must not evict.
func (e *Engine) dropJob(j *job, state string) {
	j.cancel()
	j.trace.Root.SetAttr("state", state)
	j.trace.Root.End()
	e.tel.traces.AddPinned(j.trace)
	e.mu.Lock()
	delete(e.jobs, j.id)
	e.mu.Unlock()
}

// Wait blocks until the job finishes (or ctx is done) and returns its final
// snapshot.
func (e *Engine) Wait(ctx context.Context, id string) (*Job, error) {
	e.mu.Lock()
	j, ok := e.jobs[id]
	e.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("service: unknown job %q", id)
	}
	select {
	case <-j.done:
		return e.snapshot(j), nil
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// Compile is the synchronous path: resolve, enqueue (fail-fast), wait. If
// the caller gives up before completion, the job is cancelled.
func (e *Engine) Compile(ctx context.Context, req Request) (*Job, error) {
	jv, err := e.Submit(ctx, req)
	if err != nil {
		return nil, err
	}
	j, err := e.Wait(ctx, jv.ID)
	if err != nil {
		e.Cancel(jv.ID) //nolint:errcheck // best-effort cleanup
		return nil, err
	}
	return j, nil
}

// JobByID returns a job snapshot.
func (e *Engine) JobByID(id string) (*Job, bool) {
	e.mu.Lock()
	j, ok := e.jobs[id]
	e.mu.Unlock()
	if !ok {
		return nil, false
	}
	return e.snapshot(j), true
}

// Cancel requests cancellation of a queued or running job. It reports false
// when the job is unknown and an error when it already finished.
func (e *Engine) Cancel(id string) (bool, error) {
	e.mu.Lock()
	j, ok := e.jobs[id]
	e.mu.Unlock()
	if !ok {
		return false, nil
	}
	j.mu.Lock()
	terminal := j.finalized
	state := j.state
	queued := j.state == StateQueued
	j.mu.Unlock()
	if terminal {
		return true, fmt.Errorf("service: job %s already %s", id, state)
	}
	j.cancel()
	if queued {
		// Finish immediately so the caller observes "cancelled" rather than
		// a stale "queued"; the worker that later pops the job finds it
		// finalized and skips it.
		e.finish(j, &outcome{err: fmt.Errorf("service: compilation cancelled: %w", context.Canceled)}, false)
	}
	return true, nil
}

// run executes one job: skip if already cancelled, then compute through the
// cache (coalescing with any in-flight identical computation). A panic that
// escapes the backend-level recovery in execute (engine bookkeeping, not
// backend code) still fails only this job — the worker survives.
func (e *Engine) run(j *job) {
	if j.ctx.Err() != nil {
		e.finish(j, &outcome{err: fmt.Errorf("service: compilation cancelled: %w", j.ctx.Err())}, false)
		return
	}
	j.mu.Lock()
	if j.finalized {
		j.mu.Unlock()
		return
	}
	j.state = StateRunning
	waited := time.Since(j.submitted)
	j.mu.Unlock()
	e.tel.queueWait.ObserveExemplar(waited.Seconds(), j.trace.ID)
	j.trace.Root.Record("queue.wait", j.submitted, waited)
	defer func() {
		if r := recover(); r != nil {
			e.recordPanic("worker", r)
			e.finish(j, &outcome{err: fmt.Errorf("service: worker panic: %v", r)}, false)
		}
	}()
	out, cached := e.work(j)
	e.finish(j, out, cached)
}

// work computes a job under the busy gauge. The gauge and the service-time
// accounting are released on return — by defer, so on a panic too — which
// is before run publishes the job: a waiter woken by finish never sees the
// job still busy, and the admission model never reads a stale service time.
func (e *Engine) work(j *job) (*outcome, bool) {
	e.busy.Add(1)
	start := time.Now()
	defer func() {
		e.busy.Add(-1)
		e.busySeconds.Add(time.Since(start).Seconds())
		e.executed.Add(1)
	}()
	return e.compute(j.ctx, j.task)
}

// compute returns the outcome for a task, via the cache when possible. The
// first requester of a key owns the compilation; concurrent requesters wait
// on its entry (counted as cache hits — no duplicate work happens). If an
// owner is cancelled mid-compile, a live waiter retries and takes ownership.
func (e *Engine) compute(ctx context.Context, t task) (*outcome, bool) {
	// Streaming sample jobs bypass the cache entirely: their product is the
	// live record stream, which only exists on this request's connection —
	// neither serving a histogram from cache nor caching this run's would be
	// the requested computation.
	if t.emit != nil {
		return e.execute(ctx, t), false
	}
	sp := obs.SpanFromContext(ctx)
	for {
		lookupStart := time.Now()
		ent, hit := e.cache.getOrReserve(t.key)
		if !hit {
			e.tel.cacheEvents.With(cacheMiss).Inc()
			if c := sp.Record("cache.lookup", lookupStart, time.Since(lookupStart)); c != nil {
				c.SetAttr("outcome", cacheMiss)
			}
			out := e.execute(ctx, t)
			e.cache.fulfill(ent, out)
			if out.err != nil || out.timedOut {
				// Errors are not cached: cancellations are caller-specific,
				// and client errors are caught at resolve time (backend-side
				// size limits still fail the individual job). Timed-out
				// anytime-solver outcomes are not cached either — the
				// timeout reflects wall-clock load, not the inputs, so a
				// later identical request deserves a fresh attempt.
				e.cache.drop(ent)
			}
			return out, false
		}
		// Distinguish a finished-entry hit from coalescing onto an identical
		// in-flight compilation; the coalesce count is in addition to the hit
		// recorded once the entry resolves.
		lookupOutcome := cacheHit
		select {
		case <-ent.done:
		default:
			lookupOutcome = cacheCoalesce
			e.tel.cacheEvents.With(cacheCoalesce).Inc()
		}
		if c := sp.Record("cache.lookup", lookupStart, time.Since(lookupStart)); c != nil {
			c.SetAttr("outcome", lookupOutcome)
		}
		select {
		case <-ent.done:
			out := ent.out
			if out.err != nil && (errors.Is(out.err, context.Canceled) || errors.Is(out.err, context.DeadlineExceeded)) && ctx.Err() == nil {
				continue // the owner was cancelled, not us: take over
			}
			e.tel.cacheEvents.With(cacheHit).Inc()
			return out, true
		case <-ctx.Done():
			return &outcome{err: fmt.Errorf("service: compilation cancelled: %w", ctx.Err())}, false
		}
	}
}

// execute runs the task's backend and packages the result envelope. A panic
// in the backend (or the noise replay) is recovered here — inside the cache
// ownership window, so the reserved entry is still fulfilled and coalesced
// waiters are woken with the failure instead of hanging — and converted into
// a failed outcome; the worker stays alive (atomique_panics_total counts it).
func (e *Engine) execute(ctx context.Context, t task) (out *outcome) {
	// The compile span wraps the backend run; the pipeline runner sees it via
	// ctx and attaches one "pass:<name>" child per pass.
	cspan := obs.SpanFromContext(ctx).StartChild("compile")
	defer func() {
		if r := recover(); r != nil {
			cspan.End()
			e.recordPanic("backend "+backendLabel(t), r)
			out = &outcome{err: fmt.Errorf("service: backend %s panicked: %v", backendLabel(t), r)}
		}
	}()
	cctx := ctx
	if cspan != nil {
		cspan.SetAttr("backend", backendLabel(t))
		cctx = obs.ContextWithSpan(ctx, cspan)
	}
	res, err := e.compile(cctx, t.backend, t.target, t.circ, t.opts)
	cspan.End()
	if err != nil {
		return &outcome{err: err}
	}
	e.recordPasses(res.Metrics.Passes)
	// Noisy-shot requests replay the compiled program through the
	// trajectory engine on the same worker; the estimate is deterministic
	// per (options, seed), so the outcome stays cacheable. The trajectory
	// engine hangs its witness-replay and chunk spans off the job root in
	// ctx, as siblings of the compile span.
	if t.emit != nil {
		err = compiler.AttachSample(ctx, t.target, res, t.opts, t.emit)
	} else {
		err = compiler.AttachNoise(ctx, t.target, res, t.opts)
	}
	if err != nil {
		return &outcome{err: err}
	}
	if t.opts.NoisyShots > 0 {
		if t.opts.SampleBits {
			e.tel.sampledShots.Add(float64(t.opts.NoisyShots))
		} else {
			e.tel.shots.Add(float64(t.opts.NoisyShots))
		}
	}
	env := report.NewEnvelope(t.hash, res.Metrics)
	env.Backend = res.Backend
	env.Extra = res.Extra
	env.TimedOut = res.TimedOut
	env.Noise = res.Noise
	env.Sample = res.Sample
	js, err := env.EncodeJSON()
	if err != nil {
		return &outcome{err: fmt.Errorf("service: encode result: %w", err)}
	}
	return &outcome{json: js, timedOut: res.TimedOut}
}

// recordPasses folds one compilation's per-pass timings into the engine-wide
// aggregate surfaced by Stats. Cache hits never reach here, so the aggregate
// reflects compute actually spent.
func (e *Engine) recordPasses(passes []metrics.PassTiming) {
	if len(passes) == 0 {
		return
	}
	e.tel.passRuns.Inc()
	for _, p := range passes {
		e.tel.passSeconds.With(p.Name).Add(p.Seconds)
		e.tel.passLatency.With(p.Name).Observe(p.Seconds)
	}
}

// finish moves a job to its terminal state and wakes waiters. It is
// idempotent: a job cancelled while queued may be finished by Cancel and
// again by the worker that later pops it from the queue.
func (e *Engine) finish(j *job, out *outcome, cached bool) {
	j.mu.Lock()
	if j.finalized {
		j.mu.Unlock()
		return
	}
	j.finalized = true
	// The outcome is counted as the state turns terminal, so a job seen
	// finished through JobByID is already in Stats.
	outcomeLabel := outcomeDone
	switch {
	case out.err == nil:
		j.state = StateDone
	case errors.Is(out.err, context.Canceled) || errors.Is(out.err, context.DeadlineExceeded):
		j.state, outcomeLabel = StateCancelled, outcomeCancelled
	default:
		j.state, outcomeLabel = StateFailed, outcomeFailed
	}
	backend := backendLabel(j.task)
	e.tel.requests.With(backend, j.task.class, outcomeLabel).Inc()
	j.out = out
	j.cached = cached
	j.finishedAt = time.Now()
	state := j.state
	elapsed := j.finishedAt.Sub(j.submitted)
	j.mu.Unlock()
	j.cancel() // release the context resources

	// Close out the trace and publish the observability record: latency
	// histogram (successes only — cancellations would skew the percentiles
	// the autoscaler feeds on, carrying this job's trace ID as an
	// OpenMetrics exemplar), trace ring, log line. Retention is tiered:
	// failures and slow-tail successes (over the class's current p99, once
	// the histogram has enough mass to trust it) pin into the ring's
	// reserved segment; ordinary successes take the sampling coin.
	pin := state == StateFailed
	if state == StateDone {
		// Snapshot before observing so the job is not compared to a p99 that
		// already includes it.
		hist := e.tel.latency.With(backend, j.task.class)
		if snap := hist.Snapshot(); snap.Count >= slowTailMinSamples &&
			elapsed.Seconds() > snap.Quantile(0.99) {
			pin = true
			j.trace.Root.SetAttr("slowTail", "over-p99")
		}
		hist.ObserveExemplar(elapsed.Seconds(), j.trace.ID)
	}
	j.trace.Root.SetAttr("state", string(state))
	j.trace.Root.SetAttr("cached", strconv.FormatBool(cached))
	j.trace.Root.End()
	if pin {
		e.tel.traces.AddPinned(j.trace)
	} else {
		e.tel.traces.Add(j.trace)
	}
	if out.err != nil {
		e.logJob(j, "job finished", "state", state, "seconds", elapsed.Seconds(),
			"cached", cached, "error", out.err.Error())
	} else {
		e.logJob(j, "job finished", "state", state, "seconds", elapsed.Seconds(),
			"cached", cached)
	}

	e.mu.Lock()
	e.finished = append(e.finished, j.id)
	for len(e.finished) > maxTrackedJobs {
		delete(e.jobs, e.finished[0])
		e.finished = e.finished[1:]
	}
	e.mu.Unlock()
	// Wake the waiters last, so a caller that sees the job finished also
	// sees its trace, outcome counter and latency sample.
	close(j.done)
}

// snapshot renders a job's externally visible state.
func (e *Engine) snapshot(j *job) *Job {
	j.mu.Lock()
	defer j.mu.Unlock()
	v := &Job{
		ID:          j.id,
		State:       j.state,
		TraceID:     j.trace.ID,
		Benchmark:   j.task.label,
		CircuitHash: j.task.hash,
		Cached:      j.cached,
		SubmittedAt: j.submitted,
	}
	if j.task.backend != nil {
		v.Backend = j.task.backend.Name()
	}
	if !j.finishedAt.IsZero() {
		t := j.finishedAt
		v.FinishedAt = &t
	}
	if j.out != nil {
		if j.out.err != nil {
			v.Error = j.out.err.Error()
		} else {
			// Splice this job's trace into the (trace-free, byte-identical)
			// cached envelope, once per job; a splice failure falls back to
			// the raw cached bytes rather than failing the response.
			if j.tracedJSON == nil {
				j.tracedJSON = j.out.json
				if j.finalized {
					if spliced, err := report.WithTrace(j.out.json, j.trace.ID, j.trace.Root.Snapshot()); err == nil {
						j.tracedJSON = spliced
					}
				}
			}
			v.Result = json.RawMessage(j.tracedJSON)
		}
	}
	return v
}
