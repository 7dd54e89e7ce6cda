// Package service turns the one-shot compilers into a long-running compile
// service: a bounded job queue drained by a worker pool that runs any
// registered compiler backend concurrently (compilation is deterministic per
// seed, so results are safely parallelizable and cacheable), fronted by a
// content-addressed LRU result cache keyed on (backend, circuit fingerprint,
// target, compile options). Backends are selected per request through the
// unified registry (internal/compiler); GET /v1/backends lists them. The
// HTTP/JSON API lives in http.go. A job's life has one implementation per
// stage: admit.go enqueues or rejects it, queue.go holds it until a worker
// takes it, run.go computes it on a worker, and publish.go finishes it,
// waits for it, gives it up and snapshots it.
package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"atomique/internal/admission"
	"atomique/internal/circuit"
	"atomique/internal/compiler"
	"atomique/internal/hardware"
	"atomique/internal/noise"
	"atomique/internal/obs"
	"atomique/internal/obs/slo"

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
// cache key. A finished job keeps only the labels: finish releases its
// target, circuit, options and emit, so no code may copy a job's task
// outside j.mu.
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
	out        *outcome
	cached     bool
	submitted  time.Time
	finishedAt time.Time
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
	// queue holds the queued jobs and the worker pool's counts.
	queue   *jobQueue
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

	ctx   context.Context
	stop  context.CancelFunc
	wg    sync.WaitGroup // the workers
	start time.Time
	seq   atomic.Uint64

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
		queue:   newJobQueue(cfg.QueueSize),
		cache:   newLRUCache(cfg.CacheSize),
		compile: fn,
		ctx:     ctx,
		stop:    stop,
		start:   time.Now(),
		jobs:    make(map[string]*job),
		benchFP: make(map[string]string),
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
	e.Resize(cfg.Workers)
	if cfg.Admission.Enabled {
		e.ctrl = admission.New(cfg.Admission, e, e, e.observeTick)
		e.ctrl.Start()
	}
	e.startSLO()
	return e
}

// Close stops the admission controller and the workers, cancels running
// jobs, and fails queued ones.
func (e *Engine) Close() {
	queued, ok := e.queue.close()
	if !ok {
		return
	}
	if e.ctrl != nil {
		e.ctrl.Stop()
	}
	if e.slo != nil {
		e.slo.Stop() // no more evaluation ticks or recorder triggers
	}
	e.stop()
	for _, j := range queued {
		e.finish(j, &outcome{err: fmt.Errorf("service: %w", ErrClosed)}, false)
	}
	e.wg.Wait()
	if e.recorder != nil {
		e.recorder.Wait() // let an in-flight bundle capture complete
	}
}

// backendLabel names a task's backend for metric labels.
func backendLabel(b compiler.Backend) string {
	if b == nil {
		return "unknown"
	}
	return b.Name()
}

// logJob emits one structured lifecycle event correlated by trace ID.
func (e *Engine) logJob(j *job, level slog.Level, msg string, extra ...any) {
	args := append([]any{
		"job", j.id, "traceId", j.trace.ID,
		"backend", backendLabel(j.task.backend), "class", j.task.class,
		"benchmark", j.task.label,
	}, extra...)
	e.tel.log.Log(context.Background(), level, msg, args...)
}
