package service

import (
	"log/slog"
	"time"

	"atomique/internal/admission"
	"atomique/internal/compiler"
	"atomique/internal/obs"
)

// Request classes: compile jobs and noisy-simulate jobs have wildly
// different cost profiles, so every latency metric is keyed by class — the
// split the ROADMAP's saturation-aware autoscaler needs to model them
// separately.
const (
	ClassCompile  = "compile"
	ClassSimulate = "simulate"
	ClassSample   = "sample"
)

// Job outcome labels for the request counter.
const (
	outcomeDone      = "done"
	outcomeFailed    = "failed"
	outcomeCancelled = "cancelled"
	outcomeRejected  = "rejected"
)

// Cache event labels: a miss owns the compilation, a hit returns a finished
// entry, and a coalesce joined an identical in-flight computation (counted in
// addition to the hit it eventually observes).
const (
	cacheHit      = "hit"
	cacheMiss     = "miss"
	cacheCoalesce = "coalesce"
)

// Admission decision labels: admitted into a queue, shed by the controller
// before the queue saturates, or rejected because the queue was full.
const (
	admissionAdmitted  = "admitted"
	admissionShed      = "shed"
	admissionQueueFull = "queue_full"
)

// telemetry is the engine's observability bundle: the metrics registry
// behind GET /metrics, the trace ring buffer behind GET /v1/traces, and the
// structured logger every job lifecycle event writes to (correlated by trace
// ID). One instance per engine — metrics are per-engine, not process-global,
// so tests and in-process engines never interfere.
type telemetry struct {
	registry *obs.Registry
	traces   *obs.TraceStore
	log      *slog.Logger

	// requests counts finished jobs by backend x class x outcome
	// (done/failed/cancelled/rejected).
	requests *obs.CounterVec
	// latency is end-to-end job time (submit -> finish) for successful jobs,
	// by backend x class — the histogram the autoscaler scrapes percentiles
	// from.
	latency *obs.HistogramVec
	// queueWait is time from submission to a worker picking the job up.
	queueWait *obs.Histogram
	// cacheEvents counts hit/miss/coalesce on the result cache.
	cacheEvents *obs.CounterVec
	// passSeconds accumulates per-pass compile seconds and passRuns counts
	// the compilations that reported them (the /v1/stats PassSeconds and
	// PassRuns); passLatency is the same signal as a histogram for per-pass
	// percentiles.
	passSeconds *obs.CounterVec
	passRuns    *obs.Counter
	passLatency *obs.HistogramVec
	// shots counts trajectory shots executed (throughput via rate()).
	shots *obs.Counter
	// sampledShots counts measurement shots sampled by /v1/sample jobs;
	// streamedShots counts the subset delivered live over streaming
	// connections (streamed ≤ sampled; the rest were histogram-only).
	sampledShots  *obs.Counter
	streamedShots *obs.Counter
	// panicsTotal counts backend panics recovered by workers.
	panicsTotal *obs.Counter
	// admissionDecisions counts submissions by priority class x decision
	// (admitted / shed / queue_full) — the controller's visible effect.
	admissionDecisions *obs.CounterVec
}

// newTelemetry builds the registry and registers every engine metric,
// including the gauge closures that read live engine state at scrape time.
func newTelemetry(e *Engine, logger *slog.Logger, traceBuffer int) *telemetry {
	if logger == nil {
		logger = obs.DiscardLogger()
	}
	r := obs.NewRegistry()
	t := &telemetry{
		registry: r,
		traces:   obs.NewTraceStore(traceBuffer),
		log:      logger,
		requests: r.CounterVec("atomique_requests_total",
			"Finished compile-service jobs by backend, request class, and outcome.",
			"backend", "class", "outcome"),
		latency: r.HistogramVec("atomique_request_duration_seconds",
			"End-to-end job latency (submit to finish) for successful jobs.",
			nil, "backend", "class"),
		queueWait: r.Histogram("atomique_queue_wait_seconds",
			"Time jobs spent queued before a worker picked them up.", nil),
		cacheEvents: r.CounterVec("atomique_cache_events_total",
			"Result-cache events: hit, miss, or coalesce (joined an in-flight compile).",
			"event"),
		passSeconds: r.CounterVec("atomique_pass_seconds_total",
			"Cumulative wall seconds per compile-pipeline pass across executed compilations.",
			"pass"),
		passRuns: r.Counter("atomique_pass_runs_total",
			"Executed compilations that reported per-pass timings."),
		passLatency: r.HistogramVec("atomique_pass_duration_seconds",
			"Per-execution wall time of each compile-pipeline pass.",
			nil, "pass"),
		shots: r.Counter("atomique_trajectory_shots_total",
			"Monte-Carlo trajectory shots executed by noisy-simulate jobs."),
		sampledShots: r.Counter("atomique_sampled_shots_total",
			"Measurement shots sampled by /v1/sample jobs."),
		streamedShots: r.Counter("atomique_streamed_shots_total",
			"Sampled shot records delivered over live /v1/sample?stream=1 connections."),
		panicsTotal: r.Counter("atomique_panics_total",
			"Backend panics recovered by workers (the job failed, the worker survived)."),
		admissionDecisions: r.CounterVec("atomique_admission_decisions_total",
			"Submission decisions by priority class: admitted, shed (admission control), or queue_full.",
			"priority", "decision"),
	}
	r.GaugeFunc("atomique_queue_depth",
		"Jobs waiting in the bounded queues (both priority classes).",
		func() float64 {
			qs := e.queue.state()
			return float64(qs.depth[admission.Interactive] + qs.depth[admission.Batch])
		})
	r.GaugeFunc("atomique_queue_depth_interactive",
		"Jobs waiting in the interactive queue.",
		func() float64 { return float64(e.queue.state().depth[admission.Interactive]) })
	r.GaugeFunc("atomique_queue_depth_batch",
		"Jobs waiting in the batch queue.",
		func() float64 { return float64(e.queue.state().depth[admission.Batch]) })
	r.GaugeFunc("atomique_queue_capacity",
		"Capacity of each bounded priority queue.",
		func() float64 { return float64(e.cfg.QueueSize) })
	r.GaugeFunc("atomique_workers",
		"Live workers in the adaptive pool (including draining retirees).",
		func() float64 { return float64(e.queue.state().live) })
	r.GaugeFunc("atomique_workers_target",
		"Worker-pool target set by Resize or the admission controller's actuator.",
		func() float64 { return float64(e.queue.state().target) })
	r.GaugeFunc("atomique_workers_busy",
		"Workers currently executing a job.",
		func() float64 { return float64(e.busy.Load()) })
	r.GaugeFunc("atomique_busy_seconds",
		"Cumulative wall seconds workers spent executing jobs.",
		func() float64 { return e.busySeconds.Value() })
	r.GaugeFunc("atomique_admission_saturation",
		"Predicted batch queue wait over the queue-wait objective (>1 sheds batch).",
		func() float64 {
			if t := e.admTick.Load(); t != nil {
				return t.Saturation
			}
			return 0
		})
	r.GaugeFunc("atomique_admission_predicted_wait_seconds",
		"Predicted queue wait for a new interactive submission.",
		func() float64 {
			if t := e.admTick.Load(); t != nil {
				return t.InteractiveWait.Seconds()
			}
			return 0
		})
	r.GaugeFunc("atomique_admission_shed_batch",
		"1 while the admission controller sheds batch submissions.",
		func() float64 {
			if t := e.admTick.Load(); t != nil && t.ShedBatch {
				return 1
			}
			return 0
		})
	r.GaugeFunc("atomique_admission_shed_interactive",
		"1 while the admission controller sheds interactive submissions.",
		func() float64 {
			if t := e.admTick.Load(); t != nil && t.ShedInteractive {
				return 1
			}
			return 0
		})
	r.GaugeFunc("atomique_cache_entries",
		"Entries in the content-addressed result cache (including in-flight).",
		func() float64 { return float64(e.cache.len()) })
	r.GaugeFunc("atomique_traces_stored",
		"Finished traces held in the /v1/traces ring buffer.",
		func() float64 { return float64(t.traces.Len()) })
	r.GaugeFunc("atomique_traces_pinned",
		"Traces held in the ring's reserved segment (errors, sheds, slow-tail outliers).",
		func() float64 { return float64(t.traces.Stats().PinnedStored) })
	evicted := r.CounterFuncVec("atomique_traces_evicted_total",
		"Traces aged out of the ring, by segment (sampled or pinned).", "segment")
	evicted.Register(func() float64 { return float64(t.traces.Stats().EvictedSampled) }, "sampled")
	evicted.Register(func() float64 { return float64(t.traces.Stats().EvictedPinned) }, "pinned")
	r.CounterFunc("atomique_traces_sampled_out_total",
		"Fast successful traces dropped by the sampling coin before storage.",
		func() float64 { return float64(t.traces.Stats().SampledOut) })
	r.GaugeFunc("atomique_uptime_seconds",
		"Seconds since the engine started.",
		func() float64 { return time.Since(e.start).Seconds() })
	return t
}

// classOf maps compile options to the request class.
func classOf(opts compiler.Options) string {
	switch {
	case opts.SampleBits:
		return ClassSample
	case opts.NoisyShots > 0:
		return ClassSimulate
	default:
		return ClassCompile
	}
}

// sum totals v's counters whose labels match want position by position; an
// empty entry matches any value.
func sum(v *obs.CounterVec, want ...string) uint64 {
	var n float64
	v.Each(func(labels []string, c *obs.Counter) {
		for i, w := range want {
			if w != "" && labels[i] != w {
				return
			}
		}
		n += c.Value()
	})
	return uint64(n)
}
