package service

import (
	"time"

	"atomique/internal/admission"
	"atomique/internal/obs"
	"atomique/internal/obs/slo"
)

// Stats is the /v1/stats payload: queue, worker, cache, and per-pass
// pipeline counters.
type Stats struct {
	Workers       int `json:"workers"` // live workers (including draining retirees)
	WorkersBusy   int `json:"workersBusy"`
	WorkersTarget int `json:"workersTarget"` // adaptive-pool target
	WorkersMin    int `json:"workersMin"`
	WorkersMax    int `json:"workersMax"`
	QueueCapacity int `json:"queueCapacity"` // per priority class
	QueueDepth    int `json:"queueDepth"`    // both classes combined
	// QueueDepthInteractive/Batch split QueueDepth by priority class.
	QueueDepthInteractive int    `json:"queueDepthInteractive"`
	QueueDepthBatch       int    `json:"queueDepthBatch"`
	Submitted             uint64 `json:"submitted"`
	Completed             uint64 `json:"completed"`
	Failed                uint64 `json:"failed"`
	Cancelled             uint64 `json:"cancelled"`
	Rejected              uint64 `json:"rejected"`
	// Panics counts backend panics recovered by workers (the jobs failed;
	// the workers survived).
	Panics        uint64  `json:"panics"`
	CacheHits     uint64  `json:"cacheHits"`
	CacheMisses   uint64  `json:"cacheMisses"`
	CacheEntries  int     `json:"cacheEntries"`
	UptimeSeconds float64 `json:"uptimeSeconds"`
	// Admission reports the control loop's latest model fit and shed state;
	// nil when admission control is disabled.
	Admission *AdmissionStats `json:"admission,omitempty"`
	// PassSeconds is the cumulative wall time each compile-pipeline pass
	// consumed across every non-cached compilation this engine executed,
	// keyed by pass name; PassRuns counts those executions. Together they
	// show where compile time goes fleet-wide (avg = seconds/runs).
	PassSeconds map[string]float64 `json:"passSeconds,omitempty"`
	PassRuns    uint64             `json:"passRuns,omitempty"`
	// Latencies summarises end-to-end job latency per "backend/class"
	// (e.g. "atomique/compile"): count, sum, and p50/p90/p99 estimated from
	// the same log-bucketed histograms GET /metrics exposes.
	Latencies map[string]obs.Quantiles `json:"latencies,omitempty"`
	// Traces reports the tiered trace ring: adds, pins, sampling drops, and
	// per-segment evictions.
	Traces obs.TraceStoreStats `json:"traces"`
	// SLO is every objective's burn-rate evaluation (the GET /v1/slo
	// payload) and SLOWorst the most severe state across them.
	SLO      []slo.ObjectiveStatus `json:"slo,omitempty"`
	SLOWorst string                `json:"sloWorst,omitempty"`
	// Bundles counts diagnostic bundles held by the flight recorder; -1
	// when the recorder is disabled.
	Bundles int `json:"bundles"`
}

// AdmissionStats is the /v1/stats view of the admission controller: the
// fitted saturation model and the current gate state.
type AdmissionStats struct {
	ArrivalRatePerSecond float64 `json:"arrivalRatePerSecond"`
	ServiceSecondsPerJob float64 `json:"serviceSecondsPerJob"`
	Utilization          float64 `json:"utilization"`
	// PredictedInteractiveWaitSeconds/PredictedBatchWaitSeconds are the
	// queue waits a new submission of each class would see.
	PredictedInteractiveWaitSeconds float64 `json:"predictedInteractiveWaitSeconds"`
	PredictedBatchWaitSeconds       float64 `json:"predictedBatchWaitSeconds"`
	// Saturation is predicted batch wait over the queue-wait objective
	// (>1 means batch traffic is shedding).
	Saturation      float64 `json:"saturation"`
	ShedInteractive bool    `json:"shedInteractive"`
	ShedBatch       bool    `json:"shedBatch"`
	// ShedInteractiveTotal/ShedBatchTotal count admission sheds per class
	// since engine start. Stats.Rejected counts these sheds too, plus the
	// queue-full rejections, which have no per-class total here.
	ShedInteractiveTotal uint64 `json:"shedInteractiveTotal"`
	ShedBatchTotal       uint64 `json:"shedBatchTotal"`
}

// Stats returns a snapshot of the engine counters. Every count is read from
// the metrics registry that GET /metrics serves, so the two cannot disagree.
func (e *Engine) Stats() Stats {
	passSeconds := make(map[string]float64)
	e.tel.passSeconds.Each(func(labels []string, c *obs.Counter) {
		passSeconds[labels[0]] = c.Value()
	})
	latencies := make(map[string]obs.Quantiles)
	e.tel.latency.Each(func(labels []string, h *obs.Histogram) {
		latencies[labels[0]+"/"+labels[1]] = h.Quantiles()
	})
	st := Stats{
		PassSeconds:           passSeconds,
		PassRuns:              uint64(e.tel.passRuns.Value()),
		Latencies:             latencies,
		Workers:               int(e.workersLive.Load()),
		WorkersBusy:           int(e.busy.Load()),
		WorkersTarget:         int(e.workersTarget.Load()),
		WorkersMin:            e.cfg.WorkersMin,
		WorkersMax:            e.cfg.WorkersMax,
		QueueCapacity:         e.cfg.QueueSize,
		QueueDepthInteractive: len(e.queues[admission.Interactive]),
		QueueDepthBatch:       len(e.queues[admission.Batch]),
		Submitted:             sum(e.tel.admissionDecisions, "", admissionAdmitted),
		Completed:             sum(e.tel.requests, "", "", outcomeDone),
		Failed:                sum(e.tel.requests, "", "", outcomeFailed),
		Cancelled:             sum(e.tel.requests, "", "", outcomeCancelled),
		Rejected:              sum(e.tel.requests, "", "", outcomeRejected),
		Panics:                uint64(e.tel.panicsTotal.Value()),
		CacheHits:             sum(e.tel.cacheEvents, cacheHit),
		CacheMisses:           sum(e.tel.cacheEvents, cacheMiss),
		CacheEntries:          e.cache.len(),
		UptimeSeconds:         time.Since(e.start).Seconds(),
		Traces:                e.tel.traces.Stats(),
		Bundles:               -1,
	}
	st.QueueDepth = st.QueueDepthInteractive + st.QueueDepthBatch
	if e.slo != nil {
		st.SLO = e.slo.Status()
		st.SLOWorst = e.slo.WorstState().String()
	}
	if e.recorder != nil {
		st.Bundles = len(e.recorder.List())
	}
	if e.ctrl != nil {
		t := e.ctrl.Last()
		st.Admission = &AdmissionStats{
			ArrivalRatePerSecond:            t.Lambda,
			ServiceSecondsPerJob:            t.ServiceSeconds,
			Utilization:                     t.Utilization,
			PredictedInteractiveWaitSeconds: t.InteractiveWait.Seconds(),
			PredictedBatchWaitSeconds:       t.BatchWait.Seconds(),
			Saturation:                      t.Saturation,
			ShedInteractive:                 t.ShedInteractive,
			ShedBatch:                       t.ShedBatch,
			ShedInteractiveTotal:            sum(e.tel.admissionDecisions, admission.Interactive.String(), admissionShed),
			ShedBatchTotal:                  sum(e.tel.admissionDecisions, admission.Batch.String(), admissionShed),
		}
	}
	return st
}
