package service

import (
	"fmt"
	"runtime/debug"
	"strconv"
	"time"

	"atomique/internal/admission"
	"atomique/internal/obs"
)

// Priority names accepted in the request "priority" field.
const (
	PriorityInteractive = "interactive"
	PriorityBatch       = "batch"
)

// parsePriority maps the request field to an admission.Priority; empty means
// interactive (the default for direct compile/simulate calls).
func parsePriority(s string) (admission.Priority, error) {
	switch s {
	case "", PriorityInteractive:
		return admission.Interactive, nil
	case PriorityBatch:
		return admission.Batch, nil
	default:
		return 0, &RequestError{Msg: fmt.Sprintf("unknown priority %q (interactive or batch)", s)}
	}
}

// spawnWorkers grows the pool to target under poolMu; used at construction
// and by Resize.
func (e *Engine) spawnLocked(n int) {
	for i := 0; i < n; i++ {
		quit := make(chan struct{})
		e.quits = append(e.quits, quit)
		e.wg.Add(1)
		e.workersLive.Add(1)
		go e.worker(quit)
	}
}

// Resize sets the worker-pool target, clamped into [WorkersMin, WorkersMax].
// Growth spawns workers immediately; shrinking retires the newest workers
// gracefully — each finishes its current job before exiting (the live count
// converges to the target as they drain). Returns the applied target.
func (e *Engine) Resize(target int) int {
	if target < e.cfg.WorkersMin {
		target = e.cfg.WorkersMin
	}
	if target > e.cfg.WorkersMax {
		target = e.cfg.WorkersMax
	}
	e.poolMu.Lock()
	defer e.poolMu.Unlock()
	if e.closed.Load() {
		return int(e.workersTarget.Load())
	}
	cur := len(e.quits)
	switch {
	case target > cur:
		e.spawnLocked(target - cur)
	case target < cur:
		for _, quit := range e.quits[target:] {
			close(quit)
		}
		e.quits = e.quits[:target]
	}
	e.workersTarget.Store(int64(target))
	return target
}

// SetWorkerTarget implements admission.Actuator.
func (e *Engine) SetWorkerTarget(n int) { e.Resize(n) }

// AdmissionSample implements admission.Sampler: one consistent-enough view
// of the queueing state for the control loop.
func (e *Engine) AdmissionSample() admission.Snapshot {
	return admission.Snapshot{
		Time:             time.Now(),
		InteractiveDepth: len(e.queues[admission.Interactive]),
		BatchDepth:       len(e.queues[admission.Batch]),
		QueueCapacity:    e.cfg.QueueSize,
		Busy:             int(e.busy.Load()),
		Live:             int(e.workersLive.Load()),
		Target:           int(e.workersTarget.Load()),
		Admitted:         sum(e.tel.admissionDecisions, "", admissionAdmitted),
		Executed:         e.executed.Load(),
		BusySeconds:      e.busySeconds.Value(),
	}
}

// observeTick exports one control-loop tick: the gauges read the stored tick
// at scrape time, and a tick that changes the actuation or shed state is
// recorded as an "admission" trace (collect → optimize → actuate spans) in
// the same ring GET /v1/traces serves — the controller's decisions are
// browsable next to the jobs they shaped.
func (e *Engine) observeTick(t admission.Tick) {
	prev := e.admTick.Swap(&t)
	// A tick that starts shedding is the onset of saturation — capture a
	// diagnostic bundle while the overload is live (debounced, so a flapping
	// controller cannot fill the bundle ring).
	if (t.ShedBatch || t.ShedInteractive) &&
		(prev == nil || !(prev.ShedBatch || prev.ShedInteractive)) {
		e.triggerBundle("saturation",
			fmt.Sprintf("shedding (saturation %.2f, workers %d)", t.Saturation, t.Target), false)
	}
	if prev != nil && prev.Target == t.Target &&
		prev.ShedBatch == t.ShedBatch && prev.ShedInteractive == t.ShedInteractive {
		return
	}
	tr := obs.NewTrace("", "admission")
	root := tr.Root
	root.SetAttr("lambdaPerSecond", strconv.FormatFloat(t.Lambda, 'g', 4, 64))
	root.SetAttr("serviceSeconds", strconv.FormatFloat(t.ServiceSeconds, 'g', 4, 64))
	root.Record("collect", t.At, 0).SetAttr("utilization", strconv.FormatFloat(t.Utilization, 'g', 4, 64))
	opt := root.Record("optimize", t.At, 0)
	opt.SetAttr("interactiveWait", t.InteractiveWait.String())
	opt.SetAttr("batchWait", t.BatchWait.String())
	opt.SetAttr("saturation", strconv.FormatFloat(t.Saturation, 'g', 4, 64))
	act := root.Record("actuate", t.At, 0)
	act.SetAttr("workersTarget", strconv.Itoa(t.Target))
	act.SetAttr("shedBatch", strconv.FormatBool(t.ShedBatch))
	act.SetAttr("shedInteractive", strconv.FormatBool(t.ShedInteractive))
	root.End()
	e.tel.traces.Add(tr)
	e.tel.log.Info("admission tick",
		"workersTarget", t.Target, "shedBatch", t.ShedBatch, "shedInteractive", t.ShedInteractive,
		"lambdaPerSecond", t.Lambda, "serviceSeconds", t.ServiceSeconds, "saturation", t.Saturation)
}

// admit consults the controller for a fail-fast submission. Without a
// controller (admission disabled) everything is admitted.
func (e *Engine) admit(p admission.Priority) admission.Decision {
	if e.ctrl == nil {
		return admission.Decision{Admit: true}
	}
	return e.ctrl.Admit(p)
}

// retryAfterEstimate advises a client backoff for a queue-full rejection:
// the time the current backlog needs to drain at the observed mean service
// time, floored at one control period's worth of patience.
func (e *Engine) retryAfterEstimate() time.Duration {
	svc := e.cfg.Admission.DefaultServiceSeconds
	if svc <= 0 {
		svc = 0.05
	}
	if e.ctrl != nil {
		if t := e.ctrl.Last(); t.ServiceSeconds > 0 {
			svc = t.ServiceSeconds
		}
	}
	live := int(e.workersLive.Load())
	if live < 1 {
		live = 1
	}
	depth := len(e.queues[admission.Interactive]) + len(e.queues[admission.Batch])
	d := time.Duration(float64(depth+1) * svc / float64(live) * float64(time.Second))
	if d < 100*time.Millisecond {
		d = 100 * time.Millisecond
	}
	return d
}

// worker drains the queues until retired (quit) or the engine stops.
// Interactive jobs are strictly preferred: a ready interactive job is taken
// before the scheduler ever considers the batch queue, so batch backlogs
// cannot starve interactive compiles.
func (e *Engine) worker(quit chan struct{}) {
	defer e.wg.Done()
	defer e.workersLive.Add(-1)
	for {
		// Retirement and shutdown are only honoured between jobs: a retired
		// worker drains its current job first (graceful drain).
		select {
		case <-e.ctx.Done():
			return
		case <-quit:
			return
		default:
		}
		select {
		case j := <-e.queues[admission.Interactive]:
			e.run(j)
			continue
		default:
		}
		select {
		case <-e.ctx.Done():
			return
		case <-quit:
			return
		case j := <-e.queues[admission.Interactive]:
			e.run(j)
		case j := <-e.queues[admission.Batch]:
			e.run(j)
		}
	}
}

// recordPanic counts and logs a recovered panic (atomique_panics_total) and
// trips the flight recorder — the goroutine dump in the bundle shows what the
// rest of the pool was doing when the worker blew up.
func (e *Engine) recordPanic(where string, r any) {
	e.tel.panicsTotal.Inc()
	e.tel.log.Error("recovered panic", "where", where, "panic", fmt.Sprint(r),
		"stack", string(debug.Stack()))
	e.triggerBundle("panic", where+": "+fmt.Sprint(r), false)
}
