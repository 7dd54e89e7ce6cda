package service

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"strconv"
	"time"

	"atomique/internal/obs"
)

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
	j, err := e.enqueue(ctx, t, false)
	if err != nil {
		return nil, err
	}
	return e.snapshot(j), nil
}

// Compile is the synchronous path: resolve, enqueue (fail-fast), await. A
// caller whose ctx ends first gives the job up.
func (e *Engine) Compile(ctx context.Context, req Request) (*Job, error) {
	t, err := e.resolve(req)
	if err != nil {
		return nil, err
	}
	j, err := e.enqueue(ctx, t, false)
	if err != nil {
		return nil, err
	}
	return e.await(ctx, j)
}

// enqueue queues a resolved task as a new job; ctx carries the caller's
// trace ID, if any. A fail-fast enqueue (block false) passes the admission
// gate and is turned away with an *OverloadedError when the controller
// sheds its class or its queue is full. A blocking one (the batch endpoint)
// skips the gate and waits for queue space until ctx or the engine is done,
// so a burst larger than the queue is flow-controlled rather than rejected.
func (e *Engine) enqueue(ctx context.Context, t task, block bool) (*job, error) {
	// A closed engine answers 503 before the gate could shed the request.
	if e.queue.state().closed {
		return nil, ErrClosed
	}
	j := e.newJob(ctx, t)
	if !block {
		if dec := e.admit(t.prio); !dec.Admit {
			return nil, e.reject(j, &OverloadedError{RetryAfter: dec.RetryAfter, Reason: dec.Reason})
		}
	}
	switch err := e.queue.push(ctx, j, block); {
	case errors.Is(err, ErrQueueFull):
		return nil, e.reject(j, &OverloadedError{RetryAfter: e.retryAfterEstimate(),
			Reason: t.prio.String() + " queue full", QueueFull: true})
	case errors.Is(err, ErrClosed):
		e.drop(j, "closed")
		return nil, err
	case err != nil:
		e.drop(j, "abandoned")
		return nil, err
	}
	e.tel.admissionDecisions.With(t.prio.String(), admissionAdmitted).Inc()
	e.logJob(j, slog.LevelInfo, "job queued")
	return j, nil
}

// reject drops a job that the admission controller shed (state "shed") or
// a full queue turned away (state "rejected"), recording why and when to
// retry on its trace, and returns oe for the caller.
func (e *Engine) reject(j *job, oe *OverloadedError) error {
	state, decision := "shed", admissionShed
	if oe.QueueFull {
		state, decision = "rejected", admissionQueueFull
	}
	prio := j.task.prio.String()
	e.tel.admissionDecisions.With(prio, decision).Inc()
	e.tel.requests.With(backendLabel(j.task.backend), j.task.class, outcomeRejected).Inc()
	j.trace.Root.SetAttr("priority", prio)
	j.trace.Root.SetAttr("reason", oe.Reason)
	j.trace.Root.SetAttr("retryAfterSeconds", strconv.FormatFloat(oe.RetryAfter.Seconds(), 'g', 4, 64))
	e.logJob(j, slog.LevelWarn, "job "+state,
		"priority", prio, "reason", oe.Reason, "retryAfter", oe.RetryAfter.Seconds())
	e.drop(j, state)
	return oe
}

// drop unregisters a job that never entered the queue, closing out its trace
// into the ring's pinned segment: a job turned away is overload evidence,
// which a flood of ordinary successes must not evict.
func (e *Engine) drop(j *job, state string) {
	j.cancel()
	j.trace.Root.SetAttr("state", state)
	j.trace.Root.End()
	e.tel.traces.AddPinned(j.trace)
	e.mu.Lock()
	delete(e.jobs, j.id)
	e.mu.Unlock()
}
