package service

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"strconv"
	"time"

	"atomique/internal/compiler"
	"atomique/internal/report"
)

// finish moves a job to its terminal state and wakes waiters. It runs once
// per job, called by whoever took the job out of the queue: the worker that
// popped it, abandon, or Close.
func (e *Engine) finish(j *job, out *outcome, cached bool) {
	j.mu.Lock()
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
	backend := backendLabel(j.task.backend)
	e.tel.requests.With(backend, j.task.class, outcomeLabel).Inc()
	// Nothing reads a finished job's inputs, and the job table keeps
	// thousands of finished jobs: release them, so retained memory does not
	// grow with request size.
	j.task.target, j.task.circ, j.task.opts, j.task.emit = compiler.Target{}, nil, compiler.Options{}, nil
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
		e.logJob(j, slog.LevelInfo, "job finished", "state", state, "seconds", elapsed.Seconds(),
			"cached", cached, "error", out.err.Error())
	} else {
		e.logJob(j, slog.LevelInfo, "job finished", "state", state, "seconds", elapsed.Seconds(),
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

// await waits for j to finish and returns its final snapshot. A caller
// whose ctx ends first has given up: await abandons the job and returns
// ctx's error.
func (e *Engine) await(ctx context.Context, j *job) (*Job, error) {
	select {
	case <-j.done:
		return e.snapshot(j), nil
	case <-ctx.Done():
		e.abandon(j) //nolint:errcheck // a job that already finished has nothing to give up
		return nil, ctx.Err()
	}
}

// abandon cancels a queued or running job. A queued job leaves the queue,
// freeing its slot, and finishes cancelled at once, so it never starts; a
// running one finishes once its backend observes the cancellation. It
// returns an error when the job already finished.
func (e *Engine) abandon(j *job) error {
	// Reading the state and cancelling under j.mu keeps j from finishing in
	// between; run checks the cancellation under j.mu too, so a worker that
	// popped j first either sees it or has marked j running.
	j.mu.Lock()
	state := j.state
	j.cancel()
	j.mu.Unlock()
	if state != StateQueued && state != StateRunning {
		return fmt.Errorf("service: job %s already %s", j.id, state)
	}
	if e.queue.remove(j) {
		e.finish(j, cancelled(j.ctx.Err()), false)
	}
	return nil
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

// Cancel abandons a queued or running job. It reports false when the job is
// unknown and an error when it already finished.
func (e *Engine) Cancel(id string) (bool, error) {
	e.mu.Lock()
	j, ok := e.jobs[id]
	e.mu.Unlock()
	if !ok {
		return false, nil
	}
	return true, e.abandon(j)
}

// snapshot renders a job's externally visible state. A successful job's
// result is its (trace-free, byte-identical) cached envelope with this job's
// trace spliced in; a splice failure falls back to the raw cached bytes
// rather than failing the response.
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
	switch {
	case j.out == nil:
	case j.out.err != nil:
		v.Error = j.out.err.Error()
	default:
		v.Result = j.out.json
		if spliced, err := report.WithTrace(j.out.json, j.trace.ID, j.trace.Root.Snapshot()); err == nil {
			v.Result = spliced
		}
	}
	return v
}
