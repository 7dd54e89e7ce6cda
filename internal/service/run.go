package service

import (
	"context"
	"errors"
	"fmt"
	"time"

	"atomique/internal/compiler"
	"atomique/internal/metrics"
	"atomique/internal/obs"
	"atomique/internal/report"
)

// cancelled is the outcome of a job whose context ended before it finished.
func cancelled(err error) *outcome {
	return &outcome{err: fmt.Errorf("service: compilation cancelled: %w", err)}
}

// run executes one job popped from the queue: unless it was given up after
// the pop, compute it through the cache (coalescing with any in-flight
// identical computation) under the busy gauge, then publish it.
func (e *Engine) run(j *job) {
	j.mu.Lock()
	if err := j.ctx.Err(); err != nil {
		j.mu.Unlock()
		e.finish(j, cancelled(err), false)
		return
	}
	j.state = StateRunning
	waited := time.Since(j.submitted)
	t := j.task // finish releases the inputs under j.mu
	j.mu.Unlock()
	e.tel.queueWait.ObserveExemplar(waited.Seconds(), j.trace.ID)
	j.trace.Root.Record("queue.wait", j.submitted, waited)

	var out *outcome
	cached := false
	e.busy.Add(1)
	start := time.Now()
	defer func() {
		// The gauge and the service-time sample are released before finish
		// publishes the job: a waiter it wakes never sees the job still busy,
		// and the admission model never reads a stale service time. A panic
		// that escapes the backend-level recovery in execute (engine
		// bookkeeping, not backend code) fails only this job; the worker
		// survives.
		e.busy.Add(-1)
		e.busySeconds.Add(time.Since(start).Seconds())
		e.executed.Add(1)
		if r := recover(); r != nil {
			e.recordPanic("worker", r)
			out, cached = &outcome{err: fmt.Errorf("service: worker panic: %v", r)}, false
		}
		e.finish(j, out, cached)
	}()
	out, cached = e.compute(j.ctx, t)
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
			return cancelled(ctx.Err()), false
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
			e.recordPanic("backend "+backendLabel(t.backend), r)
			out = &outcome{err: fmt.Errorf("service: backend %s panicked: %v", backendLabel(t.backend), r)}
		}
	}()
	cctx := ctx
	if cspan != nil {
		cspan.SetAttr("backend", backendLabel(t.backend))
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
