// Package admission is the saturation-aware control plane for the compile
// service: a collector → optimizer → actuator loop that samples the engine's
// telemetry (queue depths, busy workers, cumulative admitted/executed counts
// and busy-seconds), fits a small queueing model on the smoothed signals, and
// from it (a) computes a worker-pool target the engine's adaptive pool
// actuates within [MinWorkers, MaxWorkers], and (b) decides, per priority
// class, whether new fail-fast submissions should be shed before the queue
// saturates — each shed carrying a computed Retry-After derived from the
// predicted queue wait. Batch traffic sheds first, so interactive compiles
// keep a bounded wait under bursts; interactive sheds only when even its own
// (strictly preferred) backlog would blow the latency objective.
//
// The package is dependency-free below the service layer: the engine
// implements Sampler and Actuator, and an optional Observer receives one Tick
// per control period for metrics/span export. The Admit fast path is a single
// atomic pointer load, cheap enough for every submission.
package admission

import (
	"math"
	"sync/atomic"
	"time"
)

// Priority is a request's scheduling class. Interactive jobs are drained
// ahead of batch jobs and are the last to be shed.
type Priority int

// The two priority classes. Interactive is the zero value (the default for
// requests that do not name a class).
const (
	Interactive Priority = iota
	Batch
)

// String names the class for labels and logs.
func (p Priority) String() string {
	if p == Batch {
		return "batch"
	}
	return "interactive"
}

// Config tunes the control loop. The zero value (with Enabled set) gets
// production defaults sized for millisecond-scale compile jobs.
type Config struct {
	// Enabled turns the controller on; a disabled controller admits
	// everything and never resizes the pool.
	Enabled bool
	// Interval is the control period (default 250ms).
	Interval time.Duration
	// MinWorkers/MaxWorkers clamp the worker-pool target (defaults 1 and
	// the pool's configured size; the service layer fills these in).
	MinWorkers, MaxWorkers int
	// TargetQueueWait is the queue-wait objective the optimizer defends:
	// above it batch submissions shed, and the drain term of the worker
	// target is sized to clear the backlog within it (default 250ms).
	TargetQueueWait time.Duration
	// InteractiveSlack multiplies TargetQueueWait into the interactive shed
	// threshold — interactive holds out this factor longer than batch
	// (default 4).
	InteractiveSlack float64
	// Headroom over-provisions the steady-state worker demand λ·s so the
	// pool absorbs arrival jitter without queueing (default 1.25).
	Headroom float64
	// ScaleDownTicks is how many consecutive control periods must want a
	// smaller pool before the target actually shrinks — scale up is
	// immediate, scale down is damped (default 4).
	ScaleDownTicks int
	// EWMAAlpha smooths the arrival-rate and service-time estimates
	// (default 0.3; higher reacts faster).
	EWMAAlpha float64
	// DefaultServiceSeconds seeds the per-job service-time estimate before
	// the first completed jobs are observed (default DefaultServiceSeconds).
	DefaultServiceSeconds float64
}

// DefaultServiceSeconds is the per-job service time, 50 ms, assumed until
// the controller has observed completed jobs.
const DefaultServiceSeconds = 0.05

func (c Config) withDefaults() Config {
	if c.Interval <= 0 {
		c.Interval = 250 * time.Millisecond
	}
	if c.MinWorkers <= 0 {
		c.MinWorkers = 1
	}
	if c.MaxWorkers < c.MinWorkers {
		c.MaxWorkers = c.MinWorkers
	}
	if c.TargetQueueWait <= 0 {
		c.TargetQueueWait = 250 * time.Millisecond
	}
	if c.InteractiveSlack <= 0 {
		c.InteractiveSlack = 4
	}
	if c.Headroom <= 0 {
		c.Headroom = 1.25
	}
	if c.ScaleDownTicks <= 0 {
		c.ScaleDownTicks = 4
	}
	if c.EWMAAlpha <= 0 || c.EWMAAlpha > 1 {
		c.EWMAAlpha = 0.3
	}
	if c.DefaultServiceSeconds <= 0 {
		c.DefaultServiceSeconds = DefaultServiceSeconds
	}
	return c
}

// Snapshot is one collector sample of the engine's live state. Counters are
// cumulative since engine start; the optimizer differences consecutive
// samples to recover rates.
type Snapshot struct {
	Time time.Time
	// InteractiveDepth/BatchDepth are the per-class queue depths.
	InteractiveDepth, BatchDepth int
	// QueueCapacity is the per-class queue capacity.
	QueueCapacity int
	// Busy/Live/Target describe the worker pool at sample time.
	Busy, Live, Target int
	// Admitted counts jobs accepted into a queue (arrival rate source).
	Admitted uint64
	// Executed counts jobs a worker has run to completion, and BusySeconds
	// is the cumulative wall time workers spent running them; their ratio
	// estimates the mean per-job service time.
	Executed    uint64
	BusySeconds float64
}

// Sampler supplies collector samples; the service engine implements it.
type Sampler interface {
	AdmissionSample() Snapshot
}

// Actuator applies the optimizer's worker target; the engine's adaptive pool
// implements it (clamping again defensively).
type Actuator interface {
	SetWorkerTarget(n int)
}

// Decision is the Admit verdict for one submission.
type Decision struct {
	Admit bool
	// RetryAfter is the advised client backoff when shed: the predicted
	// time for the relevant backlog to drain below the objective.
	RetryAfter time.Duration
	// Reason explains a shed for the structured 429 body.
	Reason string
}

// Tick is the observable outcome of one control period: the fitted model,
// the actuation, and the shed state. The service layer exports it as
// atomique_admission_* metrics and an admission span.
type Tick struct {
	At time.Time
	// Lambda is the smoothed arrival rate (jobs/sec) and ServiceSeconds the
	// smoothed per-job service time — the two model parameters.
	Lambda         float64
	ServiceSeconds float64
	// Utilization is busy/live at sample time.
	Utilization float64
	// InteractiveWait/BatchWait are the predicted queue waits a new
	// submission of each class would see.
	InteractiveWait, BatchWait time.Duration
	// Saturation is BatchWait over TargetQueueWait: >1 means the queue is
	// past the objective and batch is shedding.
	Saturation float64
	// Target is the actuated worker-pool target.
	Target int
	// ShedBatch/ShedInteractive are the gate states applied until the next
	// tick.
	ShedBatch, ShedInteractive bool
}

// Controller runs the control loop. Create with New, then Start; Admit is
// safe from any goroutine, including before Start (it admits everything
// until the first tick).
type Controller struct {
	cfg      Config
	sampler  Sampler
	actuator Actuator
	observer func(Tick)

	// gate is the fast-path state Admit reads: the last tick.
	gate atomic.Pointer[Tick]

	// model state, owned by the loop goroutine (and step, in tests).
	lambda   float64
	svc      float64
	lowTicks int
	target   int
	havePrev bool
	prev     Snapshot

	stop chan struct{}
	done chan struct{}
}

// New builds a controller. observer may be nil.
func New(cfg Config, s Sampler, a Actuator, observer func(Tick)) *Controller {
	cfg = cfg.withDefaults()
	return &Controller{
		cfg:      cfg,
		sampler:  s,
		actuator: a,
		observer: observer,
		svc:      cfg.DefaultServiceSeconds,
		target:   cfg.MinWorkers,
		stop:     make(chan struct{}),
		done:     make(chan struct{}),
	}
}

// Start launches the control loop goroutine. A disabled controller starts
// nothing and Stop remains safe to call.
func (c *Controller) Start() {
	if !c.cfg.Enabled {
		close(c.done)
		return
	}
	go c.loop()
}

// Stop halts the loop and waits for it to exit. Idempotent via the service
// layer calling it once from Close.
func (c *Controller) Stop() {
	select {
	case <-c.done:
		return
	default:
	}
	close(c.stop)
	<-c.done
}

// Admit decides whether a fail-fast submission of the given class may enter
// the queue. One atomic load; never blocks.
func (c *Controller) Admit(p Priority) Decision {
	t := c.gate.Load()
	if t == nil {
		return Decision{Admit: true}
	}
	switch {
	case p == Batch && t.ShedBatch:
		return Decision{RetryAfter: retryAfter(t.BatchWait, c.cfg.Interval),
			Reason: "admission: predicted batch queue wait " + t.BatchWait.Round(time.Millisecond).String() +
				" exceeds objective " + c.cfg.TargetQueueWait.String()}
	case p == Interactive && t.ShedInteractive:
		return Decision{RetryAfter: retryAfter(t.InteractiveWait, c.cfg.Interval),
			Reason: "admission: predicted interactive queue wait " + t.InteractiveWait.Round(time.Millisecond).String() +
				" exceeds objective " + (time.Duration(c.cfg.InteractiveSlack * float64(c.cfg.TargetQueueWait))).String()}
	}
	return Decision{Admit: true}
}

// Last returns the most recent tick (zero Tick before the first).
func (c *Controller) Last() Tick {
	if t := c.gate.Load(); t != nil {
		return *t
	}
	return Tick{}
}

func retryAfter(wait, floor time.Duration) time.Duration {
	if wait < floor {
		return floor
	}
	return wait
}

func (c *Controller) loop() {
	defer close(c.done)
	ticker := time.NewTicker(c.cfg.Interval)
	defer ticker.Stop()
	for {
		select {
		case <-c.stop:
			return
		case <-ticker.C:
			tick := c.step(c.sampler.AdmissionSample())
			c.actuator.SetWorkerTarget(tick.Target)
			// Observe before the gate takes effect, so a submission this
			// tick sheds finds the decision already recorded.
			if c.observer != nil {
				c.observer(tick)
			}
			c.gate.Store(&tick)
		}
	}
}

// step runs one collect → optimize cycle over a fresh sample and returns the
// tick to actuate. It owns the EWMA model state; tests drive it directly
// with synthetic snapshots.
func (c *Controller) step(s Snapshot) Tick {
	cfg := c.cfg
	// Collect: difference against the previous sample to recover rates.
	if !c.havePrev {
		c.havePrev = true
		c.prev = s
		c.target = clampInt(s.Target, cfg.MinWorkers, cfg.MaxWorkers)
		return c.render(s)
	}
	dt := s.Time.Sub(c.prev.Time).Seconds()
	if dt <= 0 {
		return c.render(s)
	}
	alpha := cfg.EWMAAlpha
	instLambda := float64(s.Admitted-c.prev.Admitted) / dt
	c.lambda += alpha * (instLambda - c.lambda)
	if dExec := s.Executed - c.prev.Executed; dExec > 0 {
		instSvc := (s.BusySeconds - c.prev.BusySeconds) / float64(dExec)
		if instSvc > 0 {
			c.svc += alpha * (instSvc - c.svc)
		}
	}
	c.prev = s

	// Optimize: steady-state demand λ·s with headroom, plus a drain term
	// sizing the pool to clear the current backlog within the objective,
	// plus a step-up nudge when every worker is busy and jobs still queue
	// (the model can under-estimate during the first burst samples).
	depth := s.InteractiveDepth + s.BatchDepth
	need := c.lambda * c.svc * cfg.Headroom
	if drain := float64(depth) * c.svc / cfg.TargetQueueWait.Seconds(); drain > need {
		need = drain
	}
	if depth > 0 && s.Busy >= s.Live && float64(s.Live+1) > need {
		need = float64(s.Live + 1)
	}
	want := clampInt(int(math.Ceil(need)), cfg.MinWorkers, cfg.MaxWorkers)
	switch {
	case want > c.target:
		c.target = want
		c.lowTicks = 0
	case want < c.target:
		// Damped scale-down: only after ScaleDownTicks consecutive periods
		// agree, so a lull between bursts does not thrash the pool.
		if c.lowTicks++; c.lowTicks >= cfg.ScaleDownTicks {
			c.target = want
			c.lowTicks = 0
		}
	default:
		c.lowTicks = 0
	}
	return c.render(s)
}

// render derives the tick (predicted waits, shed state) from the model and
// the sample.
func (c *Controller) render(s Snapshot) Tick {
	cfg := c.cfg
	live := s.Live
	if live < 1 {
		live = 1
	}
	// Interactive jobs overtake the batch queue, so their predicted wait
	// sees only the interactive backlog; batch arrivals wait behind both.
	intWait := time.Duration(float64(s.InteractiveDepth) * c.svc / float64(live) * float64(time.Second))
	batchWait := time.Duration(float64(s.InteractiveDepth+s.BatchDepth) * c.svc / float64(live) * float64(time.Second))
	t := Tick{
		At:              s.Time,
		Lambda:          c.lambda,
		ServiceSeconds:  c.svc,
		Utilization:     float64(s.Busy) / float64(live),
		InteractiveWait: intWait,
		BatchWait:       batchWait,
		Saturation:      float64(batchWait) / float64(cfg.TargetQueueWait),
		Target:          c.target,
		ShedBatch:       batchWait > cfg.TargetQueueWait,
		ShedInteractive: intWait > time.Duration(cfg.InteractiveSlack*float64(cfg.TargetQueueWait)) ||
			(s.QueueCapacity > 0 && s.InteractiveDepth >= s.QueueCapacity),
	}
	return t
}

func clampInt(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}
