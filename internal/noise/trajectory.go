package noise

import (
	"context"
	"fmt"
	"math"
	"math/bits"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"atomique/internal/circuit"
	"atomique/internal/obs"
	"atomique/internal/stab"
)

// MaxQubits bounds the witness width the dense trajectory engine will
// replay — the O(2^n) fallback for non-Clifford witnesses.
const MaxQubits = 22

// MaxStabQubits bounds the stabilizer trajectory engine. Tableau memory and
// per-gate cost grow only quadratically, so this is a service-sanity cap at
// paper-scale widths, far above the dense wall.
const MaxStabQubits = 1024

// Trajectory engine names, as accepted by Run.Engine and the service's
// engine request field.
const (
	// EngineAuto (or empty) dispatches Clifford witnesses to the stabilizer
	// engine and everything else to the dense fallback.
	EngineAuto = "auto"
	// EngineDense forces the dense state-vector replay (≤ MaxQubits).
	EngineDense = "dense"
	// EngineStab forces the stabilizer tableau replay; the witness must be
	// Clifford-only or Simulate returns a *stab.NonCliffordError.
	EngineStab = "stab"
)

// Dispatch is the engine-dispatch rule of every trajectory run — Simulate,
// Sample, and the compile service's pre-compile request check. It resolves
// the requested engine (EngineAuto or "", EngineDense, EngineStab) for a
// register of slots qubits running gates: auto picks the stabilizer engine
// when every gate is Clifford and the dense engine otherwise. The width must
// fit the chosen engine's cap, and pinning EngineStab on a stream with a
// non-Clifford gate returns an error wrapping *stab.NonCliffordError.
func Dispatch(requested string, slots int, gates []circuit.Gate) (string, error) {
	engine := requested
	switch requested {
	case EngineDense, EngineStab:
	case "", EngineAuto:
		engine = EngineDense
		if circuit.AllClifford(gates) {
			engine = EngineStab
		}
	default:
		return "", fmt.Errorf("unknown engine %q (want %s, %s, or %s)", requested, EngineAuto, EngineDense, EngineStab)
	}
	switch {
	case slots <= 0:
		return "", fmt.Errorf("witness register %d slots wide; want at least 1", slots)
	case engine == EngineDense && slots > MaxQubits:
		return "", fmt.Errorf("witness register %d slots wide; the dense trajectory engine handles 1..%d (Clifford witnesses dispatch to engine=stab)", slots, MaxQubits)
	case engine == EngineStab && slots > MaxStabQubits:
		return "", fmt.Errorf("witness register %d slots wide; the stabilizer trajectory engine handles 1..%d", slots, MaxStabQubits)
	}
	if requested == EngineStab {
		for i, g := range gates {
			if !circuit.IsCliffordGate(g) {
				return "", fmt.Errorf("engine=%s: %w", EngineStab, &stab.NonCliffordError{Gate: g, Index: i})
			}
		}
	}
	return engine, nil
}

// CheckShots validates a trajectory shot range [offset, offset+shots): at
// least one shot, a non-negative offset, and an end inside MaxShotIndex.
func CheckShots(shots int, offset int64) error {
	switch {
	case shots <= 0:
		return fmt.Errorf("shots must be positive, got %d", shots)
	case offset < 0:
		return fmt.Errorf("shot offset must be non-negative, got %d", offset)
	case offset > MaxShotIndex-int64(shots):
		return fmt.Errorf("shot range [%d, %d) exceeds the global index cap 2^40", offset, offset+int64(shots))
	}
	return nil
}

// Witness is the executable gate stream a compilation produced — a mirror of
// compiler.Program's simulation-relevant fields, redeclared here so the
// compiler package can depend on noise without a cycle.
type Witness struct {
	// NSlots is the physical register width the gates act on.
	NSlots int
	// Gates is the stream in execution order; slots are in [0, NSlots).
	Gates []circuit.Gate
}

// CheckSlots reports the first gate that addresses a slot outside
// [0, NSlots).
func (w Witness) CheckSlots() error {
	for i, g := range w.Gates {
		if g.Q0 < 0 || g.Q0 >= w.NSlots || (g.IsTwoQubit() && (g.Q1 < 0 || g.Q1 >= w.NSlots)) {
			return fmt.Errorf("witness gate %d (%v) addresses a slot outside [0,%d)", i, g, w.NSlots)
		}
	}
	return nil
}

// Run configures one trajectory simulation.
type Run struct {
	// Shots is the trajectory count (required, > 0).
	Shots int
	// Seed drives every random draw. Shot i derives its own generator from
	// (Seed, i), so results are reproducible and independent of Workers.
	Seed int64
	// Workers is the parallel shot-executor count (0 = GOMAXPROCS).
	Workers int
	// Engine selects the replay engine: EngineAuto (or ""), EngineDense, or
	// EngineStab. Auto dispatches Clifford witnesses to the stabilizer
	// tableau — which handles hundreds to thousands of qubits — and falls
	// back to the dense state vector otherwise.
	Engine string
}

// ChannelReport is one channel's sampled-event tally in an Estimate.
type ChannelReport struct {
	Label  string  `json:"label"`
	Prob   float64 `json:"prob"`
	Trials int     `json:"trials"`
	Events int64   `json:"events"`
}

// Estimate is the empirical outcome of a trajectory run. It is deterministic
// per (model, witness, shots, seed) regardless of worker count, which is
// what lets the compile service cache noisy results content-addressed.
type Estimate struct {
	Shots int   `json:"shots"`
	Seed  int64 `json:"seed"`
	// Engine is the replay engine that scored the trajectories ("dense" or
	// "stab"), after auto-dispatch resolution.
	Engine string `json:"engine,omitempty"`
	// Fidelity is the mean trajectory overlap |<ideal|traj>|^2 with the
	// noise-free execution of the same witness.
	Fidelity float64 `json:"fidelity"`
	// StdErr is the standard error of Fidelity; CILow/CIHigh bound the 95%
	// confidence interval.
	StdErr float64 `json:"stdErr"`
	CILow  float64 `json:"ciLow"`
	CIHigh float64 `json:"ciHigh"`
	// Survival is the error-free trajectory fraction — the unbiased
	// estimator of the analytic fidelity product.
	Survival float64 `json:"survival"`
	// Analytic is the model's closed-form no-error probability, the
	// reference Survival converges to (and, for backends with a fidelity
	// model, the compiler's reported FidelityTotal).
	Analytic float64 `json:"analytic"`
	// LostShots counts trajectories destroyed by an atom-loss event;
	// ErrorShots counts trajectories with at least one sampled event.
	LostShots  int `json:"lostShots"`
	ErrorShots int `json:"errorShots"`
	// Channels tallies sampled events per channel, in model order.
	Channels []ChannelReport `json:"channels,omitempty"`
}

// SurvivalSigma returns the one-sigma binomial half-width of the Survival
// estimator around the analytic prediction — the yardstick the validation
// suite measures empirical-vs-analytic agreement with.
func (e *Estimate) SurvivalSigma() float64 {
	a := e.Analytic
	return math.Sqrt(a * (1 - a) / float64(e.Shots))
}

// rng is splitmix64: tiny, allocation-free, and statistically ample for
// event sampling. Each shot gets an independent stream.
type rng struct{ s uint64 }

// mix64 is the splitmix64 finalizer (a bijective avalanche).
func mix64(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// shotRNG derives shot i's generator from (seed, i). The initial state runs
// through the finalizer twice so consecutive shots land at unrelated points
// of the splitmix sequence — a plain affine state (seed ^ (shot+c)*gamma)
// would make shot i+1's stream a one-draw shift of shot i's, correlating
// adjacent shots and invalidating the i.i.d. assumption behind the
// confidence intervals.
func shotRNG(seed int64, shot int64) rng {
	return rng{s: mix64(uint64(seed) ^ mix64(uint64(shot)+0x632be59bd9b4e019))}
}

func (r *rng) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	return mix64(r.s)
}

// open01 returns a uniform float in (0, 1].
func (r *rng) open01() float64 {
	return (float64(r.next()>>11) + 1) / (1 << 53)
}

// intn returns a uniform int in [0, n) by Lemire's multiply-shift rejection
// sampling — exactly unbiased, one multiply in the common case. The old
// next()%n was biased by < n/2^64: invisible in survival statistics, but
// product-visible now that sampled bitstrings ship to clients. Rejection
// draws an extra word with probability < n/2^64, and event placement feeds no
// golden (survival and event tallies depend only on the open01 stream, which
// is untouched), so no regress entries needed re-goldening.
func (r *rng) intn(n int) int {
	un := uint64(n)
	hi, lo := bits.Mul64(r.next(), un)
	if lo < un {
		thresh := -un % un
		for lo < thresh {
			hi, lo = bits.Mul64(r.next(), un)
		}
	}
	return int(hi)
}

// event is one sampled error, applied after pos gates of the stream.
type event struct {
	pos    int
	site   int // gate index the event is attached to, or -1 when free-floating
	kind   Kind
	q0, q1 int
	pauli  int // 1..3 for 1Q (X,Y,Z); 1..15 encoding a Pauli pair for 2Q
}

// chunkShots is the work-unit size of the parallel shot loop. Chunk
// boundaries are fixed by shot index, so partial sums reduce in the same
// order whatever the worker count — keeping Estimate deterministic.
const chunkShots = 256

// plan is a validated trajectory run, shared read-only by its workers: the
// resolved engine, the replayer holding its noise-free reference, and the
// error-site tables gate-attached events pick from.
type plan struct {
	mo        Model
	w         Witness
	engine    string
	ref       replayer
	oneQSites []int
	twoQSites []int
	sampling  bool
	shots     int
	offset    int64
	workers   int
}

// prepare is the one argument-check and set-up path of Simulate and Sample:
// shot range, engine dispatch with its width cap, witness slot range, then
// the noise-free reference (under a witness.replay span) and the error-site
// tables. Sampling runs also build the reference's outcome sampler.
func prepare(ctx context.Context, mo Model, w Witness, engine string, shots int, offset int64, workers int, sampling bool) (*plan, error) {
	if err := CheckShots(shots, offset); err != nil {
		return nil, fmt.Errorf("noise: %w", err)
	}
	engine, err := Dispatch(engine, w.NSlots, w.Gates)
	if err == nil {
		err = w.CheckSlots()
	}
	if err != nil {
		return nil, fmt.Errorf("noise: %w", err)
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	p := &plan{mo: mo, w: w, engine: engine, sampling: sampling, shots: shots, offset: offset, workers: workers}

	// Traced callers (the compile service) get spans for the witness replay
	// and the parallel shot loop; untraced callers pay a nil check.
	replaySpan := obs.SpanFromContext(ctx).StartChild("witness.replay")
	if engine == EngineStab {
		p.ref, err = newStabReplay(w, sampling)
	} else {
		p.ref, err = newDenseReplay(w, sampling)
	}
	if err != nil {
		return nil, err
	}
	if replaySpan != nil {
		replaySpan.SetAttr("slots", strconv.Itoa(w.NSlots))
		replaySpan.SetAttr("gates", strconv.Itoa(len(w.Gates)))
		replaySpan.SetAttr("engine", engine)
		replaySpan.End()
	}

	// Error-site tables: gate-attached events pick a uniform site of their
	// kind in the witness stream.
	for i, g := range w.Gates {
		if g.IsTwoQubit() {
			p.twoQSites = append(p.twoQSites, i)
		} else {
			p.oneQSites = append(p.oneQSites, i)
		}
	}
	return p, nil
}

func (p *plan) chunks() int { return (p.shots + chunkShots - 1) / chunkShots }

// drive is the chunk driver of Simulate and Sample. Workers claim
// chunkShots-shot chunks in index order and run each through do(sh, c, lo,
// hi) on their own shotSim, for the run's local shots [lo, hi); callers keep
// one partial per chunk and reduce them in chunk order, so results do not
// depend on the worker count. A cancelled ctx stops the workers at the next
// chunk. The loop runs under a noise.trajectory (noise.sample) span with one
// "chunk" child per chunk, recorded from the workers (obs spans are
// concurrency-safe) and capped by the span's child limit.
//
// When flush is non-nil the calling goroutine hands it every finished chunk
// in chunk order, and worker look-ahead past the flush cursor is bounded so
// buffered chunks stay O(workers) however slow the consumer: a worker
// surrenders a ticket per chunk it claims, and each flushed chunk returns
// one. A flush error stops the run.
func (p *plan) drive(ctx context.Context, do func(sh *shotSim, c, lo, hi int), flush func(c int) error) error {
	name, verb := "noise.trajectory", "simulation"
	if p.sampling {
		name, verb = "noise.sample", "sampling"
	}
	numChunks := p.chunks()
	span := obs.SpanFromContext(ctx).StartChild(name)
	if span != nil {
		span.SetAttr("shots", strconv.Itoa(p.shots))
		span.SetAttr("chunks", strconv.Itoa(numChunks))
		span.SetAttr("workers", strconv.Itoa(p.workers))
		span.SetAttr("engine", p.engine)
		if p.sampling {
			span.SetAttr("offset", strconv.FormatInt(p.offset, 10))
			span.SetAttr("stream", strconv.FormatBool(flush != nil))
		}
	}

	var done []chan struct{}
	var tickets chan struct{}
	if flush != nil {
		done = make([]chan struct{}, numChunks)
		for c := range done {
			done[c] = make(chan struct{})
		}
		tickets = make(chan struct{}, p.workers*4)
		for i := 0; i < cap(tickets); i++ {
			tickets <- struct{}{}
		}
	}
	var nextChunk atomic.Int64
	var cancelled atomic.Bool
	var wg sync.WaitGroup
	for wk := 0; wk < p.workers; wk++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sh := p.newShotSim()
			for {
				if tickets != nil {
					<-tickets // closed once the flush loop is over
				}
				c := int(nextChunk.Add(1) - 1)
				if c >= numChunks || cancelled.Load() || ctx.Err() != nil {
					return
				}
				lo := c * chunkShots
				hi := min(lo+chunkShots, p.shots)
				chunkStart := time.Now()
				do(sh, c, lo, hi)
				if done != nil {
					close(done[c])
				}
				if span != nil {
					if cs := span.Record("chunk", chunkStart, time.Since(chunkStart)); cs != nil {
						cs.SetAttr("shots", fmt.Sprintf("%d..%d", p.offset+int64(lo), p.offset+int64(hi-1)))
					}
				}
			}
		}()
	}

	var flushErr error
	if flush != nil {
		for c := 0; c < numChunks && flushErr == nil && ctx.Err() == nil; c++ {
			select {
			case <-done[c]:
				if flushErr = flush(c); flushErr != nil {
					cancelled.Store(true)
				}
				tickets <- struct{}{}
			case <-ctx.Done(): // the workers stop without finishing chunk c
			}
		}
		close(tickets)
	}
	wg.Wait()
	span.End()
	if err := ctx.Err(); err != nil {
		return fmt.Errorf("noise: %s cancelled: %w", verb, err)
	}
	if flushErr != nil {
		return fmt.Errorf("noise: shot stream aborted: %w", flushErr)
	}
	return nil
}

// partial accumulates one chunk's statistics.
type partial struct {
	sumF, sumF2 float64
	survived    int
	lost        int
	errored     int
	events      []int64
}

// Simulate runs the Monte-Carlo trajectory estimation: Shots independent
// replays of the witness under the model's sampled error events, scored
// against the witness's noise-free output state. Shots that sample no event
// skip the replay entirely (their overlap is exactly 1), so high-fidelity
// programs execute at event-sampling speed and the shot loop stays
// embarrassingly parallel.
//
// Clifford witnesses dispatch (under EngineAuto) to the stabilizer tableau:
// sampled Pauli errors propagate as a Pauli frame and each trajectory scores
// 0 or 1 by a stabilizer syndrome check, in O(n) per gate instead of O(2^n).
// Both engines consume the identical per-shot random stream, so Survival,
// event tallies — and, for Clifford witnesses, Fidelity — agree across
// engines; results remain deterministic per (model, witness, shots, seed,
// engine) whatever the worker count.
func Simulate(ctx context.Context, mo Model, w Witness, run Run) (*Estimate, error) {
	p, err := prepare(ctx, mo, w, run.Engine, run.Shots, 0, run.Workers, false)
	if err != nil {
		return nil, err
	}
	partials := make([]partial, p.chunks())
	err = p.drive(ctx, func(sh *shotSim, c, lo, hi int) {
		pt := &partials[c]
		pt.events = make([]int64, len(mo.Channels))
		for shot := lo; shot < hi; shot++ {
			sh.run(run.Seed, int64(shot), pt)
		}
	}, nil)
	if err != nil {
		return nil, err
	}

	// Deterministic reduction in chunk order.
	var tot partial
	tot.events = make([]int64, len(mo.Channels))
	for i := range partials {
		pt := &partials[i]
		tot.sumF += pt.sumF
		tot.sumF2 += pt.sumF2
		tot.survived += pt.survived
		tot.lost += pt.lost
		tot.errored += pt.errored
		for j, n := range pt.events {
			tot.events[j] += n
		}
	}

	n := float64(run.Shots)
	mean := tot.sumF / n
	variance := 0.0
	if run.Shots > 1 {
		variance = (tot.sumF2 - tot.sumF*tot.sumF/n) / (n - 1)
		if variance < 0 {
			variance = 0
		}
	}
	stderr := math.Sqrt(variance / n)
	est := &Estimate{
		Shots:      run.Shots,
		Seed:       run.Seed,
		Engine:     p.engine,
		Fidelity:   mean,
		StdErr:     stderr,
		CILow:      clamp01(mean - 1.96*stderr),
		CIHigh:     clamp01(mean + 1.96*stderr),
		Survival:   float64(tot.survived) / n,
		Analytic:   mo.Analytic(),
		LostShots:  tot.lost,
		ErrorShots: tot.errored,
	}
	for i, c := range mo.Channels {
		est.Channels = append(est.Channels, ChannelReport{
			Label: c.Label, Prob: c.Prob, Trials: c.Trials, Events: tot.events[i],
		})
	}
	return est, nil
}

// shotSim is one worker's reusable trajectory state: the per-shot event
// draw over the plan's channels and error sites, and a worker-private fork
// of the plan's replayer.
type shotSim struct {
	*plan
	rep    replayer
	events []event
	keyBuf []byte // rendered bitstring scratch, one byte per slot (sampling)
}

func (p *plan) newShotSim() *shotSim {
	s := &shotSim{plan: p, rep: p.ref.fork()}
	if p.sampling {
		s.keyBuf = make([]byte, p.w.NSlots)
	}
	return s
}

// draw is the per-shot event draw of both entry points: it samples shot's
// error events channel by channel into s.events and reports whether an
// atom-loss event destroyed the register, adding per-channel hit counts into
// hits when non-nil. The returned generator continues the shot's stream
// after the event draws, which is where measurement draws come from.
func (s *shotSim) draw(seed, shot int64, hits []int64) (r rng, lost bool) {
	r = shotRNG(seed, shot)
	s.events = s.events[:0]
	for ci := range s.mo.Channels {
		c := &s.mo.Channels[ci]
		n := s.sampleChannel(&r, c)
		if n == 0 {
			continue
		}
		if hits != nil {
			hits[ci] += int64(n)
		}
		if c.Kind == Loss {
			lost = true
		}
	}
	return r, lost
}

// run executes one trajectory and folds its outcome into pt.
func (s *shotSim) run(seed int64, shot int64, pt *partial) {
	_, lost := s.draw(seed, shot, pt.events)
	switch {
	case lost:
		pt.lost++
		pt.errored++ // overlap 0: the register lost an atom
	case len(s.events) == 0:
		pt.survived++
		pt.sumF++
		pt.sumF2++
	default:
		pt.errored++
		f := s.rep.score(s.events)
		pt.sumF += f
		pt.sumF2 += f * f
	}
}

// sampleChannel draws the channel's Binomial(trials, p) error events via
// geometric gap-skipping — O(expected hits), not O(trials) — and records
// each event's placement. It returns the hit count.
func (s *shotSim) sampleChannel(r *rng, c *Channel) int {
	hits := 0
	emit := func() {
		hits++
		if c.Kind == Loss {
			return // placement irrelevant: the shot scores zero
		}
		s.events = append(s.events, s.placeEvent(r, c))
	}
	if c.Prob >= 1 {
		for t := 0; t < c.Trials; t++ {
			emit()
		}
		return hits
	}
	logq := math.Log1p(-c.Prob)
	pos := -1
	for {
		skip := int(math.Log(r.open01()) / logq)
		pos += 1 + skip
		if pos >= c.Trials || pos < 0 { // pos < 0 guards int overflow on tiny p
			return hits
		}
		emit()
	}
}

// placeEvent localises one sampled error in the witness stream.
func (s *shotSim) placeEvent(r *rng, c *Channel) event {
	switch c.Kind {
	case Pauli1Q:
		if len(s.oneQSites) > 0 {
			gi := s.oneQSites[r.intn(len(s.oneQSites))]
			return event{pos: gi + 1, site: gi, kind: Pauli1Q, q0: s.w.Gates[gi].Q0, pauli: 1 + r.intn(3)}
		}
		// The analytic model counted 1Q gates the witness does not carry
		// individually; fall back to a random qubit at a random point.
		return event{pos: r.intn(len(s.w.Gates) + 1), site: -1, kind: Pauli1Q, q0: r.intn(s.w.NSlots), pauli: 1 + r.intn(3)}
	case Pauli2Q:
		if len(s.twoQSites) > 0 {
			gi := s.twoQSites[r.intn(len(s.twoQSites))]
			g := s.w.Gates[gi]
			return event{pos: gi + 1, site: gi, kind: Pauli2Q, q0: g.Q0, q1: g.Q1, pauli: 1 + r.intn(15)}
		}
		q0 := r.intn(s.w.NSlots)
		q1 := q0
		if s.w.NSlots > 1 {
			q1 = (q0 + 1 + r.intn(s.w.NSlots-1)) % s.w.NSlots
		}
		return event{pos: r.intn(len(s.w.Gates) + 1), site: -1, kind: Pauli2Q, q0: q0, q1: q1, pauli: 1 + r.intn(15)}
	default: // Dephase
		return event{pos: r.intn(len(s.w.Gates) + 1), site: -1, kind: Dephase, q0: r.intn(s.w.NSlots), pauli: 3}
	}
}
