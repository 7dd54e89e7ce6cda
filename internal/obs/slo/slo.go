// Package slo is the burn-rate engine: declarative service-level objectives
// per request class, evaluated periodically from the service's own counters
// and histograms with the multi-window, multi-burn-rate rules of the SRE
// workbook. A "page" fires only when both a short and a long window burn the
// error budget faster than the page threshold — the short window makes the
// alert fast, the long window keeps a single bad second from paging — and a
// slower pair of windows drives the "warn" state. The engine is
// pull-only: it samples cumulative (good, total) pairs, so it needs no hooks
// in the request path.
package slo

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"sync"
	"time"

	"atomique/internal/obs"
)

// Rule is one multi-window burn-rate rule: both windows must burn faster
// than Burn for the rule to fire.
type Rule struct {
	ShortSeconds float64 `json:"shortSeconds"`
	LongSeconds  float64 `json:"longSeconds"`
	Burn         float64 `json:"burn"`
}

// DefaultPageRule is the fast pair: 5m/1h at 14.4x burn — a full 30-day
// budget gone in ~2 days.
func DefaultPageRule() Rule { return Rule{ShortSeconds: 300, LongSeconds: 3600, Burn: 14.4} }

// DefaultWarnRule is the slow pair: 30m/6h at 6x burn — budget gone in ~5
// days.
func DefaultWarnRule() Rule { return Rule{ShortSeconds: 1800, LongSeconds: 21600, Burn: 6} }

// Objective is one declarative SLO. LatencySeconds == 0 declares an
// availability objective (good = non-error outcomes); > 0 declares a
// latency-attainment objective (good = requests finishing within the
// threshold). Target is the good/total fraction promised (e.g. 0.999).
type Objective struct {
	Name           string  `json:"name"`
	Class          string  `json:"class"`
	LatencySeconds float64 `json:"latencySeconds,omitempty"`
	Target         float64 `json:"target"`
	Page           Rule    `json:"page,omitzero"`
	Warn           Rule    `json:"warn,omitzero"`
}

// Kind names the objective flavour for status payloads.
func (o Objective) Kind() string {
	if o.LatencySeconds > 0 {
		return "latency"
	}
	return "availability"
}

// Config is the engine's declarative input, JSON-loadable via -slo-config.
type Config struct {
	// IntervalSeconds is the sampling/evaluation period (default 10s).
	IntervalSeconds float64     `json:"intervalSeconds,omitempty"`
	Objectives      []Objective `json:"objectives"`
}

// DefaultConfig declares, for each request class, an availability objective
// and a latency objective at that class's expected threshold. The latency
// thresholds sit on histogram bucket bounds (the engine counts good requests
// via bucket sums).
func DefaultConfig(classes []string) Config {
	cfg := Config{IntervalSeconds: 10}
	for _, c := range classes {
		cfg.Objectives = append(cfg.Objectives,
			Objective{Name: c + "-availability", Class: c, Target: 0.999},
			Objective{Name: c + "-latency", Class: c, LatencySeconds: defaultLatencyThreshold(c), Target: 0.99},
		)
	}
	return cfg
}

// defaultLatencyThreshold picks a per-class threshold on a power-of-two
// bucket bound: compiles are interactive (~tens of ms), simulate and sample
// jobs run shots and get a second-scale budget.
func defaultLatencyThreshold(class string) float64 {
	switch class {
	case "compile":
		return 0.262144 // 2^18 us
	default:
		return 2.097152 // 2^21 us
	}
}

// Normalize fills rule/interval defaults and validates; it is called by New
// and by config loading.
func (c *Config) Normalize() error {
	if c.IntervalSeconds <= 0 {
		c.IntervalSeconds = 10
	}
	seen := map[string]bool{}
	for i := range c.Objectives {
		o := &c.Objectives[i]
		if o.Name == "" {
			return fmt.Errorf("slo: objective %d has no name", i)
		}
		if seen[o.Name] {
			return fmt.Errorf("slo: duplicate objective name %q", o.Name)
		}
		seen[o.Name] = true
		if o.Target <= 0 || o.Target >= 1 {
			return fmt.Errorf("slo: objective %s: target must be in (0,1), got %v", o.Name, o.Target)
		}
		if o.LatencySeconds < 0 {
			return fmt.Errorf("slo: objective %s: negative latency threshold", o.Name)
		}
		if o.Page == (Rule{}) {
			o.Page = DefaultPageRule()
		}
		if o.Warn == (Rule{}) {
			o.Warn = DefaultWarnRule()
		}
		for _, r := range []Rule{o.Page, o.Warn} {
			if r.ShortSeconds <= 0 || r.LongSeconds < r.ShortSeconds || r.Burn <= 0 {
				return fmt.Errorf("slo: objective %s: rule needs 0 < short <= long and burn > 0", o.Name)
			}
		}
	}
	return nil
}

// ParseConfig decodes and validates a JSON config.
func ParseConfig(raw []byte) (Config, error) {
	var c Config
	if err := json.Unmarshal(raw, &c); err != nil {
		return Config{}, fmt.Errorf("slo: parse config: %w", err)
	}
	if len(c.Objectives) == 0 {
		return Config{}, fmt.Errorf("slo: config declares no objectives")
	}
	if err := c.Normalize(); err != nil {
		return Config{}, err
	}
	return c, nil
}

// LoadConfig reads a JSON config file.
func LoadConfig(path string) (Config, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return Config{}, fmt.Errorf("slo: %w", err)
	}
	return ParseConfig(raw)
}

// State is an objective's alert state.
type State int

const (
	StateOK State = iota
	StateWarn
	StatePage
)

func (s State) String() string {
	switch s {
	case StatePage:
		return "page"
	case StateWarn:
		return "warn"
	default:
		return "ok"
	}
}

// WindowBurn is one evaluated window's burn rate.
type WindowBurn struct {
	Window  string  `json:"window"` // pageShort | pageLong | warnShort | warnLong
	Seconds float64 `json:"seconds"`
	Burn    float64 `json:"burn"`
}

// ObjectiveStatus is one objective's evaluated state, served by /v1/slo and
// embedded in /v1/stats.
type ObjectiveStatus struct {
	Name           string       `json:"name"`
	Class          string       `json:"class"`
	Kind           string       `json:"kind"`
	Target         float64      `json:"target"`
	LatencySeconds float64      `json:"latencySeconds,omitempty"`
	State          string       `json:"state"`
	Since          time.Time    `json:"since,omitzero"`
	Windows        []WindowBurn `json:"windows"`
	// BudgetRemaining is the fraction of the error budget left over the warn
	// rule's long window (1 = untouched, <= 0 = exhausted).
	BudgetRemaining float64 `json:"budgetRemaining"`
	Good            float64 `json:"good"`  // cumulative good count at last sample
	Total           float64 `json:"total"` // cumulative total count at last sample
}

// Event announces a state transition; the service wires it to the flight
// recorder (a transition into page captures a bundle).
type Event struct {
	Objective string
	Class     string
	From, To  State
	At        time.Time
	Reason    string
}

// TotalsFunc returns an objective's cumulative (good, total) counts — for
// availability, successful vs. all finished requests of the class; for
// latency, requests under the threshold vs. all observed.
type TotalsFunc func(o Objective) (good, total float64)

// sample is one periodic cumulative observation.
type sample struct {
	at          time.Time
	good, total float64
}

// objectiveState is the engine's per-objective ring of samples plus the
// current evaluation.
type objectiveState struct {
	obj     Objective
	ring    []sample
	n       int // ring fill
	next    int
	status  ObjectiveStatus
	current State
	since   time.Time
}

// Engine evaluates a Config against a TotalsFunc on a fixed interval.
type Engine struct {
	cfg    Config
	totals TotalsFunc
	clock  func() time.Time
	onEv   func(Event)

	mu   sync.Mutex
	objs []*objectiveState

	stop chan struct{}
	done chan struct{}
}

// Option configures an Engine.
type Option func(*Engine)

// WithClock injects a clock — deterministic tests drive the engine through
// hours of burn without wall-clock sleeps.
func WithClock(fn func() time.Time) Option { return func(e *Engine) { e.clock = fn } }

// WithOnEvent installs a state-transition callback, invoked synchronously
// from Tick after the engine lock is released; keep it fast (the service
// hands it to the flight recorder, whose Trigger returns immediately).
func WithOnEvent(fn func(Event)) Option { return func(e *Engine) { e.onEv = fn } }

// New builds an engine. cfg must already be normalized via ParseConfig /
// DefaultConfig (New normalizes again defensively and panics on an invalid
// config — a programming error, since loaders validate first).
func New(cfg Config, totals TotalsFunc, opts ...Option) *Engine {
	if err := cfg.Normalize(); err != nil {
		panic(err)
	}
	e := &Engine{cfg: cfg, totals: totals, clock: time.Now,
		stop: make(chan struct{}), done: make(chan struct{})}
	for _, opt := range opts {
		opt(e)
	}
	for _, o := range cfg.Objectives {
		maxWin := math.Max(o.Page.LongSeconds, o.Warn.LongSeconds)
		n := int(maxWin/cfg.IntervalSeconds) + 2
		if n > 4096 {
			n = 4096 // ~11h of 10s samples; longer windows clamp to available data
		}
		st := &objectiveState{obj: o, ring: make([]sample, n)}
		st.status = ObjectiveStatus{Name: o.Name, Class: o.Class, Kind: o.Kind(),
			Target: o.Target, LatencySeconds: o.LatencySeconds, State: StateOK.String(),
			BudgetRemaining: 1}
		e.objs = append(e.objs, st)
	}
	return e
}

// Start takes one sample before it returns — the baseline every window
// measures traffic against — then evaluates every interval until Stop.
func (e *Engine) Start() {
	e.Tick()
	go func() {
		defer close(e.done)
		t := time.NewTicker(time.Duration(e.cfg.IntervalSeconds * float64(time.Second)))
		defer t.Stop()
		for {
			select {
			case <-e.stop:
				return
			case <-t.C:
				e.Tick()
			}
		}
	}()
}

// Stop halts the evaluation loop (idempotent is not needed; call once).
func (e *Engine) Stop() {
	close(e.stop)
	<-e.done
}

// Tick takes one sample per objective and re-evaluates. Exported so tests
// (and the Start loop) drive evaluation explicitly.
func (e *Engine) Tick() {
	now := e.clock()
	var events []Event
	e.mu.Lock()
	for _, st := range e.objs {
		good, total := e.totals(st.obj)
		st.ring[st.next] = sample{at: now, good: good, total: total}
		st.next = (st.next + 1) % len(st.ring)
		if st.n < len(st.ring) {
			st.n++
		}
		ev, changed := e.evaluate(st, now)
		if changed {
			events = append(events, ev)
		}
	}
	e.mu.Unlock()
	if e.onEv != nil {
		for _, ev := range events {
			e.onEv(ev)
		}
	}
}

// evaluate recomputes one objective's burn rates and state. Caller holds
// e.mu.
func (e *Engine) evaluate(st *objectiveState, now time.Time) (Event, bool) {
	latest := st.ring[(st.next-1+len(st.ring))%len(st.ring)]
	budget := 1 - st.obj.Target
	windows := []struct {
		name    string
		seconds float64
		burn    float64 // rule threshold
	}{
		{"pageShort", st.obj.Page.ShortSeconds, st.obj.Page.Burn},
		{"pageLong", st.obj.Page.LongSeconds, st.obj.Page.Burn},
		{"warnShort", st.obj.Warn.ShortSeconds, st.obj.Warn.Burn},
		{"warnLong", st.obj.Warn.LongSeconds, st.obj.Warn.Burn},
	}
	burns := make([]WindowBurn, len(windows))
	fired := make([]bool, len(windows))
	for i, w := range windows {
		b := st.burnOver(now, w.seconds, budget, latest)
		burns[i] = WindowBurn{Window: w.name, Seconds: w.seconds, Burn: b}
		fired[i] = b >= w.burn
	}
	next := StateOK
	switch {
	case fired[0] && fired[1]:
		next = StatePage
	case fired[2] && fired[3]:
		next = StateWarn
	}
	// Budget remaining over the warn long window: how much of the error
	// budget the recent past has consumed.
	warnLongBurn := burns[3].Burn
	remaining := 1 - warnLongBurn*math.Min(1, ageSeconds(st, now)/st.obj.Warn.LongSeconds)
	changed := next != st.current
	if changed || st.since.IsZero() {
		st.since = now
	}
	ev := Event{Objective: st.obj.Name, Class: st.obj.Class, From: st.current, To: next, At: now,
		Reason: fmt.Sprintf("pageShort=%.1fx pageLong=%.1fx warnShort=%.1fx warnLong=%.1fx (budget %.4f)",
			burns[0].Burn, burns[1].Burn, burns[2].Burn, burns[3].Burn, budget)}
	st.current = next
	st.status = ObjectiveStatus{
		Name: st.obj.Name, Class: st.obj.Class, Kind: st.obj.Kind(),
		Target: st.obj.Target, LatencySeconds: st.obj.LatencySeconds,
		State: next.String(), Since: st.since, Windows: burns,
		BudgetRemaining: remaining, Good: latest.good, Total: latest.total,
	}
	return ev, changed
}

// ageSeconds is how much history the ring actually holds. Caller holds e.mu.
func ageSeconds(st *objectiveState, now time.Time) float64 {
	if st.n == 0 {
		return 0
	}
	oldest := st.ring[(st.next-st.n+len(st.ring))%len(st.ring)]
	return now.Sub(oldest.at).Seconds()
}

// burnOver computes the burn rate over the trailing window: the error
// fraction of traffic in the window divided by the error budget. The window
// clamps to available history (a freshly booted service evaluates what it
// has, so drills and early incidents still trip). Windows with no traffic
// burn nothing.
func (st *objectiveState) burnOver(now time.Time, windowSeconds, budget float64, latest sample) float64 {
	if st.n == 0 || budget <= 0 {
		return 0
	}
	cutoff := now.Add(-time.Duration(windowSeconds * float64(time.Second)))
	// Walk backwards to the newest sample at or before the cutoff; fall back
	// to the oldest held sample (window clamp).
	base := st.ring[(st.next-st.n+len(st.ring))%len(st.ring)]
	for i := 1; i <= st.n; i++ {
		s := st.ring[(st.next-i+len(st.ring))%len(st.ring)]
		if !s.at.After(cutoff) {
			base = s
			break
		}
	}
	dTotal := latest.total - base.total
	if dTotal <= 0 {
		return 0
	}
	dBad := dTotal - (latest.good - base.good)
	errFrac := dBad / dTotal
	if errFrac < 0 {
		errFrac = 0
	}
	return errFrac / budget
}

// Status returns every objective's latest evaluation, in config order.
func (e *Engine) Status() []ObjectiveStatus {
	e.mu.Lock()
	defer e.mu.Unlock()
	out := make([]ObjectiveStatus, len(e.objs))
	for i, st := range e.objs {
		out[i] = st.status
	}
	return out
}

// WorstState returns the most severe state across objectives — the one-line
// health summary.
func (e *Engine) WorstState() State {
	e.mu.Lock()
	defer e.mu.Unlock()
	worst := StateOK
	for _, st := range e.objs {
		if st.current > worst {
			worst = st.current
		}
	}
	return worst
}

// Register exports the engine's state as atomique_slo_* metrics: per
// objective×window burn rates, the numeric alert state, and remaining error
// budget — all computed at scrape time from the last Tick.
func (e *Engine) Register(reg *obs.Registry) {
	burn := reg.GaugeFuncVec("atomique_slo_burn_rate",
		"Error-budget burn rate per objective and window (1 = exactly on budget).",
		"objective", "window")
	state := reg.GaugeFuncVec("atomique_slo_state",
		"Objective alert state: 0 ok, 1 warn, 2 page.", "objective")
	budget := reg.GaugeFuncVec("atomique_slo_error_budget_remaining",
		"Fraction of the error budget remaining over the warn long window.", "objective")
	target := reg.GaugeFuncVec("atomique_slo_target",
		"Declared objective target (good/total fraction).", "objective")
	for i, st := range e.objs {
		idx := i
		for _, w := range []string{"pageShort", "pageLong", "warnShort", "warnLong"} {
			win := w
			burn.Register(func() float64 {
				e.mu.Lock()
				defer e.mu.Unlock()
				for _, wb := range e.objs[idx].status.Windows {
					if wb.Window == win {
						return wb.Burn
					}
				}
				return 0
			}, st.obj.Name, win)
		}
		state.Register(func() float64 {
			e.mu.Lock()
			defer e.mu.Unlock()
			return float64(e.objs[idx].current)
		}, st.obj.Name)
		budget.Register(func() float64 {
			e.mu.Lock()
			defer e.mu.Unlock()
			return e.objs[idx].status.BudgetRemaining
		}, st.obj.Name)
		target.Register(func() float64 { return e.objs[idx].obj.Target }, st.obj.Name)
	}
}
