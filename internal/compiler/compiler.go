// Package compiler defines the unified multi-backend compilation API. Every
// compiler in this repository — Atomique's pass pipeline (internal/core), the
// fixed-topology SABRE baselines (internal/arch), Geyser (internal/geyser),
// Q-Pilot (internal/qpilot), and the solver references (internal/solverref) —
// is exposed as a Backend registered under a stable name, compiled against a
// validated Target device description, and reports a common Result envelope.
// The CLI (-backend), the compile service (the request "backend" field and
// GET /v1/backends), and the experiment drivers all select compilers through
// the registry, so a future backend (a ZAP-style zoned compiler, an
// Arctic-style scheduler) is a drop-in Register call.
package compiler

import (
	"context"
	"errors"
	"fmt"
	"math"
	"strings"

	"atomique/internal/circuit"
	"atomique/internal/metrics"
	"atomique/internal/noise"
)

// Backend is one registered compiler. Implementations must be safe for
// concurrent use: the service worker pool calls Compile from many goroutines.
type Backend interface {
	// Name is the stable registry key ("atomique", "geyser", ...).
	Name() string
	// Capabilities describes what the backend supports; discovery endpoints
	// and the conformance suite key off it.
	Capabilities() Capabilities
	// Compile runs the backend on circ for the target device. The zero
	// Target selects the backend's canonical device sized for the circuit.
	// Backends honour ctx cancellation at minimum on entry; long-running
	// backends also check it while compiling.
	Compile(ctx context.Context, tgt Target, circ *circuit.Circuit, opts Options) (*Result, error)
}

// Capabilities declares a backend's contract.
type Capabilities struct {
	// Description is a one-line human-readable summary.
	Description string `json:"description"`
	// FPQA: accepts KindFPQA targets (reconfigurable SLM+AOD machines).
	FPQA bool `json:"fpqa"`
	// Coupling: accepts KindCoupling targets (fixed-topology devices).
	Coupling bool `json:"coupling"`
	// Zoned: accepts KindZoned targets (storage/entangling/readout zones
	// with inter-zone shuttling).
	Zoned bool `json:"zoned"`
	// Exact: honours Options.Exact (an exponential exact solver mode).
	Exact bool `json:"exact"`
	// Budget: honours Options.BudgetSeconds (anytime wall-clock budgets,
	// reporting Result.TimedOut on exhaustion).
	Budget bool `json:"budget"`
	// Movement: the schedule physically moves atoms (movement fidelity
	// terms are populated).
	Movement bool `json:"movement"`
	// Routes: the backend routes via SWAP insertion and preserves the
	// two-qubit interaction multiset, so for circuits native to the target
	// Metrics.N2Q == input 2Q count + Metrics.AddedCNOTs.
	Routes bool `json:"routes"`
	// Deterministic: identical (target, circuit, options) inputs produce
	// identical metrics up to wall-clock timings in the backend's default
	// option configuration. Anytime modes that spend a wall-clock budget
	// exploring (e.g. solverref's Exact) are excluded: their metrics depend
	// on how far the budget reached.
	Deterministic bool `json:"deterministic"`
	// WitnessQubitFactor scales circuit width to the execution witness's
	// register width (0 = 1: the witness adds no ancilla slots on the
	// backend's canonical device). Q-Pilot's parity ladders run through one
	// flying ancilla per two compute qubits, factor 1.5. Pre-compile width
	// checks — the service's noisy-shot resolve guard — use it to reject
	// trajectory simulations that cannot fit the dense replay before any
	// compile work is spent.
	WitnessQubitFactor float64 `json:"witnessQubitFactor,omitempty"`
	// MaxQubits is the widest circuit the backend compiles, set from its
	// measured compile time and heap on its canonical device (README,
	// "Width limits"). CheckWidth enforces it before any work proportional
	// to the width.
	MaxQubits int `json:"maxQubits"`
}

// WitnessWidth predicts the execution-witness register width for an n-qubit
// circuit on the backend's canonical device. Explicit device overrides can
// still exceed it (a fixed 127-qubit heavy-hex target holds any circuit);
// post-compile checks remain the backstop for those.
func (c Capabilities) WitnessWidth(n int) int {
	f := c.WitnessQubitFactor
	if f < 1 {
		f = 1
	}
	return int(math.Ceil(float64(n) * f))
}

// Options is the backend-independent option envelope. Backends consume the
// fields they understand and ignore the rest; the zero value is every
// backend's default configuration. All fields participate in the service's
// content-addressed cache key, so they must remain JSON-serializable.
type Options struct {
	// Seed drives every randomised tie-break (all backends).
	Seed int64 `json:"seed,omitempty"`
	// Gamma is Atomique's gate-frequency decay (0 = default 0.95).
	Gamma float64 `json:"gamma,omitempty"`

	// Atomique ablation switches (Fig 21).
	SerialRouter     bool `json:"serialRouter,omitempty"`
	DenseMapper      bool `json:"denseMapper,omitempty"`
	RandomAtomMapper bool `json:"randomAtomMapper,omitempty"`

	// Atomique constraint relaxations (Fig 22).
	RelaxAddressing bool `json:"relaxAddressing,omitempty"`
	RelaxOrder      bool `json:"relaxOrder,omitempty"`
	RelaxOverlap    bool `json:"relaxOverlap,omitempty"`

	// Exact selects the exponential exact mode of solver-style backends
	// (solverref: Tan-Solver instead of Tan-IterP).
	Exact bool `json:"exact,omitempty"`
	// BudgetSeconds bounds wall-clock compile time for anytime/solver
	// backends (0 = backend default).
	BudgetSeconds float64 `json:"budgetSeconds,omitempty"`

	// NoisyShots enables Monte-Carlo trajectory noise estimation after
	// compilation (0 = off): the execution witness is replayed this many
	// times under sampled error events and the empirical fidelity rides in
	// Result.Noise. A post-compilation concern handled by AttachNoise —
	// drivers (service, CLI, experiments) invoke it; backends ignore the
	// field. Participates in the service cache key like every option, so
	// noisy and ideal results never alias.
	NoisyShots int `json:"noisyShots,omitempty"`
	// NoiseSeed seeds trajectory sampling, independently of Seed.
	NoiseSeed int64 `json:"noiseSeed,omitempty"`
	// Engine selects the trajectory simulation engine ("auto", "dense",
	// "stab"; empty = auto): auto dispatches Clifford witnesses to the
	// stabilizer engine and everything else to the dense state-vector.
	// Part of the cache key, so runs pinned to different engines never
	// alias.
	Engine string `json:"engine,omitempty"`
	// SampleBits switches the trajectory run from fidelity estimation to
	// measurement sampling: NoisyShots trajectories are measured in the
	// computational basis and the histogram rides in Result.Sample (the
	// /v1/sample product). Participates in the cache key, so sampled and
	// estimated runs never alias.
	SampleBits bool `json:"sampleBits,omitempty"`
	// ShotOffset is the global index of the first sampled shot. Per-shot RNG
	// streams derive from (NoiseSeed, global index), so disjoint shot ranges
	// tile into one histogram — sharded and resumable sampling. Each range
	// is its own cache entry.
	ShotOffset int64 `json:"shotOffset,omitempty"`
	// NoiseScale multiplies every noise-channel probability (0 = 1.0), for
	// sensitivity probing.
	NoiseScale float64 `json:"noiseScale,omitempty"`
	// Noise1Q / Noise2Q override the hardware-derived per-gate depolarizing
	// probabilities when positive.
	Noise1Q float64 `json:"noise1Q,omitempty"`
	Noise2Q float64 `json:"noise2Q,omitempty"`
}

// ApplyRelax parses a comma-separated list of constraint IDs ("1", "2", "3",
// per Fig 22) and sets the corresponding relaxation switches, mirroring
// core.Options.ApplyRelax. Unknown or duplicate IDs are rejected with an
// error naming the valid set. Empty entries (and an empty spec) are allowed.
func (o *Options) ApplyRelax(spec string) error {
	seen := [4]bool{}
	for _, r := range strings.Split(spec, ",") {
		id := strings.TrimSpace(r)
		if id == "" {
			continue
		}
		var which int
		switch id {
		case "1":
			o.RelaxAddressing = true
			which = 1
		case "2":
			o.RelaxOrder = true
			which = 2
		case "3":
			o.RelaxOverlap = true
			which = 3
		default:
			return fmt.Errorf("compiler: unknown relax constraint %q (valid IDs: 1=addressing, 2=order, 3=overlap)", id)
		}
		if seen[which] {
			return fmt.Errorf("compiler: duplicate relax constraint %q", id)
		}
		seen[which] = true
	}
	return nil
}

// Validate checks the option rules that hold for every backend and circuit;
// the engine choice depends on both, so noise.Dispatch checks it. The error
// texts name the compile service's request fields, since it returns them as
// 400s.
func (o Options) Validate() error {
	switch {
	case o.BudgetSeconds < 0:
		return errors.New("budget must be non-negative seconds")
	case o.NoisyShots < 0 || o.NoisyShots > MaxNoisyShots:
		return fmt.Errorf("shots must be in 0..%d", MaxNoisyShots)
	case o.NoiseScale < 0 || o.Noise1Q < 0 || o.Noise1Q > 1 || o.Noise2Q < 0 || o.Noise2Q > 1:
		return errors.New("noiseScale must be non-negative and noise1Q/noise2Q must be probabilities in [0,1]")
	case o.NoisyShots == 0 && (o.NoiseSeed != 0 || o.NoiseScale != 0 || o.Noise1Q != 0 || o.Noise2Q != 0 || o.Engine != ""):
		return errors.New("noise options (noiseSeed, noiseScale, noise1Q, noise2Q, engine) need shots > 0")
	case o.ShotOffset != 0 && !o.SampleBits:
		return errors.New("shotOffset applies to sampling only")
	}
	if o.SampleBits {
		if err := noise.CheckShots(o.NoisyShots, o.ShotOffset); err != nil {
			return fmt.Errorf("sample: %w", err)
		}
	}
	return nil
}

// UnsupportedError reports a request for a capability the backend does not
// declare: an option (exact, budget) or a target kind outside its
// Capabilities. Callers can surface it as a client error (the compile
// service maps it to 400) and the conformance suite asserts every backend
// returns it — rather than silently ignoring the request — which is what
// keeps the Capabilities record honest.
type UnsupportedError struct {
	// Backend is the rejecting backend's registry name.
	Backend string
	// Feature names the unsupported request ("exact mode", "compile budget",
	// "zoned target", ...).
	Feature string
}

func (e *UnsupportedError) Error() string {
	return fmt.Sprintf("%s: backend does not support %s (see Capabilities)", e.Backend, e.Feature)
}

// CheckSupport validates a compile request against a backend's declared
// capabilities: option flags the backend does not honour and target kinds it
// cannot compile are rejected with *UnsupportedError. Every built-in adapter
// calls it on entry, so a capability flag and the backend's actual behaviour
// cannot drift apart silently.
func CheckSupport(name string, caps Capabilities, tgt Target, opts Options) error {
	if opts.Exact && !caps.Exact {
		return &UnsupportedError{Backend: name, Feature: "exact mode"}
	}
	if opts.BudgetSeconds != 0 && !caps.Budget {
		return &UnsupportedError{Backend: name, Feature: "compile budgets"}
	}
	switch tgt.Kind {
	case KindFPQA:
		if !caps.FPQA {
			return &UnsupportedError{Backend: name, Feature: "fpqa targets"}
		}
	case KindCoupling:
		if !caps.Coupling {
			return &UnsupportedError{Backend: name, Feature: "coupling targets"}
		}
	case KindZoned:
		if !caps.Zoned {
			return &UnsupportedError{Backend: name, Feature: "zoned targets"}
		}
	}
	return nil
}

// CheckWidth rejects an n-qubit circuit wider than the backend's declared
// MaxQubits with *UnsupportedError. Every built-in adapter calls it on
// entry, and the compile service calls it before it builds a target.
func CheckWidth(b Backend, n int) error {
	if max := b.Capabilities().MaxQubits; n > max {
		return &UnsupportedError{Backend: b.Name(), Feature: fmt.Sprintf("%d-qubit circuits (at most %d)", n, max)}
	}
	return nil
}

// Program is a backend's compiled output as an executable witness: the flat
// gate stream over physical slots, in execution order, together with the
// final logical-to-slot placement. It is what the simulator-backed
// differential verification (internal/compiler/conformance) replays against
// the source circuit, so every backend must emit one for any compilation
// that ran to completion (TimedOut results are exempt). In-process only —
// never serialized.
type Program struct {
	// NSlots is the physical register width the gates act on.
	NSlots int
	// Gates is the executable stream; slot indices are in [0, NSlots).
	Gates []circuit.Gate
	// FinalSlot maps each logical qubit to the slot holding its state after
	// execution (routing permutes logical states among atoms).
	FinalSlot []int
}

// Result is the envelope every backend populates.
type Result struct {
	// Backend is the producing backend's registry name.
	Backend string `json:"backend"`
	// Metrics is the common evaluation record (gate counts, depth, fidelity
	// breakdown, per-pass timings where the backend runs as a pipeline).
	Metrics metrics.Compiled `json:"metrics"`
	// TimedOut reports that an anytime/solver backend exhausted its budget;
	// Metrics then carries only compile time.
	TimedOut bool `json:"timedOut,omitempty"`
	// Extra carries backend-specific scalar outputs (e.g. Geyser's block and
	// pulse counts) that have no slot in the common metrics record.
	Extra map[string]float64 `json:"extra,omitempty"`
	// Noise is the empirical fidelity estimate from Monte-Carlo trajectory
	// simulation, populated by AttachNoise when Options.NoisyShots > 0.
	Noise *noise.Estimate `json:"noise,omitempty"`
	// Sample is the measurement histogram from sampling trajectories,
	// populated instead of Noise when Options.SampleBits is set.
	Sample *noise.SampleResult `json:"sample,omitempty"`
	// Program is the compiled execution witness the differential
	// verification replays (nil only when TimedOut). Never serialized.
	Program *Program `json:"-"`
	// Artifact is the backend's rich native result for in-process consumers
	// (the atomique backend stores its *core.Result here so the CLI can
	// print schedules and render placements). Never serialized.
	Artifact any `json:"-"`
}
