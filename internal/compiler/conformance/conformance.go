// Package conformance is the shared backend contract suite: one table-driven
// battery run against every registered compiler backend. It checks the
// properties the rest of the system relies on — populated metrics, seed
// determinism (the service cache's premise), context cancellation, two-qubit
// accounting for routing backends, capabilities honesty (declared
// zone/exact/budget support is accepted, undeclared support is rejected with
// a structured *compiler.UnsupportedError), and semantic correctness: every
// completed compilation carries a compiler.Program witness that the
// state-vector simulator (internal/sim) replays against the source circuit,
// both on the fixed conformance workload and differentially on a shared
// corpus of random circuits (RunDifferential). New backends get all of it
// for free the moment they Register.
package conformance

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"atomique/internal/circuit"
	"atomique/internal/compiler"
	"atomique/internal/hardware"
	"atomique/internal/metrics"
	"atomique/internal/noise"
	"atomique/internal/sim"
	"atomique/internal/stab"
)

// Circuit returns the conformance workload: a 10-qubit circuit of H/RZ/CX
// layers with non-local interactions, so every backend must genuinely route.
// It deliberately uses only gates native to every target family (no ZZ, which
// the superconducting baseline would decompose and skew 2Q accounting).
func Circuit() *circuit.Circuit {
	c := circuit.New(10)
	for q := 0; q < c.N; q++ {
		c.H(q)
	}
	for _, d := range []int{1, 3, 5} {
		for i := 0; i < c.N; i++ {
			c.CX(i, (i+d)%c.N)
		}
		for q := 0; q < c.N; q++ {
			c.RZ(q, 0.25*float64(d))
		}
	}
	return c
}

// canonical strips wall-clock measurements so two runs of the same
// compilation compare equal.
func canonical(m metrics.Compiled) metrics.Compiled {
	m.CompileTime = 0
	passes := make([]metrics.PassTiming, len(m.Passes))
	copy(passes, m.Passes)
	for i := range passes {
		passes[i].Seconds = 0
	}
	if len(passes) == 0 {
		passes = nil
	}
	m.Passes = passes
	return m
}

// compile runs the backend on the conformance circuit with its default
// (auto) target.
func compile(t *testing.T, b compiler.Backend, opts compiler.Options) *compiler.Result {
	t.Helper()
	res, err := b.Compile(context.Background(), compiler.Target{}, Circuit(), opts)
	if err != nil {
		t.Fatalf("backend %q: %v", b.Name(), err)
	}
	if res == nil {
		t.Fatalf("backend %q returned nil result without error", b.Name())
	}
	return res
}

// Run executes the conformance battery against one backend.
func Run(t *testing.T, b compiler.Backend) {
	caps := b.Capabilities()
	circ := Circuit()

	t.Run("metrics", func(t *testing.T) {
		res := compile(t, b, compiler.Options{Seed: 11})
		if res.Backend != b.Name() {
			t.Errorf("result backend = %q, want %q", res.Backend, b.Name())
		}
		m := res.Metrics
		if m.Arch == "" {
			t.Error("metrics missing architecture label")
		}
		if m.NQubits != circ.N {
			t.Errorf("NQubits = %d, want %d", m.NQubits, circ.N)
		}
		if m.N2Q <= 0 {
			t.Errorf("N2Q = %d for a circuit with %d two-qubit gates", m.N2Q, circ.Num2Q())
		}
		if m.ExecutionTime < 0 || m.TotalMoveDist < 0 || m.Depth2Q < 0 {
			t.Errorf("negative metric in %+v", m)
		}
		if caps.Movement && m.FidelityTotal() <= 0 {
			t.Errorf("movement backend reports non-positive fidelity %v", m.FidelityTotal())
		}
	})

	t.Run("deterministic-per-seed", func(t *testing.T) {
		if !caps.Deterministic {
			t.Skip("backend does not claim determinism")
		}
		a := compile(t, b, compiler.Options{Seed: 11})
		c := compile(t, b, compiler.Options{Seed: 11})
		if !reflect.DeepEqual(canonical(a.Metrics), canonical(c.Metrics)) {
			t.Errorf("same-seed metrics diverge:\n%+v\nvs\n%+v", a.Metrics, c.Metrics)
		}
		if !reflect.DeepEqual(a.Extra, c.Extra) {
			t.Errorf("same-seed extras diverge: %v vs %v", a.Extra, c.Extra)
		}
		if a.TimedOut != c.TimedOut {
			t.Errorf("same-seed timeout flags diverge")
		}
	})

	t.Run("cancellation", func(t *testing.T) {
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		_, err := b.Compile(ctx, compiler.Target{}, circ, compiler.Options{Seed: 11})
		if !errors.Is(err, context.Canceled) {
			t.Errorf("cancelled-context compile: err = %v, want context.Canceled", err)
		}
	})

	t.Run("routing-2q-accounting", func(t *testing.T) {
		if !caps.Routes {
			t.Skip("backend does not route")
		}
		m := compile(t, b, compiler.Options{Seed: 11}).Metrics
		if m.AddedCNOTs != 3*m.SwapCount {
			t.Errorf("AddedCNOTs = %d, want 3*SwapCount = %d", m.AddedCNOTs, 3*m.SwapCount)
		}
		if want := circ.Num2Q() + m.AddedCNOTs; m.N2Q != want {
			t.Errorf("N2Q = %d, want input 2Q + added CNOTs = %d (pairs dropped or duplicated)",
				m.N2Q, want)
		}
	})

	t.Run("program-witness", func(t *testing.T) {
		res := compile(t, b, compiler.Options{Seed: 11})
		if res.TimedOut {
			t.Skip("compilation timed out; no witness owed")
		}
		if err := VerifyResult(circ, res); err != nil {
			t.Errorf("backend %q: %v", b.Name(), err)
		}
	})

	t.Run("capabilities-honesty", func(t *testing.T) {
		runHonesty(t, b)
	})

	t.Run("width-limit", func(t *testing.T) {
		if caps.MaxQubits <= 0 {
			t.Fatalf("backend %q declares no MaxQubits", b.Name())
		}
		if _, err := b.Compile(context.Background(), compiler.Target{}, cxChain(caps.MaxQubits), compiler.Options{Seed: 11}); err != nil {
			t.Errorf("backend %q rejected %d qubits, its declared MaxQubits: %v", b.Name(), caps.MaxQubits, err)
		}
		_, err := b.Compile(context.Background(), compiler.Target{}, cxChain(caps.MaxQubits+1), compiler.Options{Seed: 11})
		wantUnsupported(t, b.Name(), fmt.Sprintf("%d-qubit", caps.MaxQubits+1), err)
	})
}

// cxChain is an n-qubit CX chain.
func cxChain(n int) *circuit.Circuit {
	c := circuit.New(n)
	for q := 0; q+1 < n; q++ {
		c.CX(q, q+1)
	}
	return c
}

// wantUnsupported asserts that a compile attempt was rejected with the
// structured capability error.
func wantUnsupported(t *testing.T, name, feature string, err error) {
	t.Helper()
	var ue *compiler.UnsupportedError
	if !errors.As(err, &ue) {
		t.Errorf("backend %q: undeclared %s request: err = %v, want *compiler.UnsupportedError",
			name, feature, err)
	}
}

// runHonesty checks that the Capabilities record matches behaviour: a
// backend declaring zone/exact/budget support must accept those requests,
// and one that does not must reject them with *compiler.UnsupportedError
// instead of silently ignoring them.
func runHonesty(t *testing.T, b compiler.Backend) {
	caps := b.Capabilities()
	ctx := context.Background()

	t.Run("exact", func(t *testing.T) {
		if !caps.Exact {
			_, err := b.Compile(ctx, compiler.Target{}, Circuit(), compiler.Options{Seed: 11, Exact: true})
			wantUnsupported(t, b.Name(), "exact-mode", err)
			return
		}
		// Exact solvers are anytime optimisers: when the backend also takes
		// budgets, bound the probe so the suite stays fast (an Exact-only
		// backend runs at its default budget — budgets must not be forced on
		// a backend that does not declare them). Either completing or timing
		// out honours the option.
		opts := compiler.Options{Seed: 11, Exact: true}
		if caps.Budget {
			opts.BudgetSeconds = 0.2
		}
		res, err := b.Compile(ctx, compiler.Target{}, Circuit(), opts)
		if err != nil {
			t.Errorf("backend %q rejected its declared exact mode: %v", b.Name(), err)
		} else if res == nil {
			t.Errorf("backend %q returned nil exact result without error", b.Name())
		}
	})

	t.Run("budget", func(t *testing.T) {
		if !caps.Budget {
			_, err := b.Compile(ctx, compiler.Target{}, Circuit(), compiler.Options{Seed: 11, BudgetSeconds: 0.5})
			wantUnsupported(t, b.Name(), "budget", err)
			return
		}
		// A microsecond budget is below any real compilation: a
		// budget-honouring backend must report TimedOut, not an error and
		// not a silently complete result (the solverref timeout path).
		res, err := b.Compile(ctx, compiler.Target{}, Circuit(),
			compiler.Options{Seed: 11, BudgetSeconds: 1e-6})
		if err != nil {
			t.Fatalf("backend %q errored on an exhausted budget: %v", b.Name(), err)
		}
		if !res.TimedOut {
			t.Errorf("backend %q completed a 1us budget without TimedOut", b.Name())
		}
		if res.Program != nil {
			t.Errorf("backend %q attached a program witness to a timed-out result", b.Name())
		}
	})

	t.Run("zoned-target", func(t *testing.T) {
		tgt := compiler.Zoned(hardware.ZonesFor(Circuit().N))
		if !caps.Zoned {
			_, err := b.Compile(ctx, tgt, Circuit(), compiler.Options{Seed: 11})
			wantUnsupported(t, b.Name(), "zoned-target", err)
			return
		}
		res, err := b.Compile(ctx, tgt, Circuit(), compiler.Options{Seed: 11})
		if err != nil {
			t.Fatalf("backend %q rejected its declared zoned target: %v", b.Name(), err)
		}
		if err := VerifyResult(Circuit(), res); err != nil {
			t.Errorf("backend %q on explicit zoned target: %v", b.Name(), err)
		}
	})
}

// VerifyResult checks a compilation's program witness is semantically
// equivalent to the source circuit up to the routing permutation: executing
// the witness on |0...0> must equal the source's output state embedded at
// the witness's final placement (all non-data slots back in |0>). It returns
// nil for a faithful compilation and a descriptive error otherwise.
//
// Dispatch is automatic: when both the source and the witness are
// Clifford-only, equivalence is established in the stabilizer tableau
// (internal/stab) — O(n³) bit operations, good to hundreds of qubits — and
// the dense state-vector replay is the fallback for everything else, capped
// at noise.MaxQubits so a witness that dense-verifies here can always be
// simulated noisily too.
func VerifyResult(src *circuit.Circuit, res *compiler.Result) error {
	return VerifyResultEngine(src, res, noise.EngineAuto)
}

// VerifyResultEngine is VerifyResult with the replay engine pinned — the
// hook the engine cross-check suite uses to demand that the dense and
// stabilizer verifiers agree on the same compilation.
func VerifyResultEngine(src *circuit.Circuit, res *compiler.Result, engine string) error {
	p := res.Program
	if p == nil {
		return errors.New("completed result carries no program witness")
	}
	if p.NSlots < src.N {
		return fmt.Errorf("witness register (%d slots) narrower than the source (%d qubits)", p.NSlots, src.N)
	}
	if len(p.FinalSlot) != src.N {
		return fmt.Errorf("final placement covers %d qubits, want %d", len(p.FinalSlot), src.N)
	}
	seen := make([]bool, p.NSlots)
	for q, s := range p.FinalSlot {
		if s < 0 || s >= p.NSlots {
			return fmt.Errorf("qubit %d placed at slot %d, outside [0,%d)", q, s, p.NSlots)
		}
		if seen[s] {
			return fmt.Errorf("two qubits placed at slot %d", s)
		}
		seen[s] = true
	}
	if err := (noise.Witness{NSlots: p.NSlots, Gates: p.Gates}).CheckSlots(); err != nil {
		return err
	}
	// Auto dispatch also needs a Clifford source. Verification runs one
	// tableau check per witness, not a tableau and a frame per trajectory
	// shot, so its stabilizer cap is the tableau's own (stab.MaxQubits)
	// rather than the trajectory engine's.
	if (engine == "" || engine == noise.EngineAuto) && !src.IsClifford() {
		engine = noise.EngineDense
	}
	engine, err := noise.Dispatch(engine, p.NSlots, p.Gates, stab.MaxQubits)
	if err != nil {
		return err
	}
	if engine == noise.EngineStab {
		return verifyStab(src, p)
	}
	return verifyDense(src, p)
}

// verifyDense is the state-vector equivalence check (≤ noise.MaxQubits).
func verifyDense(src *circuit.Circuit, p *compiler.Program) error {
	got := sim.MustNew(p.NSlots)
	for _, g := range p.Gates {
		got.Apply(g)
	}
	want := sim.MustNew(src.N)
	want.Run(src)
	expected := want.Embed(p.NSlots, p.FinalSlot)
	if f := sim.Fidelity(got, expected); f < 1-1e-7 {
		return fmt.Errorf("witness not equivalent to source: fidelity %v (%d gates, %d slots)",
			f, len(p.Gates), p.NSlots)
	}
	return nil
}

// verifyStab is the tableau equivalence check for Clifford compilations at
// any width: the expected state's tableau is built by running the source
// gates relabelled onto their final slots, and the witness state equals it
// iff every one of its stabilizer generators has expectation +1 in the
// witness tableau (the n generators uniquely determine a stabilizer state).
func verifyStab(src *circuit.Circuit, p *compiler.Program) error {
	got, err := stab.New(p.NSlots)
	if err != nil {
		return fmt.Errorf("witness tableau: %w", err)
	}
	if err := got.Run(p.Gates); err != nil {
		return fmt.Errorf("witness tableau: %w", err)
	}
	want, err := stab.New(p.NSlots)
	if err != nil {
		return fmt.Errorf("reference tableau: %w", err)
	}
	for i, g := range src.Gates {
		g.Q0 = p.FinalSlot[g.Q0]
		if g.IsTwoQubit() {
			g.Q1 = p.FinalSlot[g.Q1]
		}
		if err := want.ApplyGate(g); err != nil {
			return fmt.Errorf("reference tableau: source gate %d: %w", i, err)
		}
	}
	for i := 0; i < p.NSlots; i++ {
		gen := want.StabilizerPauli(i)
		if e := got.Expectation(gen); e != 1 {
			return fmt.Errorf("witness not equivalent to source: stabilizer generator %d (%v) has expectation %d, want +1 (%d gates, %d slots)",
				i, gen, e, len(p.Gates), p.NSlots)
		}
	}
	return nil
}

// RandomCircuit returns one random circuit over n qubits mixing Clifford
// gates, rotations, and native ZZ interactions — the gate distribution every
// semantic property test in this repository draws from, exported so they
// cannot drift apart.
func RandomCircuit(rng *rand.Rand, n, gates int) *circuit.Circuit {
	c := circuit.New(n)
	for i := 0; i < gates; i++ {
		switch rng.Intn(8) {
		case 0:
			c.H(rng.Intn(n))
		case 1:
			c.X(rng.Intn(n))
		case 2:
			c.RZ(rng.Intn(n), rng.Float64()*6)
		case 3:
			c.RX(rng.Intn(n), rng.Float64()*6)
		case 4, 5:
			a, b := pick2(n, rng)
			c.CX(a, b)
		case 6:
			a, b := pick2(n, rng)
			c.CZ(a, b)
		case 7:
			a, b := pick2(n, rng)
			c.ZZ(a, b, rng.Float64()*6)
		}
	}
	return c
}

// RandomCliffordCircuit returns one random Clifford-only circuit over n
// qubits: the same gate mix as RandomCircuit, with every rotation pinned to
// a Clifford quarter-turn. It is the shared corpus generator for the
// stabilizer-vs-dense engine cross-checks.
func RandomCliffordCircuit(rng *rand.Rand, n, gates int) *circuit.Circuit {
	angles := []float64{math.Pi / 2, -math.Pi / 2, math.Pi}
	angle := func() float64 { return angles[rng.Intn(len(angles))] }
	c := circuit.New(n)
	for i := 0; i < gates; i++ {
		switch rng.Intn(8) {
		case 0:
			c.H(rng.Intn(n))
		case 1:
			c.X(rng.Intn(n))
		case 2:
			c.RZ(rng.Intn(n), angle())
		case 3:
			c.RX(rng.Intn(n), angle())
		case 4, 5:
			a, b := pick2(n, rng)
			c.CX(a, b)
		case 6:
			a, b := pick2(n, rng)
			c.CZ(a, b)
		case 7:
			a, b := pick2(n, rng)
			c.ZZ(a, b, angle())
		}
	}
	return c
}

// CliffordDifferentialCircuits returns the Clifford cross-check corpus:
// count Clifford circuits over 4..maxQubits qubits, deterministic per seed.
func CliffordDifferentialCircuits(seed int64, count, maxQubits int) []*circuit.Circuit {
	rng := rand.New(rand.NewSource(seed))
	out := make([]*circuit.Circuit, count)
	for i := range out {
		n := 4 + rng.Intn(maxQubits-3)
		out[i] = RandomCliffordCircuit(rng, n, 10+rng.Intn(40))
	}
	return out
}

// DifferentialCircuits returns the shared random-circuit corpus of the
// differential verification: count circuits over 4..maxQubits qubits,
// generated deterministically from seed.
func DifferentialCircuits(seed int64, count, maxQubits int) []*circuit.Circuit {
	rng := rand.New(rand.NewSource(seed))
	out := make([]*circuit.Circuit, count)
	for i := range out {
		n := 4 + rng.Intn(maxQubits-3)
		out[i] = RandomCircuit(rng, n, 10+rng.Intn(40))
	}
	return out
}

func pick2(n int, rng *rand.Rand) (int, int) {
	a := rng.Intn(n)
	b := rng.Intn(n - 1)
	if b >= a {
		b++
	}
	return a, b
}

// RelaxModes enumerates the flat router's constraint-relaxation
// configurations (Fig 22): each single relaxation plus all three combined.
func RelaxModes() []struct {
	Name string
	Opts compiler.Options
} {
	return []struct {
		Name string
		Opts compiler.Options
	}{
		{"relax-addressing", compiler.Options{RelaxAddressing: true}},
		{"relax-order", compiler.Options{RelaxOrder: true}},
		{"relax-overlap", compiler.Options{RelaxOverlap: true}},
		{"relax-all", compiler.Options{RelaxAddressing: true, RelaxOrder: true, RelaxOverlap: true}},
	}
}

// RunRelaxModes is the witness-backed verification of a router's constraint
// relaxations: every corpus circuit is compiled under each relaxation mode
// and the resulting program witness replayed against the source. Relaxing a
// scheduling constraint changes which gates share a stage — it must never
// change what the program computes, which is exactly what this asserts.
func RunRelaxModes(t *testing.T, b compiler.Backend, circuits []*circuit.Circuit) {
	t.Helper()
	for _, mode := range RelaxModes() {
		mode := mode
		t.Run(mode.Name, func(t *testing.T) {
			for i, c := range circuits {
				opts := mode.Opts
				opts.Seed = int64(100 + i)
				res, err := b.Compile(context.Background(), compiler.Target{}, c, opts)
				if err != nil {
					t.Fatalf("circuit %d (%d qubits, %d gates): %v", i, c.N, len(c.Gates), err)
				}
				if err := VerifyResult(c, res); err != nil {
					t.Errorf("circuit %d (%d qubits, %d gates): %v", i, c.N, len(c.Gates), err)
				}
			}
		})
	}
}

// RunDifferential is the simulator-backed differential verification: it
// compiles every corpus circuit through backend b (auto target, per-circuit
// seeds) and replays each witness against the source. Any semantic drift a
// backend introduces — dropped gates, a wrong decomposition, a bad final
// mapping — fails here with the offending circuit index.
func RunDifferential(t *testing.T, b compiler.Backend, circuits []*circuit.Circuit) {
	t.Helper()
	for i, c := range circuits {
		res, err := b.Compile(context.Background(), compiler.Target{}, c,
			compiler.Options{Seed: int64(100 + i)})
		if err != nil {
			t.Fatalf("circuit %d (%d qubits, %d gates): %v", i, c.N, len(c.Gates), err)
		}
		if res.TimedOut {
			t.Fatalf("circuit %d: unexpected timeout with default budget", i)
		}
		if err := VerifyResult(c, res); err != nil {
			t.Errorf("circuit %d (%d qubits, %d gates): %v", i, c.N, len(c.Gates), err)
		}
	}
}
