package noise

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"atomique/internal/circuit"
)

// cliffordWitness returns a seeded random Clifford witness over n slots.
func cliffordWitness(seed int64, n, gates int) Witness {
	rng := rand.New(rand.NewSource(seed))
	angles := []float64{math.Pi / 2, -math.Pi / 2, math.Pi}
	c := circuit.New(n)
	for i := 0; i < gates; i++ {
		switch rng.Intn(6) {
		case 0:
			c.H(rng.Intn(n))
		case 1:
			c.RZ(rng.Intn(n), angles[rng.Intn(3)])
		case 2:
			c.RX(rng.Intn(n), angles[rng.Intn(3)])
		case 3, 4:
			a := rng.Intn(n)
			b := (a + 1 + rng.Intn(n-1)) % n
			c.CX(a, b)
		case 5:
			a := rng.Intn(n)
			b := (a + 1 + rng.Intn(n-1)) % n
			c.ZZ(a, b, angles[rng.Intn(3)])
		}
	}
	return Witness{NSlots: n, Gates: c.Gates}
}

// allOpsWitness returns a seeded random witness drawing uniformly from all
// twelve Clifford ops, every rotation at ±π/2 or π.
func allOpsWitness(seed int64, n, gates int) Witness {
	rng := rand.New(rand.NewSource(seed))
	angles := []float64{math.Pi / 2, -math.Pi / 2, math.Pi}
	oneQ := []circuit.Op{circuit.OpH, circuit.OpX, circuit.OpY, circuit.OpZ, circuit.OpS,
		circuit.OpRX, circuit.OpRY, circuit.OpRZ}
	twoQ := []circuit.Op{circuit.OpCX, circuit.OpCZ, circuit.OpZZ, circuit.OpSWAP}
	c := circuit.New(n)
	for i := 0; i < gates; i++ {
		theta := angles[rng.Intn(len(angles))]
		if k := rng.Intn(len(oneQ) + len(twoQ)); k < len(oneQ) {
			c.Add1Q(oneQ[k], rng.Intn(n), theta)
		} else {
			a := rng.Intn(n)
			c.Add2Q(twoQ[k-len(oneQ)], a, (a+1+rng.Intn(n-1))%n, theta)
		}
	}
	return Witness{NSlots: n, Gates: c.Gates}
}

// testModel is a three-channel model with gate-attached and idle errors.
func testModel(oneQ, twoQ int) Model {
	return Model{Channels: []Channel{
		{Label: "1q-gate", Kind: Pauli1Q, Trials: oneQ, Prob: 2e-3},
		{Label: "2q-gate", Kind: Pauli2Q, Trials: twoQ, Prob: 8e-3},
		{Label: "decoherence", Kind: Dephase, Trials: oneQ + twoQ, Prob: 1e-3},
	}}
}

// TestEngineAgreementOnClifford is the dense-vs-stabilizer cross-check at
// trajectory level: both engines consume the identical random stream, and on
// a Clifford witness every per-shot overlap is exactly 0 or 1 in both, so
// the whole estimate must agree — survival and event tallies exactly,
// fidelity to float tolerance.
func TestEngineAgreementOnClifford(t *testing.T) {
	w := cliffordWitness(31, 12, 80)
	mo := testModel(w.NSlots, 40)
	const shots = 20000
	run := func(engine string) *Estimate {
		est, err := Simulate(context.Background(), mo, w, Run{Shots: shots, Seed: 77, Engine: engine})
		if err != nil {
			t.Fatal(err)
		}
		return est
	}
	dense := run(EngineDense)
	stab := run(EngineStab)
	if dense.Engine != EngineDense || stab.Engine != EngineStab {
		t.Fatalf("engines recorded as %q / %q", dense.Engine, stab.Engine)
	}
	if dense.Survival != stab.Survival {
		t.Errorf("survival diverges: dense %v vs stab %v", dense.Survival, stab.Survival)
	}
	if dense.LostShots != stab.LostShots || dense.ErrorShots != stab.ErrorShots {
		t.Errorf("shot tallies diverge: dense %d/%d vs stab %d/%d",
			dense.LostShots, dense.ErrorShots, stab.LostShots, stab.ErrorShots)
	}
	for i := range dense.Channels {
		if dense.Channels[i].Events != stab.Channels[i].Events {
			t.Errorf("channel %s events diverge: %d vs %d",
				dense.Channels[i].Label, dense.Channels[i].Events, stab.Channels[i].Events)
		}
	}
	if d := math.Abs(dense.Fidelity - stab.Fidelity); d > 1e-9 {
		t.Errorf("fidelity diverges by %v: dense %v vs stab %v", d, dense.Fidelity, stab.Fidelity)
	}
}

// TestAutoDispatch checks Dispatch end to end: Clifford witnesses land
// on the tableau engine, anything else on the dense fallback.
func TestAutoDispatch(t *testing.T) {
	mo := testModel(4, 4)
	cw := cliffordWitness(5, 4, 20)
	est, err := Simulate(context.Background(), mo, cw, Run{Shots: 100, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if est.Engine != EngineStab {
		t.Errorf("Clifford witness ran on %q, want %q", est.Engine, EngineStab)
	}

	c := circuit.New(4)
	c.H(0)
	c.RZ(1, 0.3) // non-Clifford angle
	nw := Witness{NSlots: 4, Gates: c.Gates}
	est, err = Simulate(context.Background(), mo, nw, Run{Shots: 100, Seed: 1, Engine: EngineAuto})
	if err != nil {
		t.Fatal(err)
	}
	if est.Engine != EngineDense {
		t.Errorf("non-Clifford witness ran on %q, want %q", est.Engine, EngineDense)
	}
}

// TestWideCliffordTrajectory runs the stabilizer engine far beyond the dense
// wall — a 256-qubit GHZ witness — and validates the estimator against the
// model's closed form, exactly like the regress-corpus validation does at
// small widths.
func TestWideCliffordTrajectory(t *testing.T) {
	const n, shots = 256, 3000
	c := circuit.New(n)
	c.H(0)
	for q := 1; q < n; q++ {
		c.CX(q-1, q)
	}
	w := Witness{NSlots: n, Gates: c.Gates}
	mo := Model{Channels: []Channel{
		{Label: "1q-gate", Kind: Pauli1Q, Trials: 1, Prob: 1e-3},
		{Label: "2q-gate", Kind: Pauli2Q, Trials: n - 1, Prob: 2e-4},
		{Label: "loss", Kind: Loss, Trials: n, Prob: 5e-5},
	}}
	est, err := Simulate(context.Background(), mo, w, Run{Shots: shots, Seed: 13})
	if err != nil {
		t.Fatal(err)
	}
	if est.Engine != EngineStab {
		t.Fatalf("wide Clifford witness ran on %q, want %q", est.Engine, EngineStab)
	}
	if d := math.Abs(est.Survival - est.Analytic); d > 4*est.SurvivalSigma()+1e-9 {
		t.Errorf("survival %v vs analytic %v: off by %v (> 4σ)", est.Survival, est.Analytic, d)
	}
	if est.Fidelity < est.Survival {
		t.Errorf("fidelity %v < survival %v", est.Fidelity, est.Survival)
	}
	if est.CILow > est.Fidelity || est.CIHigh < est.Fidelity {
		t.Errorf("CI [%v,%v] does not bracket fidelity %v", est.CILow, est.CIHigh, est.Fidelity)
	}
}

// TestStabDeterministicAcrossWorkerCounts extends the determinism contract
// to the stabilizer engine: identical estimates whatever the parallelism.
func TestStabDeterministicAcrossWorkerCounts(t *testing.T) {
	w := cliffordWitness(19, 48, 300)
	mo := testModel(150, 150)
	var first *Estimate
	for _, workers := range []int{1, 3, 8} {
		est, err := Simulate(context.Background(), mo, w, Run{Shots: 5000, Seed: 21, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		if est.Engine != EngineStab {
			t.Fatalf("engine %q, want stab", est.Engine)
		}
		if first == nil {
			first = est
			continue
		}
		if !estimatesEqual(est, first) {
			t.Errorf("workers=%d: estimate diverges", workers)
		}
	}
}

// estimatesEqual compares everything but the channel slice identity.
func estimatesEqual(a, b *Estimate) bool {
	if a.Shots != b.Shots || a.Seed != b.Seed || a.Engine != b.Engine ||
		a.Fidelity != b.Fidelity || a.StdErr != b.StdErr ||
		a.Survival != b.Survival || a.LostShots != b.LostShots ||
		a.ErrorShots != b.ErrorShots || len(a.Channels) != len(b.Channels) {
		return false
	}
	for i := range a.Channels {
		if a.Channels[i] != b.Channels[i] {
			return false
		}
	}
	return true
}
