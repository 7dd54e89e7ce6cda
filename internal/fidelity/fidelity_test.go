package fidelity

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"atomique/internal/hardware"
)

func TestLossProbabilityMatchesPaperValues(t *testing.T) {
	// Sec. IV with nmax = 33: F(nvib=30) = 0.708, F(20) = 0.998,
	// F(15) = 0.999998, where F = 1 - P.
	cases := []struct {
		nvib, wantF, tol float64
	}{
		{30, 0.708, 0.005},
		{20, 0.998, 0.001},
		{15, 0.999998, 1e-5},
		{0, 1.0, 0},
	}
	for _, tc := range cases {
		got := 1 - LossProbability(tc.nvib, 33)
		if math.Abs(got-tc.wantF) > tc.tol {
			t.Errorf("1-P(%v) = %v, want %v +- %v", tc.nvib, got, tc.wantF, tc.tol)
		}
	}
}

func TestEvaluateStaticOnly(t *testing.T) {
	p := hardware.NeutralAtom()
	s := Counts{NQubits: 10, N1Q: 100, N1QLayers: 20, N2Q: 50, Depth2Q: 25}
	b := Evaluate(p, s, MovementTrace{})
	// Movement factors must be exactly 1.
	if b.MoveHeating != 1 || b.MoveCooling != 1 || b.MoveLoss != 1 || b.MoveDeco != 1 {
		t.Errorf("movement factors not unity: %+v", b)
	}
	want1q := math.Pow(p.Fidelity1Q, 100) * math.Exp(-20*p.Time1Q/p.CoherenceT1*10)
	if math.Abs(b.OneQubit-want1q) > 1e-12 {
		t.Errorf("OneQubit = %v, want %v", b.OneQubit, want1q)
	}
	want2q := math.Pow(p.Fidelity2Q, 50) * math.Exp(-25*p.Time2Q/p.CoherenceT1*10)
	if math.Abs(b.TwoQubit-want2q) > 1e-12 {
		t.Errorf("TwoQubit = %v, want %v", b.TwoQubit, want2q)
	}
	if b.Transfer != 1 {
		t.Errorf("Transfer = %v with zero transfers", b.Transfer)
	}
	if got := b.Total(); math.Abs(got-want1q*want2q) > 1e-12 {
		t.Errorf("Total = %v", got)
	}
}

func TestMoveDecoMatchesPaperWorkedExample(t *testing.T) {
	// Sec. IV: one movement stage, 10 qubits, T1 = 1.5 s (unscaled), 300 us
	// -> exp(-300e-6/1.5 * 10) = 0.998.
	p := hardware.NeutralAtom()
	p.CoherenceT1 = 1.5
	b := Evaluate(p, Counts{NQubits: 10}, MovementTrace{
		StageQubits:   []int{10},
		StageMoveTime: []float64{300e-6},
	})
	if math.Abs(b.MoveDeco-0.998) > 0.0005 {
		t.Errorf("MoveDeco = %v, want ~0.998", b.MoveDeco)
	}
	// 100 qubits -> 0.98.
	b = Evaluate(p, Counts{NQubits: 100}, MovementTrace{
		StageQubits:   []int{100},
		StageMoveTime: []float64{300e-6},
	})
	if math.Abs(b.MoveDeco-0.980) > 0.001 {
		t.Errorf("MoveDeco(100q) = %v, want ~0.980", b.MoveDeco)
	}
}

func TestHeatingFactor(t *testing.T) {
	p := hardware.NeutralAtom()
	b := Evaluate(p, Counts{NQubits: 2}, MovementTrace{GateNvib: []float64{10}})
	want := 1 - p.Lambda*(1-p.Fidelity2Q)*10
	if math.Abs(b.MoveHeating-want) > 1e-12 {
		t.Errorf("MoveHeating = %v, want %v", b.MoveHeating, want)
	}
	// Enormous nvib clamps at zero rather than going negative.
	b = Evaluate(p, Counts{NQubits: 2}, MovementTrace{GateNvib: []float64{1e9}})
	if b.MoveHeating != 0 {
		t.Errorf("MoveHeating = %v, want clamp to 0", b.MoveHeating)
	}
}

func TestCoolingFactor(t *testing.T) {
	p := hardware.NeutralAtom()
	b := Evaluate(p, Counts{NQubits: 2}, MovementTrace{CoolingAtomCounts: []int{25}})
	want := math.Pow(p.Fidelity2Q, 50)
	if math.Abs(b.MoveCooling-want) > 1e-12 {
		t.Errorf("MoveCooling = %v, want %v", b.MoveCooling, want)
	}
}

func TestTransferFactor(t *testing.T) {
	p := hardware.NeutralAtom()
	b := Evaluate(p, Counts{NQubits: 5}, MovementTrace{Transfers: 3})
	want := math.Pow(1-p.TransferLossP, 3) * math.Exp(-3*p.TransferTime/p.CoherenceT1*5)
	if math.Abs(b.Transfer-want) > 1e-12 {
		t.Errorf("Transfer = %v, want %v", b.Transfer, want)
	}
}

func TestNegLogAndLabels(t *testing.T) {
	b := Breakdown{OneQubit: 0.1, TwoQubit: 1, Transfer: 1,
		MoveHeating: 1, MoveCooling: 1, MoveLoss: 1, MoveDeco: 1}
	nl := b.NegLog()
	if len(nl) != len(Labels()) {
		t.Fatalf("NegLog/Labels length mismatch: %d vs %d", len(nl), len(Labels()))
	}
	if math.Abs(nl[0]-1) > 1e-12 {
		t.Errorf("NegLog[0] = %v, want 1", nl[0])
	}
	zero := Breakdown{}
	if !math.IsInf(zero.NegLog()[0], 1) {
		t.Errorf("NegLog of zero factor should be +Inf")
	}
}

// Property: every factor lies in [0,1] for non-negative traces, so Total does
// too, and adding more error sources never increases fidelity.
func TestEvaluateMonotoneProperty(t *testing.T) {
	p := hardware.NeutralAtom()
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		s := Counts{
			NQubits:   1 + rng.Intn(100),
			N1Q:       rng.Intn(1000),
			N1QLayers: rng.Intn(100),
			N2Q:       rng.Intn(1000),
			Depth2Q:   rng.Intn(500),
		}
		m := MovementTrace{Transfers: rng.Intn(10)}
		for i := 0; i < rng.Intn(20); i++ {
			m.GateNvib = append(m.GateNvib, rng.Float64()*20)
			m.MoveNvib = append(m.MoveNvib, rng.Float64()*30)
		}
		for i := 0; i < rng.Intn(3); i++ {
			m.CoolingAtomCounts = append(m.CoolingAtomCounts, rng.Intn(100))
			m.StageQubits = append(m.StageQubits, rng.Intn(100))
			m.StageMoveTime = append(m.StageMoveTime, rng.Float64()*1e-3)
		}
		b := Evaluate(p, s, m)
		for _, v := range []float64{b.OneQubit, b.TwoQubit, b.Transfer,
			b.MoveHeating, b.MoveCooling, b.MoveLoss, b.MoveDeco} {
			if v < 0 || v > 1 {
				return false
			}
		}
		// Adding an extra heated gate cannot increase fidelity.
		m2 := m
		m2.GateNvib = append(append([]float64{}, m.GateNvib...), 5)
		return Evaluate(p, s, m2).Total() <= b.Total()+1e-15
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestLossProbabilityMonotone(t *testing.T) {
	prev := 0.0
	for nv := 1.0; nv <= 33; nv++ {
		p := LossProbability(nv, 33)
		if p < prev-1e-12 {
			t.Fatalf("LossProbability not monotone at nvib=%v", nv)
		}
		prev = p
	}
	if LossProbability(33, 33) < 0.45 {
		t.Errorf("P(nmax) = %v, want ~0.5", LossProbability(33, 33))
	}
}
