package metrics

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"atomique/internal/fidelity"
	"atomique/internal/hardware"
)

func TestGeoMean(t *testing.T) {
	cases := []struct {
		in   []float64
		want float64
	}{
		{[]float64{4, 9}, 6},
		{[]float64{1, 1, 1}, 1},
		{[]float64{8}, 8},
		{nil, 0},
		{[]float64{0, 0}, 0},
		{[]float64{0, 4, 9}, 6}, // zeros skipped like the paper's GMean
	}
	for _, tc := range cases {
		if got := GeoMean(tc.in); math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("GeoMean(%v) = %v, want %v", tc.in, got, tc.want)
		}
	}
}

// Property: GeoMean lies between min and max of the positive entries.
func TestGeoMeanBoundsProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(10)
		vals := make([]float64, n)
		lo, hi := math.Inf(1), math.Inf(-1)
		for i := range vals {
			vals[i] = rng.Float64() + 1e-6
			if vals[i] < lo {
				lo = vals[i]
			}
			if vals[i] > hi {
				hi = vals[i]
			}
		}
		g := GeoMean(vals)
		return g >= lo-1e-12 && g <= hi+1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestFidelityTotal(t *testing.T) {
	c := Compiled{Fidelity: fidelity.Breakdown{
		OneQubit: 0.5, TwoQubit: 0.5, Transfer: 1,
		MoveHeating: 1, MoveCooling: 1, MoveLoss: 1, MoveDeco: 1,
	}}
	if got := c.FidelityTotal(); math.Abs(got-0.25) > 1e-12 {
		t.Errorf("FidelityTotal = %v, want 0.25", got)
	}
}

// TestEvaluateDerivesFields pins the one derivation step every backend's
// record goes through: the fidelity model of the embedded counts, three
// CNOTs per SWAP, and the distance per movement stage (0 without stages).
func TestEvaluateDerivesFields(t *testing.T) {
	p := hardware.NeutralAtom()
	trace := fidelity.MovementTrace{GateNvib: []float64{3}, StageQubits: []int{4}, Transfers: 2}
	c := Compiled{
		Counts:        fidelity.Counts{NQubits: 4, N2Q: 9, N1Q: 5, Depth2Q: 3, N1QLayers: 2},
		SwapCount:     2,
		MoveStages:    3,
		TotalMoveDist: 6e-6,
	}
	c.Evaluate(p, trace)
	if want := fidelity.Evaluate(p, c.Counts, trace); c.Fidelity != want {
		t.Errorf("Fidelity = %+v, want %+v", c.Fidelity, want)
	}
	if c.AddedCNOTs != 6 {
		t.Errorf("AddedCNOTs = %d with 2 SWAPs, want 6", c.AddedCNOTs)
	}
	if c.AvgMoveDist != 2e-6 {
		t.Errorf("AvgMoveDist = %v, want 2e-6", c.AvgMoveDist)
	}
	c.MoveStages = 0
	c.Evaluate(p, trace)
	if c.AvgMoveDist != 0 {
		t.Errorf("AvgMoveDist = %v with no movement stage, want 0", c.AvgMoveDist)
	}
}
