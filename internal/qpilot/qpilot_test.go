package qpilot

import (
	"testing"

	"atomique/internal/bench"
	"atomique/internal/circuit"
	"atomique/internal/core"
	"atomique/internal/hardware"
)

func TestCompileBasics(t *testing.T) {
	c := bench.QAOARandom(10, 0.5, 11)
	m := Compile(c, 1)
	if m.N2Q != c.Num2Q()*GatesPerTerm {
		t.Errorf("N2Q = %d, want %d", m.N2Q, c.Num2Q()*GatesPerTerm)
	}
	if m.Depth2Q == 0 || m.FidelityTotal() <= 0 || m.FidelityTotal() > 1 {
		t.Errorf("implausible metrics: %+v", m)
	}
}

func TestFig19Ordering(t *testing.T) {
	// Fig 19: versus Atomique, Q-Pilot has lower depth, more two-qubit
	// gates, and lower overall fidelity on QAOA/QSim workloads.
	cfg := hardware.DefaultConfig()
	for _, b := range []bench.Benchmark{
		{Name: "QAOA-regu5-40", Circ: bench.QAOARegular(40, 5, 15)},
		{Name: "QSim-rand-20", Circ: bench.QSimRandom(20, 10, 0.5, 6)},
	} {
		qp := Compile(b.Circ, 1)
		at, err := core.Compile(cfg, b.Circ, core.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if qp.Depth2Q >= at.Metrics.Depth2Q {
			t.Errorf("%s: Q-Pilot depth %d >= Atomique %d",
				b.Name, qp.Depth2Q, at.Metrics.Depth2Q)
		}
		if qp.N2Q <= at.Metrics.N2Q {
			t.Errorf("%s: Q-Pilot 2Q %d <= Atomique %d",
				b.Name, qp.N2Q, at.Metrics.N2Q)
		}
		if qp.FidelityTotal() >= at.Metrics.FidelityTotal() {
			t.Errorf("%s: Q-Pilot fidelity %v >= Atomique %v",
				b.Name, qp.FidelityTotal(), at.Metrics.FidelityTotal())
		}
	}
}

func TestEmptyCircuit(t *testing.T) {
	m := Compile(circuit.New(4), 1)
	if m.N2Q != 0 || m.Depth2Q != 0 {
		t.Errorf("empty circuit produced work: %+v", m)
	}
}

// TestAvgMoveDistPerWave checks that the average move distance is the total
// spread over the movement stages (the ancilla waves), as on every other
// movement backend.
func TestAvgMoveDistPerWave(t *testing.T) {
	m := Compile(bench.QAOARandom(10, 0.5, 11), 1)
	if m.MoveStages == 0 || m.TotalMoveDist == 0 {
		t.Fatalf("no movement recorded: %+v", m)
	}
	if want := m.TotalMoveDist / float64(m.MoveStages); m.AvgMoveDist != want {
		t.Errorf("AvgMoveDist = %v, want TotalMoveDist/MoveStages = %v", m.AvgMoveDist, want)
	}
}
