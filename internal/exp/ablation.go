package exp

import (
	"fmt"

	"atomique/internal/bench"
	"atomique/internal/compiler"
	"atomique/internal/graphs"
	"atomique/internal/hardware"
	"atomique/internal/report"
	"atomique/internal/sabre"
)

// Ablations sweeps the design choices DESIGN.md calls out beyond the paper's
// own Fig 21 breakdown: the gate-frequency decay factor gamma (Sec. III-A),
// SABRE's lookahead window, and the number of reverse-traversal refinement
// passes. These quantify how sensitive the pipeline is to its tuning knobs.
func Ablations() []*report.Table {
	return []*report.Table{
		gammaSweep(),
		lookaheadSweep(),
		reversePassSweep(),
	}
}

// gammaSweep varies the layer-decay factor of the gate-frequency graph.
// gamma = 1 weighs all layers equally; small gamma trusts only the opening
// layers (the paper argues later gates benefit less from the mapping).
func gammaSweep() *report.Table {
	t := &report.Table{
		Title:  "Ablation: gate-frequency decay factor gamma",
		Header: []string{"gamma", "Benchmark", "Swaps", "2Q gates", "Fidelity"},
		Notes:  []string{"default gamma = 0.95; fidelity should be flat-ish with a mild optimum"},
	}
	suite := []bench.Benchmark{
		{Name: "QSim-rand-20", Circ: bench.QSimRandom(20, 10, 0.5, 6)},
		{Name: "QAOA-regu5-40", Circ: bench.QAOARegular(40, 5, 15)},
		{Name: "QV-16", Circ: bench.QV(16, 16, 3)},
	}
	cfg := hardware.DefaultConfig()
	for _, gamma := range []float64{0.5, 0.8, 0.95, 1.0} {
		for _, b := range suite {
			m := mustCompile("atomique", compiler.FPQA(cfg), b.Circ, compiler.Options{Gamma: gamma, Seed: 1}).Metrics
			t.AddRow(fmt.Sprintf("%.2f", gamma), b.Name, m.SwapCount, m.N2Q,
				fmt.Sprintf("%.3f", m.FidelityTotal()))
		}
	}
	return t
}

// lookaheadSweep varies SABRE's extended-set size on a fixed baseline
// architecture; zero lookahead routes purely on the front layer.
func lookaheadSweep() *report.Table {
	t := &report.Table{
		Title:  "Ablation: SABRE lookahead window (FAA-Rectangular)",
		Header: []string{"Extended size", "Benchmark", "Swaps", "2Q depth"},
		Notes:  []string{"default window = 20; larger windows trade compile time for swaps"},
	}
	suite := []bench.Benchmark{
		{Name: "QSim-rand-20", Circ: bench.QSimRandom(20, 10, 0.5, 6)},
		{Name: "QAOA-rand-20", Circ: bench.QAOARandom(20, 0.5, 12)},
	}
	for _, size := range []int{1, 5, 20, 50} {
		for _, b := range suite {
			cg := graphs.Grid(gridDims(b.Circ.N))
			r := sabre.Route(b.Circ, cg, sabre.Options{ExtendedSize: size, Seed: 1})
			t.AddRow(size, b.Name, r.SwapCount, r.Routed.Depth2Q())
		}
	}
	return t
}

// reversePassSweep varies SABRE's initial-mapping refinement rounds.
func reversePassSweep() *report.Table {
	t := &report.Table{
		Title:  "Ablation: SABRE reverse-traversal passes (FAA-Rectangular)",
		Header: []string{"Passes", "Benchmark", "Swaps", "2Q depth"},
	}
	suite := []bench.Benchmark{
		{Name: "QSim-rand-20", Circ: bench.QSimRandom(20, 10, 0.5, 6)},
		{Name: "QAOA-rand-20", Circ: bench.QAOARandom(20, 0.5, 12)},
	}
	for _, passes := range []int{1, 2, 3} {
		for _, b := range suite {
			cg := graphs.Grid(gridDims(b.Circ.N))
			r := sabre.Route(b.Circ, cg, sabre.Options{ReversePasses: passes, Seed: 1})
			t.AddRow(passes, b.Name, r.SwapCount, r.Routed.Depth2Q())
		}
	}
	return t
}

func gridDims(n int) (int, int) {
	r := 1
	for r*r < n {
		r++
	}
	return r, r
}
