package exp

import (
	"fmt"

	"atomique/internal/bench"
	"atomique/internal/compiler"
	"atomique/internal/metrics"
	"atomique/internal/report"
)

// zonedSuite is the zoned-vs-flat workload set: one representative per
// Table II circuit family at sizes both machines hold comfortably.
func zonedSuite() []bench.Benchmark {
	return []bench.Benchmark{
		{Name: "GHZ-20", Circ: bench.GHZ(20)},
		{Name: "QAOA-regu5-40", Circ: bench.QAOARegular(40, 5, 15)},
		{Name: "QSim-30", Circ: bench.QSimRandom(30, 60, 0.5, 9)},
		{Name: "QV-32", Circ: bench.QV(32, 32, 3)},
		{Name: "BV-50", Circ: bench.BV(50, 22, 4)},
	}
}

// ZonedVsFlat compares the flat Atomique RAA pipeline with the ZAP-style
// zoned backend on a representative benchmark set. The comparison shows the
// zoned trade-off: routing disappears (no SWAP-inserted CNOTs — any pair
// meets in the entangling zone) and depth tracks the gate-site count, but
// every two-qubit gate pays two shuttle legs and four trap-tweezer
// transfers, so transfer loss and shuttle latency dominate where the flat
// machine's AOD parallelism dominates.
func ZonedVsFlat() []*report.Table {
	t := &report.Table{
		Title: "Zoned vs flat FPQA (Atomique pipeline vs ZAP-style zoned backend)",
		Header: []string{"Benchmark", "Depth flat", "Depth zoned", "+CNOT flat", "+CNOT zoned",
			"Time flat", "Time zoned", "Move flat", "Move zoned", "Fid flat", "Fid zoned"},
		Notes: []string{
			"Depth = movement stages / shuttle rounds; Time = schedule length (s); Move = total atom transport (mm)",
			"zoned pays 4 trap-tweezer transfers per 2Q gate + the readout shuttle; flat pays SWAP CNOTs instead",
		},
	}
	var fidsFlat, fidsZoned []float64
	for _, b := range zonedSuite() {
		flat := mustCompile("atomique", compiler.FPQA(configFor(b.Circ.N)), b.Circ, compiler.Options{Seed: 7}).Metrics
		zoned := mustCompile("zoned", compiler.Target{}, b.Circ, compiler.Options{Seed: 7}).Metrics
		fidsFlat = append(fidsFlat, flat.FidelityTotal())
		fidsZoned = append(fidsZoned, zoned.FidelityTotal())
		t.AddRow(b.Name,
			flat.Depth2Q, zoned.Depth2Q,
			flat.AddedCNOTs, zoned.AddedCNOTs,
			fmt.Sprintf("%.4f", flat.ExecutionTime), fmt.Sprintf("%.4f", zoned.ExecutionTime),
			fmt.Sprintf("%.2f", flat.TotalMoveDist*1e3), fmt.Sprintf("%.2f", zoned.TotalMoveDist*1e3),
			fmt.Sprintf("%.4f", flat.FidelityTotal()), fmt.Sprintf("%.4f", zoned.FidelityTotal()))
	}
	t.AddRow("GMean fidelity", "", "", "", "", "", "", "", "",
		fmt.Sprintf("%.4f", metrics.GeoMean(fidsFlat)), fmt.Sprintf("%.4f", metrics.GeoMean(fidsZoned)))
	return []*report.Table{t}
}
