package exp

import (
	"fmt"
	"time"

	"atomique/internal/bench"
	"atomique/internal/compiler"
	"atomique/internal/hardware"
	"atomique/internal/move"
	"atomique/internal/report"
)

// coreOptions returns the default Atomique options with a seed.
func coreOptions(seed int64) compiler.Options { return compiler.Options{Seed: seed} }

// Fig12 samples the constant-jerk movement profile: jerk, acceleration,
// velocity, and distance versus time for a 15 um move over 300 us.
func Fig12() []*report.Table {
	p := hardware.NeutralAtom()
	prof := move.Trajectory(p.AtomDistance, p.TimePerMove, 13)
	t := &report.Table{
		Title:  "Fig 12: atom movement pattern (15um over 300us)",
		Header: []string{"Time (us)", "Jerk (um/us^3)", "Accel (um/us^2)", "Velo (um/us)", "Distance (um)"},
	}
	for i := range prof.Time {
		t.AddRow(
			fmt.Sprintf("%.0f", prof.Time[i]*1e6),
			fmt.Sprintf("%.3g", prof.Jerk[i]*1e-12),   // m/s^3 -> um/us^3
			fmt.Sprintf("%.3g", prof.Accel[i]*1e-6),   // m/s^2 -> um/us^2
			fmt.Sprintf("%.3g", prof.Velocity[i]*1.0), // m/s == um/us
			fmt.Sprintf("%.3g", prof.Position[i]*1e6),
		)
	}
	t.Notes = append(t.Notes, fmt.Sprintf("delta n_vib for this move: %.4f (paper: 0.0054)",
		move.DeltaNvib(p.AtomDistance, p.TimePerMove, p)))
	return []*report.Table{t}
}

// Fig13 runs the main comparison: circuit depth, two-qubit gate count, and
// fidelity for the 17 benchmarks across five architectures.
func Fig13() []*report.Table {
	suite := bench.Fig13Suite()
	depth := &report.Table{Title: "Fig 13a: circuit depth (2Q layers)",
		Header: append([]string{"Benchmark"}, archNames...)}
	gates := &report.Table{Title: "Fig 13b: number of 2Q gates",
		Header: append([]string{"Benchmark"}, archNames...)}
	fid := &report.Table{Title: "Fig 13c: fidelity",
		Header: append([]string{"Benchmark"}, archNames...)}

	depthG := map[string][]float64{}
	gatesG := map[string][]float64{}
	fidG := map[string][]float64{}
	for i, b := range suite {
		all := compileAll(b.Circ, int64(i+1))
		dRow := []interface{}{b.Name}
		gRow := []interface{}{b.Name}
		fRow := []interface{}{b.Name}
		for _, an := range archNames {
			m := all[an]
			dRow = append(dRow, m.Depth2Q)
			gRow = append(gRow, m.N2Q)
			fRow = append(fRow, fmt.Sprintf("%.3f", m.FidelityTotal()))
			depthG[an] = append(depthG[an], float64(m.Depth2Q))
			gatesG[an] = append(gatesG[an], float64(m.N2Q))
			fidG[an] = append(fidG[an], m.FidelityTotal())
		}
		depth.AddRow(dRow...)
		gates.AddRow(gRow...)
		fid.AddRow(fRow...)
	}
	addGMean := func(t *report.Table, g map[string][]float64, format string) {
		row := []interface{}{"GMean"}
		for _, an := range archNames {
			row = append(row, fmt.Sprintf(format, geoMeanColumn(g[an])))
		}
		t.AddRow(row...)
	}
	addGMean(depth, depthG, "%.0f")
	addGMean(gates, gatesG, "%.0f")
	addGMean(fid, fidG, "%.3f")
	fid.Notes = append(fid.Notes,
		"paper GMeans — depth: 700/656/609/415/189; 2Q: 1775/1064/1107/875/316; "+
			"fidelity: 0.000/0.058/0.054/0.097/0.281")
	return []*report.Table{depth, gates, fid}
}

// Fig14Budget bounds the Tan-Solver anytime loop (paper: 24h).
var Fig14Budget = 2 * time.Second

// Fig14 compares Atomique (single AOD) with Tan-Solver and Tan-IterP on the
// small-benchmark suite: fidelity, two-qubit gates, and compile time.
func Fig14() []*report.Table {
	fid := &report.Table{Title: "Fig 14a: fidelity",
		Header: []string{"Benchmark", "Tan-Solver", "Tan-IterP", "Atomique"}}
	gates := &report.Table{Title: "Fig 14b: number of 2Q gates",
		Header: []string{"Benchmark", "Tan-Solver", "Tan-IterP", "Atomique"}}
	ctime := &report.Table{Title: "Fig 14c: compilation time (s)",
		Header: []string{"Benchmark", "Tan-Solver", "Tan-IterP", "Atomique"},
		Notes: []string{"paper: Atomique over 1000x faster than Tan-Solver " +
			"with comparable fidelity (mean 0.88 vs 0.91/0.92)"}}

	// Single-AOD machine for fairness (the baselines lack multi-AOD support).
	cfg := hardware.Config{
		SLM:    hardware.ArraySpec{Rows: 16, Cols: 16},
		AODs:   []hardware.ArraySpec{{Rows: 16, Cols: 16}},
		Params: hardware.NeutralAtom(),
	}
	// All three compilers run on this machine through the registry; the
	// solver's exact mode is the Exact option, the greedy relaxation the
	// default.
	tgt := compiler.FPQA(cfg)
	var fids [3][]float64
	for i, b := range bench.Fig14Suite() {
		solver := mustCompile("solverref", tgt, b.Circ, compiler.Options{
			Seed: int64(i), Exact: true, BudgetSeconds: Fig14Budget.Seconds()})
		iterp := mustCompile("solverref", tgt, b.Circ, compiler.Options{Seed: int64(i)})
		at := mustCompile("atomique", tgt, b.Circ, coreOptions(int64(i))).Metrics

		fmtFid := func(r *compiler.Result) string {
			if r.TimedOut {
				return "timeout"
			}
			return fmt.Sprintf("%.3f", r.Metrics.FidelityTotal())
		}
		fid.AddRow(b.Name, fmtFid(solver), fmtFid(iterp),
			fmt.Sprintf("%.3f", at.FidelityTotal()))
		gates.AddRow(b.Name, solver.Metrics.N2Q, iterp.Metrics.N2Q, at.N2Q)
		ctime.AddRow(b.Name,
			fmt.Sprintf("%.3g", solver.Metrics.CompileTime.Seconds()),
			fmt.Sprintf("%.3g", iterp.Metrics.CompileTime.Seconds()),
			fmt.Sprintf("%.3g", at.CompileTime.Seconds()))
		if !solver.TimedOut {
			fids[0] = append(fids[0], solver.Metrics.FidelityTotal())
		}
		fids[1] = append(fids[1], iterp.Metrics.FidelityTotal())
		fids[2] = append(fids[2], at.FidelityTotal())
	}
	fid.AddRow("Mean",
		fmt.Sprintf("%.3f", mean(fids[0])),
		fmt.Sprintf("%.3f", mean(fids[1])),
		fmt.Sprintf("%.3f", mean(fids[2])))
	return []*report.Table{fid, gates, ctime}
}

func mean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range v {
		s += x
	}
	return s / float64(len(v))
}
