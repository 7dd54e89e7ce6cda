package exp

import (
	"fmt"

	"atomique/internal/bench"
	"atomique/internal/circuit"
	"atomique/internal/compiler"
	"atomique/internal/fidelity"
	"atomique/internal/hardware"
	"atomique/internal/metrics"
	"atomique/internal/report"
)

// fig18Benchmarks are the three sensitivity workloads.
func fig18Benchmarks() []bench.Benchmark {
	return []bench.Benchmark{
		{Name: "BV-70", Circ: bench.BV(70, 36, 5)},
		{Name: "QSim-rand-20", Circ: bench.QSimRandom(20, 10, 0.5, 6)},
		{Name: "QAOA-regu5-40", Circ: bench.QAOARegular(40, 5, 15)},
	}
}

// fig18Row runs the three benchmarks on Atomique plus the two FAA baselines
// under the given parameter transform and appends one row per benchmark.
func fig18Row(t *report.Table, label string, mutate func(*hardware.Params)) fidelity.Breakdown {
	var bv70 fidelity.Breakdown
	for _, b := range fig18Benchmarks() {
		cfg := hardware.DefaultConfig()
		mutate(&cfg.Params)
		at := mustCompile("atomique", compiler.FPQA(cfg), b.Circ, coreOptions(1)).Metrics
		// Coupling targets carry the mutated parameters to the baselines.
		faaParams := hardware.NeutralAtom()
		mutate(&faaParams)
		rect := mustSabre(compiler.CouplingWithParams(compiler.FamilyRectangular, 0, faaParams), b.Circ, 1)
		tri := mustSabre(compiler.CouplingWithParams(compiler.FamilyTriangular, 0, faaParams), b.Circ, 1)
		t.AddRow(label, b.Name,
			fmt.Sprintf("%.3f", rect.FidelityTotal()),
			fmt.Sprintf("%.3f", tri.FidelityTotal()),
			fmt.Sprintf("%.3f", at.FidelityTotal()))
		if b.Name == "BV-70" {
			bv70 = at.Fidelity
		}
	}
	return bv70
}

func breakdownRow(t *report.Table, label string, bd fidelity.Breakdown) {
	row := []interface{}{label}
	for _, v := range bd.NegLog() {
		row = append(row, fmt.Sprintf("%.3g", v))
	}
	t.AddRow(row...)
}

// Fig18 sweeps six hardware parameters and reports circuit fidelities plus
// the -log10 error breakdown on BV-70.
func Fig18() []*report.Table {
	header := []string{"Setting", "Benchmark", "FAA-Rect", "FAA-Tri", "Atomique"}
	bheader := append([]string{"Setting"}, fidelity.Labels()...)
	var tables []*report.Table

	// (a) Time per move.
	ta := &report.Table{Title: "Fig 18a: fidelity vs time per move", Header: header,
		Notes: []string{"paper: optimum near 300us — heating dominates below, decoherence above"}}
	tb := &report.Table{Title: "Fig 18a': BV-70 -log10(fidelity) breakdown", Header: bheader}
	for _, us := range []float64{100, 200, 300, 450, 600, 800, 1000} {
		label := fmt.Sprintf("%.0fus", us)
		bd := fig18Row(ta, label, func(p *hardware.Params) { p.TimePerMove = us * 1e-6 })
		breakdownRow(tb, label, bd)
	}
	tables = append(tables, ta, tb)

	// (b) Average move speed (same sweep presented as pitch/Tmov).
	ts := &report.Table{Title: "Fig 18b: fidelity vs average move speed (m/s)", Header: header}
	for _, us := range []float64{1000, 600, 300, 150, 100, 50} {
		label := fmt.Sprintf("%.3f", 15e-6/(us*1e-6))
		fig18Row(ts, label, func(p *hardware.Params) { p.TimePerMove = us * 1e-6 })
	}
	tables = append(tables, ts)

	// (c) Atom distance (Rydberg radius scales with pitch to keep geometry).
	tc := &report.Table{Title: "Fig 18c: fidelity vs atom distance", Header: header,
		Notes: []string{"paper: Atomique leads below ~40um; heating/cooling dominate at 60um"}}
	for _, um := range []float64{5, 10, 15, 25, 40, 60} {
		fig18Row(tc, fmt.Sprintf("%.0fum", um), func(p *hardware.Params) {
			p.AtomDistance = um * 1e-6
			p.RydbergRadius = um * 1e-6 / 6
		})
	}
	tables = append(tables, tc)

	// (d) n_vib cooling threshold at 60um pitch.
	td := &report.Table{Title: "Fig 18d: fidelity vs n_vib cooling threshold (60um pitch)",
		Header: header,
		Notes:  []string{"paper: optimal threshold 12-25; low thresholds over-cool, high thresholds lose atoms"}}
	for _, th := range []float64{5, 10, 15, 20, 25, 30} {
		fig18Row(td, fmt.Sprintf("%.0f", th), func(p *hardware.Params) {
			p.AtomDistance = 60e-6
			p.RydbergRadius = 10e-6
			p.NvibCool = th
		})
	}
	tables = append(tables, td)

	// (e) Coherence time.
	te := &report.Table{Title: "Fig 18e: fidelity vs coherence time", Header: header,
		Notes: []string{"paper: RAA needs T1 >= 1s to beat FAA (movement dominates its runtime)"}}
	for _, t1 := range []float64{0.1, 0.5, 1, 5, 15, 100} {
		fig18Row(te, fmt.Sprintf("%gs", t1), func(p *hardware.Params) { p.CoherenceT1 = t1 })
	}
	tables = append(tables, te)

	// (f) Two-qubit gate fidelity.
	tf := &report.Table{Title: "Fig 18f: fidelity vs 2Q gate fidelity", Header: header,
		Notes: []string{"paper: FAA overtakes RAA above f2Q ~ 0.9999 (SWAPs become cheap)"}}
	for _, f2q := range []float64{0.99, 0.995, 0.9975, 0.999, 0.9999} {
		fig18Row(tf, fmt.Sprintf("%g", f2q), func(p *hardware.Params) { p.Fidelity2Q = f2q })
	}
	tables = append(tables, tf)
	return tables
}

// Fig19 compares Atomique with Q-Pilot on QAOA and QSim workloads.
func Fig19() []*report.Table {
	suite := []bench.Benchmark{
		{Name: "QAOA-rand-10", Circ: bench.QAOARandom(10, 0.5, 11)},
		{Name: "QAOA-rand-20", Circ: bench.QAOARandom(20, 0.5, 12)},
		{Name: "QAOA-regu5-40", Circ: bench.QAOARegular(40, 5, 15)},
		{Name: "QAOA-regu6-100", Circ: bench.QAOARegular(100, 6, 16)},
		{Name: "QSim-rand-10", Circ: bench.QSimRandom(10, 10, 0.5, 26)},
		{Name: "QSim-rand-20", Circ: bench.QSimRandom(20, 10, 0.5, 6)},
		{Name: "QSim-rand-40", Circ: bench.QSimRandom(40, 10, 0.5, 7)},
		{Name: "QSim-rand-100", Circ: bench.QSimRandom(100, 10, 0.5, 30)},
	}
	t := &report.Table{
		Title: "Fig 19: Atomique vs Q-Pilot",
		Header: []string{"Benchmark", "Depth(Atom)", "Depth(QP)",
			"2Q(Atom)", "2Q(QP)", "Fid(Atom)", "Fid(QP)"},
		Notes: []string{"paper: Q-Pilot wins on depth, Atomique on 2Q count and overall fidelity " +
			"(GMean 0.25 vs 0.17)"},
	}
	var fa, fq []float64
	for i, b := range suite {
		at := mustCompile("atomique", compiler.FPQA(configFor(b.Circ.N)), b.Circ, coreOptions(int64(i))).Metrics
		qp := mustCompile("qpilot", compiler.Target{}, b.Circ, coreOptions(int64(i))).Metrics
		t.AddRow(b.Name, at.Depth2Q, qp.Depth2Q, at.N2Q, qp.N2Q,
			fmt.Sprintf("%.3f", at.FidelityTotal()),
			fmt.Sprintf("%.3f", qp.FidelityTotal()))
		fa = append(fa, at.FidelityTotal())
		fq = append(fq, qp.FidelityTotal())
	}
	t.AddRow("GMean", "-", "-", "-", "-",
		fmt.Sprintf("%.3f", geoMeanColumn(fa)), fmt.Sprintf("%.3f", geoMeanColumn(fq)))
	return []*report.Table{t}
}

// fig20Benchmarks are the topology-study workloads.
func fig20Benchmarks() []bench.Benchmark {
	return []bench.Benchmark{
		{Name: "Arb-100Q", Circ: bench.Arbitrary(100, 10, 5, 41)},
		{Name: "QSim-40Q", Circ: bench.QSimRandom(40, 10, 0.5, 42)},
		{Name: "QAOA-40Q", Circ: bench.QAOARegular(40, 5, 43)},
	}
}

func fig20Row(t *report.Table, label string, cfg hardware.Config) {
	for _, b := range fig20Benchmarks() {
		if b.Circ.N > cfg.Capacity() {
			t.AddRow(label, b.Name, "-", "-", "-", "-")
			continue
		}
		m := mustCompile("atomique", compiler.FPQA(cfg), b.Circ, coreOptions(1)).Metrics
		t.AddRow(label, b.Name,
			fmt.Sprintf("%.4f", m.ExecutionTime),
			fmt.Sprintf("%.3f", m.FidelityTotal()),
			fmt.Sprintf("%.4f", m.TotalMoveDist*1e3), // mm
			m.N2Q)
	}
}

// Fig20 studies array topology: shape at fixed atom count, square size, and
// the number of AOD arrays.
func Fig20() []*report.Table {
	header := []string{"Topology", "Benchmark", "ExecTime(s)", "Fidelity", "MoveDist(mm)", "2Q gates"}

	ta := &report.Table{Title: "Fig 20a: same atoms, different row:col shape", Header: header,
		Notes: []string{"paper: square arrays maximise fidelity (shortest moves) " +
			"at slightly higher execution time"}}
	for _, shape := range [][2]int{{49, 1}, {24, 2}, {16, 3}, {12, 4}, {9, 5}, {8, 6},
		{7, 7}, {6, 8}, {5, 9}, {4, 12}, {3, 16}, {2, 24}, {1, 49}} {
		spec := hardware.ArraySpec{Rows: shape[0], Cols: shape[1]}
		cfg := hardware.Config{SLM: spec,
			AODs:   []hardware.ArraySpec{spec, spec},
			Params: hardware.NeutralAtom()}
		fig20Row(ta, fmt.Sprintf("%dx%d", shape[0], shape[1]), cfg)
	}

	tb := &report.Table{Title: "Fig 20b: square arrays of growing size", Header: header,
		Notes: []string{"paper: best fidelity at 7x7; larger arrays lengthen moves"}}
	for _, s := range []int{7, 8, 9, 10, 12, 14, 16, 20} {
		fig20Row(tb, fmt.Sprintf("%dx%d", s, s), hardware.SquareConfig(s, 2))
	}

	tc := &report.Table{Title: "Fig 20c: number of AOD arrays", Header: header,
		Notes: []string{"paper: more AODs enrich the coupling map, cutting gates, time, " +
			"and movement"}}
	for n := 1; n <= 7; n++ {
		fig20Row(tc, fmt.Sprintf("%d AODs", n), hardware.SquareConfig(10, n))
	}
	return []*report.Table{ta, tb, tc}
}

// Fig21 isolates the contribution of each compiler technique by enabling
// them cumulatively over the ablated baseline.
func Fig21() []*report.Table {
	t := &report.Table{
		Title:  "Fig 21: breakdown of technique-induced improvements",
		Header: []string{"Configuration", "GMean fidelity", "Improvement over baseline"},
		Notes: []string{"paper: qubit-array mapper 3.53x, qubit-atom mapper 1.19x, " +
			"high-parallelism router 2.59x; combined 10.9x"},
	}
	configs := []struct {
		name string
		opts compiler.Options
	}{
		{"Baseline (dense + random + serial)",
			compiler.Options{DenseMapper: true, RandomAtomMapper: true, SerialRouter: true}},
		{"+ qubit-array mapper (MAX k-cut)",
			compiler.Options{RandomAtomMapper: true, SerialRouter: true}},
		{"+ qubit-atom mapper (load-balance/aligned)",
			compiler.Options{SerialRouter: true}},
		{"+ high-parallelism router (full Atomique)",
			compiler.Options{}},
	}
	var circuits []*circuit.Circuit
	for seed := int64(1); seed <= 3; seed++ {
		circuits = append(circuits, bench.Arbitrary(50, 26, 10, seed))
	}
	cfg := hardware.DefaultConfig()
	var base float64
	for i, cc := range configs {
		var fids []float64
		for _, c := range circuits {
			opts := cc.opts
			opts.Seed = 7
			fids = append(fids, mustCompile("atomique", compiler.FPQA(cfg), c, opts).Metrics.FidelityTotal())
		}
		g := metrics.GeoMean(fids)
		if i == 0 {
			base = g
		}
		t.AddRow(cc.name, fmt.Sprintf("%.4f", g), fmt.Sprintf("%.2fx", safeDiv(g, base)))
	}
	return []*report.Table{t}
}

func safeDiv(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
