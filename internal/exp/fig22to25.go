package exp

import (
	"fmt"

	"atomique/internal/bench"
	"atomique/internal/compiler"
	"atomique/internal/hardware"
	"atomique/internal/report"
)

// fig22Benchmarks are the relaxation-study workloads (large, parallel-heavy).
func fig22Benchmarks() []bench.Benchmark {
	return []bench.Benchmark{
		{Name: "QAOA-rand-100", Circ: bench.QAOARandom(100, 0.1, 51)},
		{Name: "QSim-rand-100", Circ: bench.QSimRandom(100, 10, 0.5, 52)},
		{Name: "Phase-Code-200", Circ: bench.PhaseCode(200, 2)},
	}
}

// Fig22 toggles each hardware constraint and reports movement distance,
// depth, and execution time.
func Fig22() []*report.Table {
	t := &report.Table{
		Title:  "Fig 22: relaxing the hardware constraints",
		Header: []string{"Constraints", "Benchmark", "MoveDist(m)", "Depth", "ExecTime(s)", "2Q gates"},
		Notes: []string{"paper: 2Q count is unchanged; depth and time drop with each relaxation " +
			"(constraint 3 helps most); movement distance rises"},
	}
	configs := []struct {
		name string
		opts compiler.Options
	}{
		{"All constraints", compiler.Options{}},
		{"Relax 1: individual addressing", compiler.Options{RelaxAddressing: true}},
		{"Relax 2: allow order violation", compiler.Options{RelaxOrder: true}},
		{"Relax 3: allow row/col overlap", compiler.Options{RelaxOverlap: true}},
	}
	for _, cc := range configs {
		for _, b := range fig22Benchmarks() {
			cfg := configFor(b.Circ.N)
			opts := cc.opts
			opts.Seed = 3
			m := mustCompile("atomique", compiler.FPQA(cfg), b.Circ, opts).Metrics
			t.AddRow(cc.name, b.Name,
				fmt.Sprintf("%.4f", m.TotalMoveDist),
				m.Depth2Q,
				fmt.Sprintf("%.4f", m.ExecutionTime),
				m.N2Q)
		}
	}
	return []*report.Table{t}
}

// Fig23 compares uniform and mixed SLM/AOD dimensions.
func Fig23() []*report.Table {
	t := &report.Table{
		Title:  "Fig 23: variable sizes across AOD layers",
		Header: []string{"Arrays", "Benchmark", "MoveDist(m)", "2Q gates", "Depth", "ExecTime(s)"},
		Notes: []string{"paper: mixed sizes cut 2Q gates, depth, and time at the cost of " +
			"longer moves"},
	}
	benchmarks := []bench.Benchmark{
		{Name: "QAOA-rand-100", Circ: bench.QAOARandom(100, 0.1, 51)},
		{Name: "QSim-rand-100", Circ: bench.QSimRandom(100, 10, 0.5, 52)},
		{Name: "Phase-Code-100", Circ: bench.PhaseCode(100, 2)},
	}
	configs := []struct {
		name string
		cfg  hardware.Config
	}{
		{"SLM 8x8, AODs 8x8+8x8", hardware.Config{
			SLM:    hardware.ArraySpec{Rows: 8, Cols: 8},
			AODs:   []hardware.ArraySpec{{Rows: 8, Cols: 8}, {Rows: 8, Cols: 8}},
			Params: hardware.NeutralAtom()}},
		{"SLM 10x10, AODs 8x8+6x6", hardware.Config{
			SLM:    hardware.ArraySpec{Rows: 10, Cols: 10},
			AODs:   []hardware.ArraySpec{{Rows: 8, Cols: 8}, {Rows: 6, Cols: 6}},
			Params: hardware.NeutralAtom()}},
	}
	for _, cc := range configs {
		for _, b := range benchmarks {
			m := mustCompile("atomique", compiler.FPQA(cc.cfg), b.Circ, coreOptions(3)).Metrics
			t.AddRow(cc.name, b.Name,
				fmt.Sprintf("%.4f", m.TotalMoveDist),
				m.N2Q, m.Depth2Q,
				fmt.Sprintf("%.4f", m.ExecutionTime))
		}
	}
	return []*report.Table{t}
}

// Fig24 compiles 100-qubit circuits on machines whose per-array size shrinks
// toward the logical qubit count, recording constraint-3 overlap rejections.
func Fig24() []*report.Table {
	t := &report.Table{
		Title: "Fig 24: occupancy pressure (100 logical qubits)",
		Header: []string{"Array size", "Benchmark", "MoveDist(m)", "2Q gates",
			"Depth", "ExecTime(s)", "Overlaps"},
		Notes: []string{"paper: larger AODs reduce overlaps and improve scheduling; " +
			"overlap counts are highly application-dependent"},
	}
	benchmarks := []bench.Benchmark{
		{Name: "QAOA-rand-100", Circ: bench.QAOARandom(100, 0.1, 51)},
		{Name: "QSim-rand-100", Circ: bench.QSimRandom(100, 10, 0.5, 52)},
		{Name: "Phase-Code-100", Circ: bench.PhaseCode(100, 2)},
	}
	for _, size := range []int{6, 8, 10} {
		cfg := hardware.SquareConfig(size, 2)
		for _, b := range benchmarks {
			m := mustCompile("atomique", compiler.FPQA(cfg), b.Circ, coreOptions(3)).Metrics
			t.AddRow(fmt.Sprintf("%dx%d", size, size), b.Name,
				fmt.Sprintf("%.4f", m.TotalMoveDist),
				m.N2Q, m.Depth2Q,
				fmt.Sprintf("%.4f", m.ExecutionTime),
				m.Overlaps)
		}
	}
	return []*report.Table{t}
}

// Fig25 reports the CNOTs added by SWAP insertion on every architecture.
func Fig25() []*report.Table {
	t := &report.Table{
		Title:  "Fig 25: additional CNOT gates from SWAP insertion",
		Header: append([]string{"Benchmark"}, archNames...),
		Notes: []string{"paper means: 1387/693/770/544/27 — Atomique's movement routing " +
			"nearly eliminates SWAP overhead"},
	}
	sums := map[string]float64{}
	count := 0
	for i, b := range bench.Fig13Suite() {
		all := compileAll(b.Circ, int64(i+1))
		row := []interface{}{b.Name}
		for _, an := range archNames {
			row = append(row, all[an].AddedCNOTs)
			sums[an] += float64(all[an].AddedCNOTs)
		}
		t.AddRow(row...)
		count++
	}
	row := []interface{}{"Mean"}
	for _, an := range archNames {
		row = append(row, fmt.Sprintf("%.0f", sums[an]/float64(count)))
	}
	t.AddRow(row...)
	return []*report.Table{t}
}
