package exp

import (
	"context"
	"fmt"
	"time"

	"atomique/internal/bench"
	"atomique/internal/compiler"
	"atomique/internal/geyser"
	"atomique/internal/hardware"
	"atomique/internal/report"
)

// Table1 dumps the hardware parameters (Table I).
func Table1() []*report.Table {
	na := hardware.NeutralAtom()
	sc := hardware.Superconducting()
	t := &report.Table{
		Title:  "Table I: hardware parameters",
		Header: []string{"Parameter", "Neutral Atom", "Superconducting"},
	}
	rows := []struct {
		name   string
		na, sc string
	}{
		{"2Q fidelity", fmt.Sprintf("%.4f", na.Fidelity2Q), fmt.Sprintf("%.4f", sc.Fidelity2Q)},
		{"1Q fidelity", fmt.Sprintf("%.5f", na.Fidelity1Q), fmt.Sprintf("%.5f", sc.Fidelity1Q)},
		{"2Q gate T", fmt.Sprintf("%.0fns", na.Time2Q*1e9), fmt.Sprintf("%.0fns", sc.Time2Q*1e9)},
		{"1Q gate T", fmt.Sprintf("%.0fns", na.Time1Q*1e9), fmt.Sprintf("%.1fns", sc.Time1Q*1e9)},
		{"Coherence T", fmt.Sprintf("%.0fs", na.CoherenceT1), fmt.Sprintf("%.4fs", sc.CoherenceT1)},
		{"Atom distance", fmt.Sprintf("%.0fum", na.AtomDistance*1e6), "-"},
		{"T per move", fmt.Sprintf("%.0fus", na.TimePerMove*1e6), "-"},
		{"Atom transfer T", fmt.Sprintf("%.0fus", na.TransferTime*1e6), "-"},
		{"Atom loss P", fmt.Sprintf("%.4f", na.TransferLossP), "-"},
		{"x_zpf", fmt.Sprintf("%.0fnm", na.Xzpf*1e9), "-"},
		{"omega_0", fmt.Sprintf("%.0fkHz", na.Omega0/(2*3.141592653589793)/1e3), "-"},
		{"lambda", fmt.Sprintf("%.3f", na.Lambda), "-"},
	}
	for _, r := range rows {
		t.AddRow(r.name, r.na, r.sc)
	}
	return []*report.Table{t}
}

// Table2Budget bounds the solver feasibility probe per benchmark. The paper
// used a 24-hour timeout per circuit; this scaled-down budget reproduces the
// solved/timeout split at repository-test timescales.
var Table2Budget = 1 * time.Second

// Table2 regenerates the benchmark characteristics table, including the
// Tan-Solver / Tan-IterP feasibility columns.
func Table2() []*report.Table {
	t := &report.Table{
		Title: "Table II: benchmarks",
		Header: []string{"Name", "Type", "Qubits", "2Q gates", "1Q gates",
			"2Q/Q", "Degree/Q", "Tan-Solver", "Tan-IterP"},
		Notes: []string{fmt.Sprintf("solver feasibility probed with a %v budget "+
			"(paper: 24h); solved/timeout split matches at scale", Table2Budget)},
	}
	for _, b := range bench.Table2Suite() {
		s := b.Circ.ComputeStats()
		solver := probeSolver(b, true)
		iterp := probeSolver(b, false)
		t.AddRow(b.Name, b.Type, s.Qubits, s.Num2Q, s.Num1Q,
			fmt.Sprintf("%.1f", s.TwoQPerQ), fmt.Sprintf("%.1f", s.DegreePerQ),
			solver, iterp)
	}
	return []*report.Table{t}
}

func probeSolver(b bench.Benchmark, exact bool) string {
	be := mustBackend("solverref")
	if b.Circ.N > be.Capabilities().MaxQubits {
		return "timeout"
	}
	res, err := be.Compile(context.Background(), compiler.Target{}, b.Circ,
		compiler.Options{Seed: 1, Exact: exact, BudgetSeconds: Table2Budget.Seconds()})
	if err != nil || res.TimedOut {
		return "timeout"
	}
	return "solved"
}

// Table3 compares multi-qubit pulse counts with Geyser on the five Table III
// benchmarks.
func Table3() []*report.Table {
	t := &report.Table{
		Title:  "Table III: number of multi-qubit pulses (lower is better)",
		Header: []string{"Benchmark", "Geyser", "Atomique", "Reduction"},
		Notes: []string{"paper reductions: HHL-7 1.4x, Mermin-Bell-10 1.8x, " +
			"QV-32 2.4x, BV-50 6.5x, BV-70 6.1x"},
	}
	suite := []bench.Benchmark{
		{Name: "HHL-7", Circ: bench.HHL(7, 2, 1)},
		{Name: "Mermin-Bell-10", Circ: bench.MerminBell(10, 58, 2)},
		{Name: "QV-32", Circ: bench.QV(32, 32, 3)},
		{Name: "BV-50", Circ: bench.BV(50, 22, 4)},
		{Name: "BV-70", Circ: bench.BV(70, 36, 5)},
	}
	cfg := hardware.DefaultConfig()
	for _, b := range suite {
		g := mustCompile("geyser", compiler.Target{}, b.Circ, coreOptions(1))
		pulses := int(g.Extra["pulses"])
		m := mustCompile("atomique", compiler.FPQA(cfg), b.Circ, coreOptions(1)).Metrics
		ap := geyser.AtomiquePulses(m.N2Q)
		t.AddRow(b.Name, pulses, ap, fmt.Sprintf("%.1fx", float64(pulses)/float64(ap)))
	}
	return []*report.Table{t}
}
