package exp

import (
	"fmt"
	"time"

	"atomique/internal/bench"
	"atomique/internal/compiler"
	"atomique/internal/core"
	"atomique/internal/report"
)

// Scaling measures compilation time versus circuit size for Atomique and
// Tan-IterP — the scalability claim behind Fig 14 and Table II ("the
// solver-based compiler times out beyond ~20 qubits; Atomique compiles
// 100-qubit circuits in milliseconds") — plus the per-pass breakdown of
// where Atomique's compile time goes as circuits grow.
func Scaling() []*report.Table {
	t := &report.Table{
		Title: "Scaling: compile time vs circuit size (QAOA, 3-regular)",
		Header: []string{"Qubits", "2Q gates", "Atomique (ms)", "Tan-IterP (ms)",
			"Atomique depth", "IterP depth"},
		Notes: []string{"Tan-Solver is omitted beyond toy sizes (exponential); " +
			"see Table II for its timeout frontier"},
	}
	passes := &report.Table{
		Title:  "Scaling: Atomique per-pass compile time (ms)",
		Header: append([]string{"Qubits"}, core.PassNames()...),
		Notes:  []string{"pipeline pass wall times from metrics.Passes; cache hits reuse the owner compilation's measurements"},
	}
	for _, n := range []int{10, 20, 40, 60, 80, 100} {
		c := bench.QAOARegular(n, 3, int64(n))
		cfg := configFor(n)

		start := time.Now()
		at := mustCompile("atomique", compiler.FPQA(cfg), c, coreOptions(1)).Metrics
		atMS := float64(time.Since(start).Microseconds()) / 1000

		iterp := mustCompile("solverref", compiler.Target{}, c, compiler.Options{Seed: 1})
		t.AddRow(n, c.Num2Q(),
			fmt.Sprintf("%.2f", atMS),
			fmt.Sprintf("%.2f", float64(iterp.Metrics.CompileTime.Microseconds())/1000),
			at.Depth2Q, iterp.Metrics.Depth2Q)

		row := []interface{}{n}
		for _, name := range core.PassNames() {
			cell := "-"
			for _, p := range at.Passes {
				if p.Name == name {
					cell = fmt.Sprintf("%.3f", p.Seconds*1e3)
					break
				}
			}
			row = append(row, cell)
		}
		passes.AddRow(row...)
	}
	return []*report.Table{t, passes}
}
