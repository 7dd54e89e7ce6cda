package exp

import (
	"fmt"

	"atomique/internal/bench"
	"atomique/internal/circuit"
	"atomique/internal/compiler"
	"atomique/internal/report"
)

// sweepRow records one (x, y) cell of a characteristic sweep: the two-qubit
// gate counts per architecture and Atomique's fidelity improvement over each
// FAA baseline.
func sweepCompile(c *circuit.Circuit, seed int64) (n2q map[string]int, improv map[string]float64) {
	rect := mustSabre(compiler.Coupling(compiler.FamilyRectangular, 0), c, seed)
	tri := mustSabre(compiler.Coupling(compiler.FamilyTriangular, 0), c, seed)
	at := mustCompile("atomique", compiler.FPQA(configFor(c.N)), c, coreOptions(seed)).Metrics
	n2q = map[string]int{
		"FAA-Rectangular": rect.N2Q,
		"FAA-Triangular":  tri.N2Q,
		"Atomique":        at.N2Q,
	}
	improv = map[string]float64{
		"vs FAA-Rectangular": ratio(at.FidelityTotal(), rect.FidelityTotal()),
		"vs FAA-Triangular":  ratio(at.FidelityTotal(), tri.FidelityTotal()),
	}
	return n2q, improv
}

func ratio(a, b float64) float64 {
	const floor = 1e-12 // clamp dead fidelities like the paper's log plots
	if a < floor {
		a = floor
	}
	if b < floor {
		b = floor
	}
	return a / b
}

// Fig15 sweeps 40-qubit generic circuits over two-qubit gates per qubit and
// interaction degree, reporting gate counts and Atomique's fidelity
// improvement over the FAA baselines.
func Fig15() []*report.Table {
	gt := &report.Table{Title: "Fig 15: generic circuits, 40 qubits — 2Q gate count",
		Header: []string{"2Q/Q", "Degree", "FAA-Rect", "FAA-Tri", "Atomique"}}
	ft := &report.Table{Title: "Fig 15: generic circuits — Atomique fidelity improvement",
		Header: []string{"2Q/Q", "Degree", "vs FAA-Rect", "vs FAA-Tri"},
		Notes: []string{"paper: improvement grows with degree (non-locality) and " +
			"with 2Q gates per qubit; slight FAA edge only at degree<=2"}}
	for _, gpq := range []int{2, 6, 10, 14, 18, 22, 26} {
		for _, deg := range []int{2, 3, 4, 5, 6, 7} {
			c := bench.Arbitrary(40, gpq, deg, int64(100*gpq+deg))
			n2q, improv := sweepCompile(c, int64(gpq+deg))
			gt.AddRow(gpq, deg, n2q["FAA-Rectangular"], n2q["FAA-Triangular"], n2q["Atomique"])
			ft.AddRow(gpq, deg,
				fmt.Sprintf("%.2f", improv["vs FAA-Rectangular"]),
				fmt.Sprintf("%.2f", improv["vs FAA-Triangular"]))
		}
	}
	return []*report.Table{gt, ft}
}

// Fig16 sweeps QAOA circuits on d-regular graphs over qubit count and degree.
func Fig16() []*report.Table {
	gt := &report.Table{Title: "Fig 16: QAOA circuits — 2Q gate count",
		Header: []string{"Qubits", "Degree", "FAA-Rect", "FAA-Tri", "Atomique"}}
	ft := &report.Table{Title: "Fig 16: QAOA circuits — Atomique fidelity improvement",
		Header: []string{"Qubits", "Degree", "vs FAA-Rect", "vs FAA-Tri"},
		Notes:  []string{"paper: advantage grows with qubit count and graph degree"}}
	for _, n := range []int{10, 20, 40, 60, 80, 100} {
		for _, deg := range []int{2, 3, 4, 5, 6} {
			if n*deg%2 != 0 || deg >= n {
				continue
			}
			c := bench.QAOARegular(n, deg, int64(10*n+deg))
			n2q, improv := sweepCompile(c, int64(n+deg))
			gt.AddRow(n, deg, n2q["FAA-Rectangular"], n2q["FAA-Triangular"], n2q["Atomique"])
			ft.AddRow(n, deg,
				fmt.Sprintf("%.2f", improv["vs FAA-Rectangular"]),
				fmt.Sprintf("%.2f", improv["vs FAA-Triangular"]))
		}
	}
	return []*report.Table{gt, ft}
}

// Fig17 sweeps quantum-simulation circuits over qubit count and the
// probability of non-identity Pauli terms.
func Fig17() []*report.Table {
	gt := &report.Table{Title: "Fig 17: QSim circuits — 2Q gate count",
		Header: []string{"Qubits", "p(non-I)", "FAA-Rect", "FAA-Tri", "Atomique"}}
	ft := &report.Table{Title: "Fig 17: QSim circuits — Atomique fidelity improvement",
		Header: []string{"Qubits", "p(non-I)", "vs FAA-Rect", "vs FAA-Tri"},
		Notes:  []string{"paper: the less local the Hamiltonian, the larger the advantage"}}
	for _, n := range []int{10, 20, 40, 60, 80, 100} {
		for _, p := range []float64{0.1, 0.3, 0.5, 0.7} {
			c := bench.QSimRandom(n, 10, p, int64(100*n)+int64(p*10))
			n2q, improv := sweepCompile(c, int64(n)+int64(p*100))
			gt.AddRow(n, fmt.Sprintf("%.1f", p),
				n2q["FAA-Rectangular"], n2q["FAA-Triangular"], n2q["Atomique"])
			ft.AddRow(n, fmt.Sprintf("%.1f", p),
				fmt.Sprintf("%.2f", improv["vs FAA-Rectangular"]),
				fmt.Sprintf("%.2f", improv["vs FAA-Triangular"]))
		}
	}
	return []*report.Table{gt, ft}
}
