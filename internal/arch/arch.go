// Package arch implements the four fixed-topology baseline architectures of
// the paper's evaluation (Fig 13): IBM superconducting (127-qubit heavy-hex),
// Baker long-range FAA (interaction reach 4 r_b over a 2.5 r_b grid), FAA
// with rectangular topology, and FAA with triangular topology. Each baseline
// routes with SABRE (Qiskit optimisation level 3 in the paper) and is scored
// with the same fidelity model as Atomique, minus movement terms.
package arch

import (
	"fmt"
	"math"

	"atomique/internal/circuit"
	"atomique/internal/fidelity"
	"atomique/internal/graphs"
	"atomique/internal/hardware"
	"atomique/internal/metrics"
	"atomique/internal/sabre"
)

// Arch is a fixed-coupling quantum architecture.
type Arch struct {
	Name     string
	Coupling *graphs.Coupling
	Params   hardware.Params
	// DecomposeZZ replaces each ZZ interaction with two CX gates before
	// routing (superconducting hardware has no native ZZ; neutral-atom
	// architectures execute it in one Rydberg interaction).
	DecomposeZZ bool
}

// Superconducting returns the IBM Washington baseline: 127-qubit heavy-hex
// with Table I superconducting parameters.
func Superconducting() Arch {
	return Arch{
		Name:        "Superconducting",
		Coupling:    graphs.HeavyHex(127),
		Params:      hardware.Superconducting(),
		DecomposeZZ: true,
	}
}

// gridFor returns near-square grid dimensions with rows*cols >= n,
// equalising baseline qubit counts with the circuit as the paper does.
func gridFor(n int) (rows, cols int) {
	rows = int(math.Sqrt(float64(n)))
	if rows < 1 {
		rows = 1
	}
	cols = (n + rows - 1) / rows
	return rows, cols
}

// FAARectangular returns a fixed rectangular atom array sized for n qubits.
func FAARectangular(n int) Arch {
	r, c := gridFor(n)
	return Arch{
		Name:     "FAA-Rectangular",
		Coupling: graphs.Grid(r, c),
		Params:   hardware.NeutralAtom(),
	}
}

// FAATriangular returns a fixed triangular atom array sized for n qubits
// (the Geyser topology).
func FAATriangular(n int) Arch {
	r, c := gridFor(n)
	return Arch{
		Name:     "FAA-Triangular",
		Coupling: graphs.Triangular(r, c),
		Params:   hardware.NeutralAtom(),
	}
}

// BakerLongRange returns the Baker et al. fixed array with long-range
// interactions: sites at 2.5 r_b pitch, interaction reach 4 r_b = 1.6 sites,
// which couples rook and diagonal neighbours.
func BakerLongRange(n int) Arch {
	r, c := gridFor(n)
	return Arch{
		Name:     "Baker-Long-Range",
		Coupling: graphs.LongRange(r, c, 1.6),
		Params:   hardware.NeutralAtom(),
	}
}

// Compile routes circ onto the architecture and returns the evaluation
// metrics (gate counts, 2Q depth, added CNOTs, execution time, fidelity).
func Compile(a Arch, circ *circuit.Circuit, seed int64) (metrics.Compiled, error) {
	m, _, err := CompileRouted(a, circ, seed)
	return m, err
}

// CompileRouted is Compile exposing the underlying routing result — the
// physical circuit over device qubits plus the final logical-to-physical
// mapping — which is the execution witness the simulator-backed backend
// verification replays. ZZ interactions appear CX-decomposed in the routed
// circuit when the architecture lacks a native ZZ.
func CompileRouted(a Arch, circ *circuit.Circuit, seed int64) (metrics.Compiled, sabre.Result, error) {
	if circ.N > a.Coupling.N {
		return metrics.Compiled{}, sabre.Result{}, fmt.Errorf(
			"arch: circuit needs %d qubits, %s has %d", circ.N, a.Name, a.Coupling.N)
	}
	prepared := circ
	if a.DecomposeZZ {
		prepared = decomposeZZ(circ)
	}
	res := sabre.Route(prepared, a.Coupling, sabre.Options{Seed: seed})
	routed := res.Routed
	depth2Q := routed.Depth2Q()
	oneQLayers := routed.Num1QLayers()
	m := metrics.Compiled{
		Arch: a.Name,
		Counts: fidelity.Counts{
			NQubits:   circ.N,
			N2Q:       routed.Num2Q(),
			N1Q:       routed.Num1Q(),
			Depth2Q:   depth2Q,
			N1QLayers: oneQLayers,
		},
		SwapCount:     res.SwapCount,
		ExecutionTime: float64(depth2Q)*a.Params.Time2Q + float64(oneQLayers)*a.Params.Time1Q,
	}
	m.Evaluate(a.Params, fidelity.MovementTrace{})
	return m, res, nil
}

// decomposeZZ lowers each ZZ interaction to CX·RZ·CX for hardware without a
// native ZZ gate.
func decomposeZZ(c *circuit.Circuit) *circuit.Circuit {
	out := circuit.New(c.N)
	for _, g := range c.Gates {
		if g.Op == circuit.OpZZ {
			out.CX(g.Q0, g.Q1)
			out.RZ(g.Q1, g.Param)
			out.CX(g.Q0, g.Q1)
			continue
		}
		out.Add(g)
	}
	return out
}
