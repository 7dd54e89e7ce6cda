package sabre_test

import (
	"testing"

	"atomique/internal/arch"
	"atomique/internal/bench"
	"atomique/internal/graphs"
	"atomique/internal/sabre"
)

// TestReleaseValve routes two seeded inputs on which the lookahead heuristic
// cycles, inserting SWAPs without executing a gate until the heap runs out
// (the sabre backend on QV-32 over the rectangular family, and geyser, which
// routes with SABRE, on QAOA-regu5-40 over heavy-hex). With the release
// valve both finish, and the result is still a faithful routing: every 2Q
// gate acts on coupled qubits, and the only 2Q gates added are the three CX
// of each SWAP.
func TestReleaseValve(t *testing.T) {
	for _, tc := range []struct {
		name, bench string
		cg          *graphs.Coupling
		seed        int64
	}{
		{"sabre/QV-32/rectangular", "QV-32", arch.FAARectangular(32).Coupling, 100001021551},
		{"geyser/QAOA-regu5-40/superconducting", "QAOA-regu5-40", arch.Superconducting().Coupling, 401933405019},
	} {
		t.Run(tc.name, func(t *testing.T) {
			b, ok := bench.ByName(tc.bench)
			if !ok {
				t.Fatalf("benchmark %s not registered", tc.bench)
			}
			res := sabre.Route(b.Circ, tc.cg, sabre.Options{Seed: tc.seed})
			for i, g := range res.Routed.Gates {
				if g.IsTwoQubit() && !tc.cg.Adjacent(g.Q0, g.Q1) {
					t.Fatalf("routed gate %d (%v) acts on uncoupled qubits", i, g)
				}
			}
			if got, want := res.Routed.Num2Q(), b.Circ.Num2Q()+3*res.SwapCount; got != want {
				t.Errorf("routed 2Q count %d, want input %d + 3 x %d swaps = %d",
					got, b.Circ.Num2Q(), res.SwapCount, want)
			}
		})
	}
}
