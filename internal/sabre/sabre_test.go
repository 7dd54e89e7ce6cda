package sabre

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"atomique/internal/circuit"
	"atomique/internal/graphs"
)

// validateRouting checks the fundamental routing invariants: every 2Q gate
// in the routed circuit acts on adjacent physical qubits, and the routed
// circuit implements the same logical interaction multiset (tracked through
// the mapping evolution).
func validateRouting(t *testing.T, c *circuit.Circuit, cg *graphs.Coupling, r Result) {
	t.Helper()
	for _, g := range r.Routed.Gates {
		if g.IsTwoQubit() && !cg.Adjacent(g.Q0, g.Q1) {
			t.Fatalf("routed 2Q gate %v on non-adjacent qubits", g)
		}
	}
	// The routed circuit interleaves original gates and 3-CX swap triplets:
	// its 2Q count must equal original + 3*swaps, and 1Q gates are preserved.
	want2q := c.Num2Q() + 3*r.SwapCount
	if got := r.Routed.Num2Q(); got != want2q {
		t.Fatalf("routed 2Q count = %d, want %d (orig %d + 3*%d swaps)",
			got, want2q, c.Num2Q(), r.SwapCount)
	}
	if c.Num1Q() != r.Routed.Num1Q() {
		t.Fatalf("1Q count changed: %d -> %d", c.Num1Q(), r.Routed.Num1Q())
	}
}

func bell(n int) *circuit.Circuit {
	c := circuit.New(n)
	c.H(0)
	for i := 1; i < n; i++ {
		c.CX(0, i)
	}
	return c
}

func TestRouteAdjacentGateNoSwaps(t *testing.T) {
	cg := graphs.Grid(2, 2)
	c := circuit.New(2)
	c.CX(0, 1)
	r := Route(c, cg, Options{})
	if r.SwapCount != 0 {
		t.Errorf("SwapCount = %d, want 0", r.SwapCount)
	}
	validateRouting(t, c, cg, r)
}

func TestRouteLineNeedsSwaps(t *testing.T) {
	// A 1x5 line, gate between the ends: requires swaps from identity
	// mapping, but the reverse-pass refinement may remap; either way the
	// result must be legal.
	cg := graphs.Grid(1, 5)
	c := circuit.New(5)
	c.CX(0, 4)
	c.CX(0, 1)
	c.CX(3, 4)
	r := Route(c, cg, Options{})
	validateRouting(t, c, cg, r)
}

func TestRouteGHZOnGrid(t *testing.T) {
	cg := graphs.Grid(4, 4)
	c := bell(16)
	r := Route(c, cg, Options{})
	validateRouting(t, c, cg, r)
}

func TestRouteOnHeavyHex(t *testing.T) {
	cg := graphs.HeavyHex(127)
	rng := rand.New(rand.NewSource(3))
	c := circuit.New(30)
	for i := 0; i < 100; i++ {
		a := rng.Intn(30)
		b := rng.Intn(29)
		if b >= a {
			b++
		}
		c.CX(a, b)
	}
	r := Route(c, cg, Options{Seed: 1})
	validateRouting(t, c, cg, r)
	if r.SwapCount == 0 {
		t.Errorf("random circuit on heavy-hex should need swaps")
	}
}

func TestRouteOnMultipartite(t *testing.T) {
	// Complete multipartite: intra-part gates need exactly one swap each in
	// the worst case (distance 2).
	cg := graphs.CompleteMultipartite([]int{4, 4})
	c := circuit.New(8)
	c.CX(0, 1) // both in part 0 under identity mapping
	r := Route(c, cg, Options{InitialMapping: []int{0, 1, 2, 3, 4, 5, 6, 7}})
	validateRouting(t, c, cg, r)
	if r.SwapCount != 1 {
		t.Errorf("SwapCount = %d, want 1", r.SwapCount)
	}
}

// TestPackSlotsAndRouteMultipartite: parts own contiguous slot ranges in
// qubit order, a 2Q-free circuit is only relabelled, and a circuit with an
// intra-part gate is routed on the multipartite coupling.
func TestPackSlotsAndRouteMultipartite(t *testing.T) {
	sizes, slotOf := PackSlots([]int{1, 0, 2, 1, 0}, 3)
	if want := []int{2, 2, 1}; !slices.Equal(sizes, want) {
		t.Fatalf("sizes = %v, want %v", sizes, want)
	}
	if want := []int{2, 0, 4, 3, 1}; !slices.Equal(slotOf, want) {
		t.Fatalf("slotOf = %v, want %v", slotOf, want)
	}

	free := circuit.New(5)
	free.H(2)
	r := RouteMultipartite(free, sizes, slotOf, 1)
	if r.SwapCount != 0 || !slices.Equal(r.FinalMapping, slotOf) {
		t.Errorf("2Q-free circuit: %d swaps, final %v, want 0 and %v", r.SwapCount, r.FinalMapping, slotOf)
	}
	if g := r.Routed.Gates[0]; r.Routed.N != 5 || g.Q0 != 4 {
		t.Errorf("2Q-free circuit: H on slot %d of %d, want slot 4 of 5", g.Q0, r.Routed.N)
	}

	c := circuit.New(5)
	c.CX(1, 4) // both in part 0
	r = RouteMultipartite(c, sizes, slotOf, 1)
	validateRouting(t, c, graphs.CompleteMultipartite(sizes), r)
	if r.SwapCount != 1 {
		t.Errorf("SwapCount = %d, want 1", r.SwapCount)
	}
}

func TestRicherTopologyNeedsFewerSwaps(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	c := circuit.New(25)
	for i := 0; i < 150; i++ {
		a, b := rng.Intn(25), rng.Intn(24)
		if b >= a {
			b++
		}
		c.CX(a, b)
	}
	rect := Route(c, graphs.Grid(5, 5), Options{Seed: 5})
	tri := Route(c, graphs.Triangular(5, 5), Options{Seed: 5})
	lr := Route(c, graphs.LongRange(5, 5, 1.6), Options{Seed: 5})
	if tri.SwapCount > rect.SwapCount {
		t.Errorf("triangular (%d swaps) worse than rectangular (%d)",
			tri.SwapCount, rect.SwapCount)
	}
	if lr.SwapCount > rect.SwapCount {
		t.Errorf("long-range (%d swaps) worse than rectangular (%d)",
			lr.SwapCount, rect.SwapCount)
	}
}

func TestDeterminism(t *testing.T) {
	cg := graphs.Grid(4, 4)
	c := bell(16)
	r1 := Route(c, cg, Options{Seed: 42})
	r2 := Route(c, cg, Options{Seed: 42})
	if r1.SwapCount != r2.SwapCount || r1.Routed.NumGates() != r2.Routed.NumGates() {
		t.Errorf("routing not deterministic for fixed seed")
	}
}

func TestTooManyQubitsPanics(t *testing.T) {
	cg := graphs.Grid(2, 2)
	c := circuit.New(5)
	defer func() {
		if recover() == nil {
			t.Fatalf("expected panic")
		}
	}()
	Route(c, cg, Options{})
}

// Property: routing random circuits on random-size grids always terminates
// with legal adjacent gates and preserves gate counts.
func TestRouteLegalityProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		rows, cols := 2+rng.Intn(3), 2+rng.Intn(3)
		cg := graphs.Grid(rows, cols)
		n := 2 + rng.Intn(cg.N-1)
		c := circuit.New(n)
		for i := 0; i < 5+rng.Intn(40); i++ {
			if rng.Intn(4) == 0 {
				c.H(rng.Intn(n))
				continue
			}
			a, b := rng.Intn(n), rng.Intn(n-1)
			if b >= a {
				b++
			}
			c.CX(a, b)
		}
		r := Route(c, cg, Options{Seed: seed})
		for _, g := range r.Routed.Gates {
			if g.IsTwoQubit() && !cg.Adjacent(g.Q0, g.Q1) {
				return false
			}
		}
		return r.Routed.Num2Q() == c.Num2Q()+3*r.SwapCount &&
			r.Routed.Num1Q() == c.Num1Q()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}
