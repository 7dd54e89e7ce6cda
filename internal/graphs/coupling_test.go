package graphs

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

func TestGridTopology(t *testing.T) {
	g := Grid(3, 4)
	if g.N != 12 {
		t.Fatalf("N = %d, want 12", g.N)
	}
	// Interior vertex (1,1) = 5 has degree 4.
	if d := len(g.Neighbors(5)); d != 4 {
		t.Errorf("interior degree = %d, want 4", d)
	}
	// Corner 0 has degree 2.
	if d := len(g.Neighbors(0)); d != 2 {
		t.Errorf("corner degree = %d, want 2", d)
	}
	// Manhattan distance (0,0) -> (2,3) = 5.
	if d := g.Distance(0, 11); d != 5 {
		t.Errorf("Distance(0,11) = %d, want 5", d)
	}
	if !g.Adjacent(0, 1) || g.Adjacent(0, 5) {
		t.Errorf("adjacency wrong")
	}
}

func TestTriangularHasMoreEdges(t *testing.T) {
	rect := Grid(5, 5)
	tri := Triangular(5, 5)
	if tri.NumEdges() <= rect.NumEdges() {
		t.Errorf("triangular edges %d <= rect %d", tri.NumEdges(), rect.NumEdges())
	}
	// Distances can only shrink.
	for a := 0; a < 25; a++ {
		for b := 0; b < 25; b++ {
			if tri.Distance(a, b) > rect.Distance(a, b) {
				t.Fatalf("triangular distance (%d,%d) grew", a, b)
			}
		}
	}
}

func TestLongRangeCouplesDiagonals(t *testing.T) {
	lr := LongRange(4, 4, 1.6)
	// (0,0)=0 and (1,1)=5: distance sqrt(2) <= 1.6, coupled.
	if !lr.Adjacent(0, 5) {
		t.Errorf("diagonal not coupled at range 1.6")
	}
	// (0,0) and (0,2): distance 2 > 1.6, not coupled.
	if lr.Adjacent(0, 2) {
		t.Errorf("distance-2 coupled at range 1.6")
	}
	if lr.NumEdges() <= Grid(4, 4).NumEdges() {
		t.Errorf("long-range should strictly add edges")
	}
}

func TestHeavyHex(t *testing.T) {
	g := HeavyHex(127)
	if g.N != 127 {
		t.Fatalf("N = %d, want 127", g.N)
	}
	// Heavy-hex max degree is 3.
	maxDeg := 0
	for v := 0; v < g.N; v++ {
		if d := len(g.Neighbors(v)); d > maxDeg {
			maxDeg = d
		}
	}
	if maxDeg > 3 {
		t.Errorf("heavy-hex max degree = %d, want <= 3", maxDeg)
	}
	// Must be connected.
	for v := 1; v < g.N; v++ {
		if g.Distance(0, v) < 0 {
			t.Fatalf("heavy-hex disconnected at %d", v)
		}
	}
	// Sparse: edges close to N (heavy-hex has ~1.15 edges per vertex).
	if g.NumEdges() > 2*g.N {
		t.Errorf("heavy-hex too dense: %d edges", g.NumEdges())
	}
}

func TestCompleteMultipartite(t *testing.T) {
	g := CompleteMultipartite([]int{2, 2, 2})
	if g.N != 6 {
		t.Fatalf("N = %d", g.N)
	}
	// Intra-part pairs are not adjacent; cross-part are.
	if g.Adjacent(0, 1) || g.Adjacent(2, 3) || g.Adjacent(4, 5) {
		t.Errorf("intra-part adjacency present")
	}
	if !g.Adjacent(0, 2) || !g.Adjacent(0, 4) || !g.Adjacent(3, 5) {
		t.Errorf("cross-part adjacency missing")
	}
	// All cross distances are 1, intra distances are 2.
	if g.Distance(0, 1) != 2 {
		t.Errorf("intra distance = %d, want 2", g.Distance(0, 1))
	}
	if g.NumEdges() != 12 {
		t.Errorf("edges = %d, want 12", g.NumEdges())
	}
	// The closed form matches the BFS construction over the explicit edge
	// list: same neighbour order, same distances. {3,0,2} has an empty part;
	// {0,4} has one non-empty part, so its within-part distance is -1.
	for _, sizes := range [][]int{{2, 2, 2}, {3, 0, 2}, {0, 4}, {1}, {}, {1, 1}, {5, 1, 3, 4}, {34, 33, 33}} {
		got, want := CompleteMultipartite(sizes), multipartiteByEdges(sizes)
		if got.N != want.N {
			t.Fatalf("%v: N = %d, want %d", sizes, got.N, want.N)
		}
		for a := 0; a < want.N; a++ {
			if !slices.Equal(got.Neighbors(a), want.Neighbors(a)) {
				t.Fatalf("%v: Neighbors(%d) = %v, want %v", sizes, a, got.Neighbors(a), want.Neighbors(a))
			}
			for b := 0; b < want.N; b++ {
				if got.Distance(a, b) != want.Distance(a, b) {
					t.Fatalf("%v: Distance(%d,%d) = %d, want %d", sizes, a, b, got.Distance(a, b), want.Distance(a, b))
				}
			}
		}
	}
	if d := CompleteMultipartite([]int{0, 4}).Distance(0, 1); d != -1 {
		t.Errorf("single-part within distance = %d, want -1", d)
	}
}

// multipartiteByEdges is the reference construction of CompleteMultipartite:
// the explicit cross-part edge list through NewCoupling and its BFS.
func multipartiteByEdges(sizes []int) *Coupling {
	n := 0
	starts := make([]int, len(sizes))
	for i, s := range sizes {
		starts[i] = n
		n += s
	}
	var edges []Edge
	for i := range sizes {
		for j := i + 1; j < len(sizes); j++ {
			for a := starts[i]; a < starts[i]+sizes[i]; a++ {
				for b := starts[j]; b < starts[j]+sizes[j]; b++ {
					edges = append(edges, Edge{a, b})
				}
			}
		}
	}
	return NewCoupling(n, edges)
}

func TestNewCouplingDeduplicatesAndValidates(t *testing.T) {
	g := NewCoupling(3, []Edge{{0, 1}, {1, 0}, {1, 2}})
	if g.NumEdges() != 2 {
		t.Errorf("edges = %d, want 2 (dedup)", g.NumEdges())
	}
	mustPanic(t, func() { NewCoupling(2, []Edge{{0, 2}}) })
	mustPanic(t, func() { NewCoupling(2, []Edge{{1, 1}}) })
}

// Property: BFS distances satisfy the triangle inequality and symmetry on
// random connected graphs.
func TestDistanceMetricProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 4 + rng.Intn(10)
		// Random spanning tree + extra edges for connectivity.
		var edges []Edge
		for v := 1; v < n; v++ {
			edges = append(edges, Edge{rng.Intn(v), v})
		}
		for i := 0; i < n; i++ {
			a, b := rng.Intn(n), rng.Intn(n)
			if a != b {
				if a > b {
					a, b = b, a
				}
				edges = append(edges, Edge{a, b})
			}
		}
		g := NewCoupling(n, edges)
		for a := 0; a < n; a++ {
			for b := 0; b < n; b++ {
				if g.Distance(a, b) != g.Distance(b, a) {
					return false
				}
				for c := 0; c < n; c++ {
					if g.Distance(a, c) > g.Distance(a, b)+g.Distance(b, c) {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}
