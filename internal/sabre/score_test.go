package sabre

import (
	"math/rand"
	"slices"
	"sort"
	"testing"

	"atomique/internal/circuit"
	"atomique/internal/graphs"
)

// candidatesRef is the reference candidate set: every edge at a front gate's
// physical qubits, deduplicated through a map and sorted lexicographically.
func candidatesRef(cg *graphs.Coupling, l2p []int, front []circuit.Gate) [][2]int {
	seen := map[[2]int]bool{}
	var candidates [][2]int
	for _, g := range front {
		for _, q := range []int{g.Q0, g.Q1} {
			p := l2p[q]
			for _, nb := range cg.Neighbors(p) {
				a, b := min(p, nb), max(p, nb)
				if !seen[[2]int{a, b}] {
					seen[[2]int{a, b}] = true
					candidates = append(candidates, [2]int{a, b})
				}
			}
		}
	}
	sort.Slice(candidates, func(i, j int) bool {
		if candidates[i][0] != candidates[j][0] {
			return candidates[i][0] < candidates[j][0]
		}
		return candidates[i][1] < candidates[j][1]
	})
	return candidates
}

// swapCostRef is the reference score: every front and extended-set gate's
// distance recomputed under the swapped mapping.
func swapCostRef(cg *graphs.Coupling, l2p []int, front, ext []circuit.Gate,
	swap [2]int, decay []float64) float64 {

	pos := func(q int) int {
		p := l2p[q]
		if p == swap[0] {
			return swap[1]
		}
		if p == swap[1] {
			return swap[0]
		}
		return p
	}
	fcost := 0.0
	for _, g := range front {
		fcost += float64(cg.Distance(pos(g.Q0), pos(g.Q1)))
	}
	fcost /= float64(len(front))
	ecost := 0.0
	if len(ext) > 0 {
		for _, g := range ext {
			ecost += float64(cg.Distance(pos(g.Q0), pos(g.Q1)))
		}
		ecost /= float64(len(ext))
	}
	d := 1 + decay[swap[0]] + decay[swap[1]]
	return d * (fcost + extendedWeight*ecost)
}

// TestDeltaScoreMatchesFullRecompute drives the delta scorer over random
// mappings, fronts, extended sets and decay on every coupling family the
// router serves. Its candidates must be the reference set in the reference
// order (the tie-break RNG depends on it), every cost must equal the full
// recompute exactly, and the per-qubit indexes must be clear afterwards.
func TestDeltaScoreMatchesFullRecompute(t *testing.T) {
	couplings := map[string]*graphs.Coupling{
		"grid":         graphs.Grid(5, 6),
		"heavy-hex":    graphs.HeavyHex(40),
		"triangular":   graphs.Triangular(5, 5),
		"long-range":   graphs.LongRange(5, 5, 1.6),
		"multipartite": graphs.CompleteMultipartite([]int{7, 6, 5}),
	}
	for name, cg := range couplings {
		rng := rand.New(rand.NewSource(11))
		r := &router{cg: cg, frontAt: slices.Repeat([]int{-1}, cg.N), extAt: make([][]int, cg.N)}
		for trial := 0; trial < 300; trial++ {
			n := 2 + rng.Intn(cg.N-1)
			l2p := rng.Perm(cg.N)[:n]
			logical := rng.Perm(n)
			var front []circuit.Gate
			for k := 0; k+1 < n && (k == 0 || rng.Intn(3) > 0); k += 2 {
				front = append(front, circuit.Gate{Op: circuit.OpCX, Q0: logical[k], Q1: logical[k+1]})
			}
			var ext []circuit.Gate
			for k := rng.Intn(21); k > 0; k-- {
				perm := rng.Perm(n)
				ext = append(ext, circuit.Gate{Op: circuit.OpCX, Q0: perm[0], Q1: perm[1]})
			}
			decay := make([]float64, cg.N)
			for p := range decay {
				decay[p] = decayStep * float64(rng.Intn(5))
				if rng.Intn(4) == 0 {
					decay[p] = rng.Float64()
				}
			}

			r.indexGates(l2p, front, ext)
			want := candidatesRef(cg, l2p, front)
			keys := r.candidates(l2p, front)
			if len(keys) != len(want) {
				t.Fatalf("%s trial %d: %d candidates, want %d", name, trial, len(keys), len(want))
			}
			for i, key := range keys {
				a, b := key/cg.N, key%cg.N
				if [2]int{a, b} != want[i] {
					t.Fatalf("%s trial %d: candidate %d = (%d,%d), want %v", name, trial, i, a, b, want[i])
				}
				got, ref := r.swapCost(l2p, front, ext, a, b, decay), swapCostRef(cg, l2p, front, ext, want[i], decay)
				if got != ref {
					t.Fatalf("%s trial %d: swapCost(%d,%d) = %v, full recompute %v", name, trial, a, b, got, ref)
				}
			}
			r.unindexGates(l2p, front, ext)
			for p := 0; p < cg.N; p++ {
				if r.frontAt[p] != -1 || len(r.extAt[p]) != 0 {
					t.Fatalf("%s trial %d: index at %d not cleared", name, trial, p)
				}
			}
		}
	}
}
