package stab

import (
	"fmt"
	"math/bits"
)

// Sampler draws computational-basis measurement outcomes from a stabilizer
// state without collapsing or copying the tableau. The Z-basis distribution
// of a stabilizer state is uniform over an affine subspace z0 ⊕ span(basis):
// the Z-type subgroup of the stabilizer group pins m = n - k parity
// constraints b·z = s (one per ±Z^b generator), and the X-parts of the
// remaining generators span the k free directions. One Gaussian elimination
// at construction, then each draw is k coin flips and at most k+1 word-packed
// XORs — no per-shot tableau clone, no collapse, safe for concurrent use.
type Sampler struct {
	n, nw int
	z0    []uint64   // one outcome satisfying every Z-type constraint
	basis [][]uint64 // X-part basis of the stabilizer group: the free directions
}

// NewSampler builds a Sampler from the tableau's stabilizer rows. The tableau
// is read but not modified.
func (t *Tableau) NewSampler() (*Sampler, error) {
	n := t.n
	nw := (n + 63) / 64
	// Extract the stabilizer rows n..2n-1 into row-major packed Paulis.
	rx := make([][]uint64, n)
	rz := make([][]uint64, n)
	ph := make([]int, n)
	backing := make([]uint64, 2*n*nw)
	for i := 0; i < n; i++ {
		rx[i] = backing[2*i*nw : (2*i+1)*nw]
		rz[i] = backing[(2*i+1)*nw : (2*i+2)*nw]
		ph[i] = t.row(n+i, rx[i], rz[i])
	}

	xbit := func(v []uint64, q int) bool { return v[q>>6]>>uint(q&63)&1 == 1 }

	// Reduced row echelon over the X-parts: after this loop each pivot column
	// has exactly one row carrying it, pivot rows span the X-projection of
	// the group, and every non-pivot row is Z-type (zero X-part) with its
	// sign tracked through the Pauli products.
	used := make([]bool, n)
	var pivotRows []int
	for q := 0; q < n; q++ {
		p := -1
		for i := 0; i < n; i++ {
			if !used[i] && xbit(rx[i], q) {
				p = i
				break
			}
		}
		if p < 0 {
			continue
		}
		used[p] = true
		pivotRows = append(pivotRows, p)
		for i := 0; i < n; i++ {
			if i != p && xbit(rx[i], q) {
				ph[i] = mulPauliRow(rx[p], rz[p], rx[i], rz[i], ph[p], ph[i])
			}
		}
	}

	s := &Sampler{n: n, nw: nw, z0: make([]uint64, nw)}
	for _, p := range pivotRows {
		v := make([]uint64, nw)
		copy(v, rx[p])
		s.basis = append(s.basis, v)
	}

	// Solve the Z-type constraints b·z0 = s for one satisfying outcome:
	// reduce the (b | s) system to reduced row echelon and read z0 off the
	// pivot columns, free columns zero. The b vectors are independent
	// (independent generators never multiply to ±I), so the system is
	// always consistent.
	var cons []int
	for i := 0; i < n; i++ {
		if !used[i] {
			if m := ((ph[i] % 4) + 4) % 4; m != 0 && m != 2 {
				return nil, fmt.Errorf("stab: Z-type stabilizer with non-Hermitian phase i^%d", m)
			}
			cons = append(cons, i)
		}
	}
	taken := make([]bool, len(cons))
	type cpivot struct{ row, q int }
	var cps []cpivot
	for q := 0; q < n; q++ {
		p := -1
		for ci, i := range cons {
			if !taken[ci] && xbit(rz[i], q) {
				p = ci
				break
			}
		}
		if p < 0 {
			continue
		}
		taken[p] = true
		pi := cons[p]
		cps = append(cps, cpivot{row: pi, q: q})
		for ci, i := range cons {
			if ci != p && xbit(rz[i], q) {
				// Z-type × Z-type: no cross phase, signs just add.
				for w := 0; w < nw; w++ {
					rz[i][w] ^= rz[pi][w]
				}
				ph[i] += ph[pi]
			}
		}
	}
	// Only after the full reduction does each pivot row carry exactly its own
	// pivot column plus free columns — with free bits zero, z0's pivot bit is
	// the row's final sign.
	for _, cp := range cps {
		if ((ph[cp.row]%4)+4)%4 == 2 {
			s.z0[cp.q>>6] |= 1 << uint(cp.q&63)
		}
	}
	for ci, i := range cons {
		if !taken[ci] {
			// A dependent constraint row must have reduced to +I.
			if ((ph[i]%4)+4)%4 == 2 {
				return nil, fmt.Errorf("stab: inconsistent Z-type constraints (tableau corrupt)")
			}
		}
	}
	return s, nil
}

// row copies generator row i into the qubit-packed scratch (xs, zs), which
// it clears first, and returns the row's i-exponent phase: 0, or 2 for a -1
// sign (generators are Hermitian ±P).
func (t *Tableau) row(i int, xs, zs []uint64) int {
	clear(xs)
	clear(zs)
	w, b := i>>6, uint(i&63)
	for q := 0; q < t.n; q++ {
		xs[q>>6] |= (t.x[q][w] >> b & 1) << uint(q&63)
		zs[q>>6] |= (t.z[q][w] >> b & 1) << uint(q&63)
	}
	return 2 * int(t.r[w]>>b&1)
}

// mulPauliRow left-multiplies Pauli (x1,z1,phase ph1) into (x2,z2,ph2) in
// place and returns the product's i-exponent (unnormalised; reduce it mod 4
// once a fold ends). The per-qubit Aaronson–Gottesman phase function is
// evaluated word-wide: classify each qubit as contributing +1 or -1 and
// popcount the two planes.
func mulPauliRow(x1, z1, x2, z2 []uint64, ph1, ph2 int) int {
	phase := ph1 + ph2
	for w := range x1 {
		a, b, c, d := x1[w], z1[w], x2[w], z2[w]
		plus := (a & b & d &^ c) | (a &^ b & c & d) | (b &^ a & c &^ d)
		minus := (a & b & c &^ d) | (a &^ b & d &^ c) | (b &^ a & c & d)
		phase += bits.OnesCount64(plus) - bits.OnesCount64(minus)
		x2[w] ^= a
		z2[w] ^= b
	}
	return phase
}

// FreeBits returns k, the number of coin flips per draw (the affine
// subspace's dimension); every outcome has probability 2^-k.
func (s *Sampler) FreeBits() int { return len(s.basis) }

// Shot draws one outcome into dst (qubit-packed, (n+63)/64 words): z0 XOR a
// uniformly random combination of the basis vectors. rand supplies 64 fresh
// random bits per call; ceil(k/64) calls are consumed (zero when the outcome
// is deterministic). Concurrent Shots on one Sampler are safe — all state is
// read-only.
func (s *Sampler) Shot(dst []uint64, rand func() uint64) {
	copy(dst, s.z0)
	for j := 0; j < len(s.basis); j += 64 {
		coins := rand()
		end := j + 64
		if end > len(s.basis) {
			end = len(s.basis)
		}
		for b := j; b < end; b++ {
			if coins>>uint(b-j)&1 == 1 {
				for w, v := range s.basis[b] {
					dst[w] ^= v
				}
			}
		}
	}
}
