package stab

// gExp returns the exponent of i in W(x1,z1)·W(x2,z2) = i^g · W(x1^x2, z1^z2)
// — the Aaronson–Gottesman phase function, with (x1,z1) the operator being
// multiplied in from the left and (x2,z2) the accumulator. All arguments are
// single bits.
func gExp(x1, z1, x2, z2 uint64) int {
	switch {
	case x1 == 1 && z1 == 1: // Y·
		return int(z2) - int(x2)
	case x1 == 1: // X·
		if z2 == 1 {
			return 2*int(x2) - 1
		}
		return 0
	case z1 == 1: // Z·
		if x2 == 1 {
			return 1 - 2*int(z2)
		}
		return 0
	default:
		return 0
	}
}

// foldRow multiplies tableau row `row` into the qubit-packed scratch Pauli
// (xs, zs) and returns the updated i-exponent (unnormalised; reduce mod 4 at
// the end of the fold).
func (t *Tableau) foldRow(row int, xs, zs []uint64, phase int) int {
	w, b := row>>6, uint(row&63)
	if t.r[w]>>b&1 == 1 {
		phase += 2
	}
	for q := 0; q < t.n; q++ {
		x1 := t.x[q][w] >> b & 1
		z1 := t.z[q][w] >> b & 1
		if x1 == 0 && z1 == 0 {
			continue
		}
		qw, qb := q>>6, uint(q&63)
		phase += gExp(x1, z1, xs[qw]>>qb&1, zs[qw]>>qb&1)
		xs[qw] ^= x1 << qb
		zs[qw] ^= z1 << qb
	}
	return phase
}

// Expectation returns ⟨P⟩ for a Hermitian Pauli (Phase 0 or 2): +1 or -1 when
// P is, up to sign, in the stabilizer group, and 0 when the expectation is
// indefinite (P anticommutes with some stabilizer). It allocates its own
// scratch, so concurrent calls on a shared read-only tableau are safe.
func (t *Tableau) Expectation(p *Pauli) int {
	if p.n != t.n {
		panic("stab: Pauli width mismatch")
	}
	// Row syndrome: bit i set ⇔ P anticommutes with generator row i.
	syn := make([]uint64, t.w)
	for q := 0; q < t.n; q++ {
		qw, qb := q>>6, uint(q&63)
		if p.X[qw]>>qb&1 == 1 {
			for w := 0; w < t.w; w++ {
				syn[w] ^= t.z[q][w]
			}
		}
		if p.Z[qw]>>qb&1 == 1 {
			for w := 0; w < t.w; w++ {
				syn[w] ^= t.x[q][w]
			}
		}
	}
	for w := 0; w < t.w; w++ {
		if syn[w]&t.stabMask[w] != 0 {
			return 0 // anticommutes with a stabilizer: ⟨P⟩ = 0
		}
	}
	// P commutes with the whole group, so P = ± Π stab_i over the rows the
	// destabilizer syndrome selects. Fold that product and compare signs.
	nw := (t.n + 63) / 64
	xs, zs := make([]uint64, nw), make([]uint64, nw)
	phase := 0
	for i := 0; i < t.n; i++ {
		if syn[i>>6]>>uint(i&63)&1 == 1 {
			phase = t.foldRow(i+t.n, xs, zs, phase)
		}
	}
	for w := 0; w < nw; w++ {
		if xs[w] != p.X[w] || zs[w] != p.Z[w] {
			return 0 // not in the group (impossible for a maximal tableau)
		}
	}
	if uint8(((phase%4)+4)%4) == p.Phase {
		return 1
	}
	return -1
}
