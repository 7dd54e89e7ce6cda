package stab

// Expectation returns ⟨P⟩ for a Hermitian Pauli (Phase 0 or 2): +1 or -1 when
// P is, up to sign, in the stabilizer group, and 0 when the expectation is
// indefinite (P anticommutes with some stabilizer). It allocates its own
// scratch, so concurrent calls on a shared read-only tableau are safe.
func (t *Tableau) Expectation(p *Pauli) int {
	if p.n != t.n {
		panic("stab: Pauli width mismatch")
	}
	syn := make([]uint64, t.w)
	if t.syndrome(p.X, p.Z, syn) {
		return 0 // anticommutes with a stabilizer: ⟨P⟩ = 0
	}
	// P commutes with the whole group, so P = ± Π stab_i over the rows the
	// destabilizer syndrome selects. Fold that product and compare signs.
	nw := len(p.X)
	xs, zs := make([]uint64, nw), make([]uint64, nw)
	rx, rz := make([]uint64, nw), make([]uint64, nw)
	phase := 0
	for i := 0; i < t.n; i++ {
		if getBit(syn, i) {
			ph := t.row(i+t.n, rx, rz)
			phase = mulPauliRow(rx, rz, xs, zs, ph, phase)
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
