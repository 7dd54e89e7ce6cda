package stab

import "math/bits"

// Single-qubit Z measurement on the tableau (the CHP measurement rules).
// The tests use it as a reference: per-qubit outcome probabilities checked
// against the dense simulator's amplitudes. Production code samples whole
// registers through Sampler and never measures one qubit at a time.

// multiplyPivotInto left-multiplies Pauli row p into every row whose bit is
// set in mask m (which must exclude p itself), with sign bookkeeping done for
// all rows at once: two bitplanes s0/s1 accumulate each target row's phase
// sum mod 4 as the columns stream by, and the CHP rowsum identity guarantees
// the sum lands on 0 or 2, so the new sign is r_target ⊕ r_p ⊕ s1.
func (t *Tableau) multiplyPivotInto(p int, m []uint64) {
	s0, s1 := make([]uint64, t.w), make([]uint64, t.w)
	pw, pb := p>>6, uint(p&63)
	for q := 0; q < t.n; q++ {
		xq, zq := t.x[q], t.z[q]
		a := xq[pw]>>pb&1 == 1
		b := zq[pw]>>pb&1 == 1
		if !a && !b {
			continue
		}
		for w := 0; w < t.w; w++ {
			mw := m[w]
			if mw == 0 {
				continue
			}
			X, Z := xq[w], zq[w]
			// g(pivot, target) = +1 on `plus` rows, -1 on `minus` rows.
			var plus, minus uint64
			switch {
			case a && b: // pivot Y
				plus, minus = Z&^X, X&^Z
			case a: // pivot X
				plus, minus = X&Z, Z&^X
			default: // pivot Z
				plus, minus = X&^Z, X&Z
			}
			plus &= mw
			minus &= mw
			carry := s0[w] & plus // += 1 (mod 4)
			s0[w] ^= plus
			s1[w] ^= carry
			s1[w] ^= minus // += 3 ≡ -1 (mod 4): +2 then +1
			carry = s0[w] & minus
			s0[w] ^= minus
			s1[w] ^= carry
			if a {
				xq[w] ^= mw
			}
			if b {
				zq[w] ^= mw
			}
		}
	}
	rp := t.r[pw]>>pb&1 == 1
	for w := 0; w < t.w; w++ {
		if rp {
			t.r[w] ^= m[w]
		}
		t.r[w] ^= s1[w] & m[w]
	}
}

// copyRow overwrites row dst with row src (all columns plus the sign).
func (t *Tableau) copyRow(dst, src int) {
	sw, sb := src>>6, uint(src&63)
	dw, db := dst>>6, uint(dst&63)
	set := func(v []uint64, bit uint64) {
		v[dw] = v[dw]&^(1<<db) | bit<<db
	}
	for q := 0; q < t.n; q++ {
		set(t.x[q], t.x[q][sw]>>sb&1)
		set(t.z[q], t.z[q][sw]>>sb&1)
	}
	set(t.r, t.r[sw]>>sb&1)
}

// zeroRow clears row `row` in every column and the sign vector.
func (t *Tableau) zeroRow(row int) {
	w, b := row>>6, uint(row&63)
	mask := ^(uint64(1) << b)
	for q := 0; q < t.n; q++ {
		t.x[q][w] &= mask
		t.z[q][w] &= mask
	}
	t.r[w] &= mask
}

// randomPivot returns the lowest stabilizer row with an X component on qubit
// q, or -1 when the Z_q measurement is deterministic.
func (t *Tableau) randomPivot(q int) int {
	xq := t.x[q]
	for w := 0; w < t.w; w++ {
		if v := xq[w] & t.stabMask[w]; v != 0 {
			return w<<6 + bits.TrailingZeros64(v)
		}
	}
	return -1
}

// deterministicZ returns the predetermined Z_q outcome: the product of the
// stabilizer rows selected by the destabilizer syndrome is ±Z_q, and the sign
// is the outcome.
func (t *Tableau) deterministicZ(q int) int {
	nw := (t.n + 63) / 64
	xs, zs := make([]uint64, nw), make([]uint64, nw)
	rx, rz := make([]uint64, nw), make([]uint64, nw)
	phase := 0
	for i := 0; i < t.n; i++ {
		if getBit(t.x[q], i) {
			ph := t.row(i+t.n, rx, rz)
			phase = mulPauliRow(rx, rz, xs, zs, ph, phase)
		}
	}
	if ((phase%4)+4)%4 == 2 {
		return 1
	}
	return 0
}

// collapseZ performs the random-outcome collapse around pivot row p.
func (t *Tableau) collapseZ(q, p, outcome int) {
	m := make([]uint64, t.w)
	copy(m, t.x[q])
	m[p>>6] &^= 1 << uint(p&63)
	t.multiplyPivotInto(p, m)
	t.copyRow(p-t.n, p)
	t.zeroRow(p)
	setBit(t.z[q], p)
	if outcome == 1 {
		setBit(t.r, p)
	}
}

// MeasureZ measures qubit q in the computational basis, collapsing the state.
// When the outcome is random (probability ½ each way), coin() supplies the
// outcome bit; when it is determined by the stabilizer group, coin is not
// called. It returns the outcome and whether it was random.
func (t *Tableau) MeasureZ(q int, coin func() bool) (outcome int, random bool) {
	p := t.randomPivot(q)
	if p < 0 {
		return t.deterministicZ(q), false
	}
	outcome = 0
	if coin() {
		outcome = 1
	}
	t.collapseZ(q, p, outcome)
	return outcome, true
}

// ProjectZ post-selects qubit q onto the given outcome, returning that
// outcome's probability at this point: 0.5 for a random measurement (the
// state collapses onto the requested branch), 1 for a deterministic match,
// and 0 for a deterministic mismatch (the state is left unchanged).
func (t *Tableau) ProjectZ(q, outcome int) float64 {
	p := t.randomPivot(q)
	if p < 0 {
		if t.deterministicZ(q) == outcome {
			return 1
		}
		return 0
	}
	t.collapseZ(q, p, outcome)
	return 0.5
}
