package noise

import (
	"sort"

	"atomique/internal/circuit"
	"atomique/internal/stab"
)

// conjTable precomputes, for every error site of a Clifford witness, the
// image of an injected Pauli under conjugation by the remaining gate stream.
// With signs dropped (a Pauli frame never needs them), conjugation is linear
// over GF(2): the frame a shot accumulates is just the XOR of each event's
// precomputed image. That turns the per-shot replay from O(gates) — the full
// stream walked for every errored trajectory — into O(events), with the
// table built once per Simulate/Sample call in a single O(gates·n/64)
// backward sweep and shared read-only across workers.
//
// Layout: gate-attached events (pos = gi+1) resolve through the four
// generator images stored for site gi — C(X_q0), C(Z_q0), C(X_q1), C(Z_q1)
// under the suffix gates[gi+1:]. Events at arbitrary (pos, q) — dephasing
// and the no-sites fallbacks — first hop to the next gate touching q (gates
// in between commute with a Pauli on q), conjugate through that single gate
// bitwise, and then XOR that site's generator images.
type conjTable struct {
	n, nw int
	gates []circuit.Gate
	// imgs holds the packed generator images: site gi, generator k
	// (0 = X_Q0, 1 = Z_Q0, 2 = X_Q1, 3 = Z_Q1) occupies the 2·nw words at
	// offset (gi*4+k)·2·nw — X part then Z part. 1Q sites leave k=2,3 zero.
	imgs []uint64
	// byQubit[q] lists, sorted ascending, the gate indices touching q.
	byQubit [][]int32
}

func (ct *conjTable) img(site, gen int) (x, z []uint64) {
	off := (site*4 + gen) * 2 * ct.nw
	return ct.imgs[off : off+ct.nw], ct.imgs[off+ct.nw : off+2*ct.nw]
}

// newConjTable builds the table for a validated Clifford witness. The
// backward sweep maintains m, the image of every qubit's X/Z generator under
// the current suffix. Processing gate gi first snapshots the images of gi's
// generators into site gi (the suffix AFTER gi is what events at gi see),
// then folds gi itself into m: the new image of a generator P is
// suffix(g·P·g†), and g·P·g† (signs dropped) is the product of the gi
// generators conjBitsThrough names, so it is the XOR of their snapshots.
// Only gi's generators change per step, so the sweep is O(gates · n/64)
// words total.
func newConjTable(w Witness) *conjTable {
	n := w.NSlots
	nw := (n + 63) / 64
	ct := &conjTable{
		n: n, nw: nw, gates: w.Gates,
		imgs:    make([]uint64, len(w.Gates)*4*2*nw),
		byQubit: make([][]int32, n),
	}
	for gi, g := range w.Gates {
		ct.byQubit[g.Q0] = append(ct.byQubit[g.Q0], int32(gi))
		if g.IsTwoQubit() {
			ct.byQubit[g.Q1] = append(ct.byQubit[g.Q1], int32(gi))
		}
	}

	// m: generator images under the suffix, initialised to the identity map.
	// Entry q*2+0 is the image of X_q, q*2+1 of Z_q; each is 2·nw words
	// (X part, Z part).
	m := make([]uint64, n*2*2*nw)
	img := func(q, gen int) (x, z []uint64) {
		off := (q*2 + gen) * 2 * nw
		return m[off : off+nw], m[off+nw : off+2*nw]
	}
	for q := 0; q < n; q++ {
		mx, _ := img(q, 0)
		_, mz := img(q, 1)
		mx[q>>6] |= 1 << uint(q&63)
		mz[q>>6] |= 1 << uint(q&63)
	}

	for gi := len(w.Gates) - 1; gi >= 0; gi-- {
		g := w.Gates[gi]
		qs, gens := [2]int{g.Q0, g.Q1}, 2
		if g.IsTwoQubit() {
			gens = 4
		}
		for k := 0; k < gens; k++ {
			sx, sz := ct.img(gi, k)
			mx, mz := img(qs[k/2], k%2)
			copy(sx, mx)
			copy(sz, mz)
		}
		for k := 0; k < gens; k++ {
			var p [4]uint64
			p[k] = 1
			conj := conjBitsThrough(g, p)
			if conj == p {
				continue // g commutes with this generator
			}
			mx, mz := img(qs[k/2], k%2)
			clear(mx)
			clear(mz)
			for j, b := range conj {
				if b == 1 {
					sx, sz := ct.img(gi, j)
					xorPacked(mx, sx)
					xorPacked(mz, sz)
				}
			}
		}
	}
	return ct
}

// cliffordQuarterOdd reports whether a rotation sits at an odd quarter-turn.
// The witness was validated Clifford before table construction, so a
// non-Clifford angle here is an invariant failure.
func cliffordQuarterOdd(g circuit.Gate) bool {
	k, ok := circuit.CliffordQuarterTurns(g.Param)
	if !ok {
		panic("noise: non-Clifford angle reached the conjugation table")
	}
	return k == 1 || k == 3
}

// accumulate XORs one event's end-of-circuit Pauli image into the frame.
func (ct *conjTable) accumulate(f *stab.Frame, e *event) {
	if e.site >= 0 {
		// Gate-attached: the site's generator images are exactly the
		// conjugation of a Pauli injected right after that gate.
		ct.accumGen(f, e.site, 0, e.pauli&3)
		if e.kind == Pauli2Q {
			ct.accumGen(f, e.site, 1, e.pauli>>2)
		}
		return
	}
	switch e.kind {
	case Pauli2Q:
		ct.accumQubit(f, e.pos, e.q0, e.pauli&3)
		ct.accumQubit(f, e.pos, e.q1, e.pauli>>2)
	default: // Pauli1Q fallback, Dephase
		ct.accumQubit(f, e.pos, e.q0, e.pauli&3)
	}
}

// accumGen XORs the image of Pauli p (1=X, 2=Y, 3=Z) on generator slot
// (0 = the site's Q0, 1 = its Q1) into the frame.
func (ct *conjTable) accumGen(f *stab.Frame, site, slot, p int) {
	if p == 0 {
		return
	}
	if p != 3 { // X or Y
		x, z := ct.img(site, slot*2+0)
		xorPacked(f.X, x)
		xorPacked(f.Z, z)
	}
	if p != 1 { // Z or Y
		x, z := ct.img(site, slot*2+1)
		xorPacked(f.X, x)
		xorPacked(f.Z, z)
	}
}

// accumQubit resolves a Pauli p on qubit q injected after pos gates: gates
// before the next one touching q commute with it, so hop there, conjugate
// through that single gate, and land on its site images. When no later gate
// touches q the Pauli survives to the end unchanged.
func (ct *conjTable) accumQubit(f *stab.Frame, pos, q, p int) {
	if p == 0 {
		return
	}
	sites := ct.byQubit[q]
	k := sort.Search(len(sites), func(i int) bool { return int(sites[i]) >= pos })
	if k == len(sites) {
		if p != 3 {
			f.InjectX(q)
		}
		if p != 1 {
			f.InjectZ(q)
		}
		return
	}
	gi := int(sites[k])
	g := ct.gates[gi]
	var in [4]uint64
	slot := 0
	if q != g.Q0 {
		slot = 2
	}
	in[slot], in[slot+1] = uint64(p^p>>1)&1, uint64(p>>1) // X for X/Y, Z for Y/Z
	for j, b := range conjBitsThrough(g, in) {
		if b == 1 {
			x, z := ct.img(gi, j)
			xorPacked(f.X, x)
			xorPacked(f.Z, z)
		}
	}
}

// conjBitsThrough pushes a Pauli on a single gate's qubits, given as its
// generator bits in slot order (X_Q0, Z_Q0, X_Q1, Z_Q1), through that gate
// (signs dropped) — the scalar twin of Frame.Conjugate, and the one rule
// both the table fold and accumQubit apply.
func conjBitsThrough(g circuit.Gate, p [4]uint64) [4]uint64 {
	x0, z0, x1, z1 := p[0], p[1], p[2], p[3]
	switch g.Op {
	case circuit.OpH:
		x0, z0 = z0, x0
	case circuit.OpS:
		z0 ^= x0
	case circuit.OpRZ:
		if cliffordQuarterOdd(g) {
			z0 ^= x0
		}
	case circuit.OpRX:
		if cliffordQuarterOdd(g) {
			x0 ^= z0
		}
	case circuit.OpRY:
		if cliffordQuarterOdd(g) {
			x0, z0 = z0, x0
		}
	case circuit.OpCX:
		x1 ^= x0
		z0 ^= z1
	case circuit.OpCZ:
		z0 ^= x1
		z1 ^= x0
	case circuit.OpZZ:
		if cliffordQuarterOdd(g) {
			d := x0 ^ x1
			z0 ^= d
			z1 ^= d
		}
	case circuit.OpSWAP:
		x0, x1 = x1, x0
		z0, z1 = z1, z0
	}
	return [4]uint64{x0, z0, x1, z1}
}

func xorPacked(dst, src []uint64) {
	for i, v := range src {
		dst[i] ^= v
	}
}
