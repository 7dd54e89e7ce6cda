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

const (
	genX0 = 0
	genZ0 = 1
	genX1 = 2
	genZ1 = 3
)

func (ct *conjTable) img(site, gen int) (x, z []uint64) {
	off := (site*4 + gen) * 2 * ct.nw
	return ct.imgs[off : off+ct.nw], ct.imgs[off+ct.nw : off+2*ct.nw]
}

// newConjTable builds the table for a validated Clifford witness. The
// backward sweep maintains M, the image of every qubit's X/Z generator under
// the current suffix; processing gate gi snapshots the images of gi's qubits
// (the suffix AFTER gi is what events at gi see) and then folds gi itself
// into M. Only the processed gate's generators change per step, so the sweep
// is O(gates · n/64) words total.
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

	// M: generator images under the suffix, initialised to the identity map.
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
		// Snapshot the suffix-after-gi images into the site table.
		sx0x, sx0z := ct.img(gi, genX0)
		sz0x, sz0z := ct.img(gi, genZ0)
		mx0x, mx0z := img(g.Q0, 0)
		mz0x, mz0z := img(g.Q0, 1)
		copy(sx0x, mx0x)
		copy(sx0z, mx0z)
		copy(sz0x, mz0x)
		copy(sz0z, mz0z)
		var mx1x, mx1z, mz1x, mz1z []uint64
		if g.IsTwoQubit() {
			sx1x, sx1z := ct.img(gi, genX1)
			sz1x, sz1z := ct.img(gi, genZ1)
			mx1x, mx1z = img(g.Q1, 0)
			mz1x, mz1z = img(g.Q1, 1)
			copy(sx1x, mx1x)
			copy(sx1z, mx1z)
			copy(sz1x, mz1x)
			copy(sz1z, mz1z)
		}
		// Fold gate gi into M: new image of P is suffix(g·P·g†), and g·P·g†
		// (signs dropped) is a GF(2) combination of gi's own generators whose
		// suffix images were just snapshotted. Rules mirror Frame.Conjugate.
		switch g.Op {
		case circuit.OpH:
			copy(mx0x, sz0x)
			copy(mx0z, sz0z)
			copy(mz0x, sx0x)
			copy(mz0z, sx0z)
		case circuit.OpS:
			xorPacked(mx0x, sz0x) // X → Y = X·Z
			xorPacked(mx0z, sz0z)
		case circuit.OpRZ:
			if cliffordQuarterOdd(g) {
				xorPacked(mx0x, sz0x)
				xorPacked(mx0z, sz0z)
			}
		case circuit.OpRX:
			if cliffordQuarterOdd(g) {
				xorPacked(mz0x, sx0x) // Z → Y = X·Z
				xorPacked(mz0z, sx0z)
			}
		case circuit.OpRY, circuit.OpU:
			if cliffordQuarterOdd(g) {
				copy(mx0x, sz0x)
				copy(mx0z, sz0z)
				copy(mz0x, sx0x)
				copy(mz0z, sx0z)
			}
		case circuit.OpCX:
			xorPacked(mx0x, mx1x) // X_c → X_c·X_t
			xorPacked(mx0z, mx1z)
			xorPacked(mz1x, sz0x) // Z_t → Z_c·Z_t
			xorPacked(mz1z, sz0z)
		case circuit.OpCZ:
			xorPacked(mx0x, mz1x) // X_a → X_a·Z_b
			xorPacked(mx0z, mz1z)
			xorPacked(mx1x, sz0x) // X_b → X_b·Z_a
			xorPacked(mx1z, sz0z)
		case circuit.OpZZ:
			if cliffordQuarterOdd(g) {
				xorPacked(mx0x, sz0x) // X_a → X_a·Z_a·Z_b
				xorPacked(mx0z, sz0z)
				xorPacked(mx0x, mz1x)
				xorPacked(mx0z, mz1z)
				xorPacked(mx1x, sz0x) // X_b → X_b·Z_a·Z_b
				xorPacked(mx1z, sz0z)
				xorPacked(mx1x, mz1x)
				xorPacked(mx1z, mz1z)
			}
		case circuit.OpSWAP:
			copy(mx0x, mx1x)
			copy(mx0z, mx1z)
			copy(mz0x, mz1x)
			copy(mz0z, mz1z)
			copy(mx1x, sx0x)
			copy(mx1z, sx0z)
			copy(mz1x, sz0x)
			copy(mz1z, sz0z)
		default:
			// Paulis (and even rotations) conjugate any frame trivially.
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
	var x0, z0, x1, z1 uint64
	bits := func(p int) (x, z uint64) {
		if p != 3 {
			x = 1
		}
		if p != 1 {
			z = 1
		}
		return
	}
	if q == g.Q0 {
		x0, z0 = bits(p)
	} else {
		x1, z1 = bits(p)
	}
	x0, z0, x1, z1 = conjBitsThrough(g, x0, z0, x1, z1)
	for slot, b := range [4]uint64{x0, z0, x1, z1} {
		if b == 1 {
			x, z := ct.img(gi, slot)
			xorPacked(f.X, x)
			xorPacked(f.Z, z)
		}
	}
}

// conjBitsThrough pushes a Pauli on a single gate's qubits through that gate
// (signs dropped) — the scalar twin of Frame.Conjugate.
func conjBitsThrough(g circuit.Gate, x0, z0, x1, z1 uint64) (uint64, uint64, uint64, uint64) {
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
	case circuit.OpRY, circuit.OpU:
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
	return x0, z0, x1, z1
}

func xorPacked(dst, src []uint64) {
	for i, v := range src {
		dst[i] ^= v
	}
}
