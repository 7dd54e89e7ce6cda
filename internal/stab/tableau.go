// Package stab is an Aaronson–Gottesman stabilizer tableau simulator over the
// circuit IR: Clifford circuits and Pauli-error trajectories in O(n²) time and
// O(n²/8) bytes instead of the dense simulator's O(2^n), which is what lets
// verification and noise replay run at paper-scale widths (hundreds to
// thousands of qubits).
//
// The tableau is stored column-major: for each qubit q, X(q) and Z(q) are
// packed bitvectors over the 2n generator rows (destabilizers 0..n-1, then
// stabilizers n..2n-1), with the sign vector r packed the same way. Every
// Clifford gate is then a handful of word-wide boolean operations per qubit
// column touched — the CHP update rules vectorized over all rows at once.
//
// Gates outside the Clifford group are rejected with a structured
// *NonCliffordError, which is the signal the automatic dispatcher uses to
// fall back to the dense engine.
package stab

import (
	"fmt"

	"atomique/internal/circuit"
)

// MaxQubits bounds tableau width; memory grows as n²/4 bytes (8 MiB at the
// cap), and the cap is far above every workload in this repository.
const MaxQubits = 4096

// NonCliffordError reports a gate the stabilizer formalism cannot express:
// a T gate, or a parametric rotation at a non-multiple of π/2.
type NonCliffordError struct {
	Gate  circuit.Gate
	Index int // position in the gate stream; -1 when not applicable
}

func (e *NonCliffordError) Error() string {
	if e.Index >= 0 {
		return fmt.Sprintf("stab: gate %d (%v) is not Clifford", e.Index, e.Gate)
	}
	return fmt.Sprintf("stab: gate %v is not Clifford", e.Gate)
}

// Tableau is the packed stabilizer tableau of an n-qubit state. The zero
// value is unusable; construct with New. Methods that mutate it are not safe
// for concurrent use; concurrent trajectory workers share a finished tableau
// read-only through Frame, which carries its own scratch.
type Tableau struct {
	n int // qubits
	w int // words per row-indexed bitvector: ceil(2n/64)

	// x[q][w], z[q][w]: bit i of word w is row (w*64+i)'s X/Z component on
	// qubit q. All columns share one backing array for locality.
	x, z [][]uint64
	r    []uint64 // row signs: bit set ⇒ the generator carries -1

	stabMask []uint64 // bits of the stabilizer rows n..2n-1
}

// New returns the tableau of |0…0⟩ over n qubits.
func New(n int) (*Tableau, error) {
	if n <= 0 || n > MaxQubits {
		return nil, fmt.Errorf("stab: unsupported qubit count %d (want 1..%d)", n, MaxQubits)
	}
	w := (2*n + 63) / 64
	t := &Tableau{
		n: n, w: w,
		x: make([][]uint64, n), z: make([][]uint64, n),
		r:        make([]uint64, w),
		stabMask: make([]uint64, w),
	}
	backing := make([]uint64, 2*n*w)
	for q := 0; q < n; q++ {
		t.x[q] = backing[2*q*w : (2*q+1)*w]
		t.z[q] = backing[(2*q+1)*w : (2*q+2)*w]
		setBit(t.x[q], q)   // destabilizer q = X_q
		setBit(t.z[q], n+q) // stabilizer n+q = Z_q
	}
	for i := n; i < 2*n; i++ {
		setBit(t.stabMask, i)
	}
	return t, nil
}

// N returns the qubit count.
func (t *Tableau) N() int { return t.n }

func setBit(v []uint64, i int)      { v[i>>6] |= 1 << uint(i&63) }
func getBit(v []uint64, i int) bool { return v[i>>6]>>uint(i&63)&1 == 1 }

// --- primitive Clifford updates (word-wide over all 2n rows) ---

func (t *Tableau) hGate(q int) {
	x, z := t.x[q], t.z[q]
	for w := 0; w < t.w; w++ {
		t.r[w] ^= x[w] & z[w]
		x[w], z[w] = z[w], x[w]
	}
}

func (t *Tableau) sGate(q int) {
	x, z := t.x[q], t.z[q]
	for w := 0; w < t.w; w++ {
		t.r[w] ^= x[w] & z[w]
		z[w] ^= x[w]
	}
}

func (t *Tableau) sdgGate(q int) {
	x, z := t.x[q], t.z[q]
	for w := 0; w < t.w; w++ {
		t.r[w] ^= x[w] &^ z[w]
		z[w] ^= x[w]
	}
}

func (t *Tableau) xGate(q int) {
	z := t.z[q]
	for w := 0; w < t.w; w++ {
		t.r[w] ^= z[w]
	}
}

func (t *Tableau) yGate(q int) {
	x, z := t.x[q], t.z[q]
	for w := 0; w < t.w; w++ {
		t.r[w] ^= x[w] ^ z[w]
	}
}

func (t *Tableau) zGate(q int) {
	x := t.x[q]
	for w := 0; w < t.w; w++ {
		t.r[w] ^= x[w]
	}
}

func (t *Tableau) cxGate(c, tg int) {
	xc, zc := t.x[c], t.z[c]
	xt, zt := t.x[tg], t.z[tg]
	for w := 0; w < t.w; w++ {
		t.r[w] ^= xc[w] & zt[w] & ^(xt[w] ^ zc[w])
		xt[w] ^= xc[w]
		zc[w] ^= zt[w]
	}
}

func (t *Tableau) czGate(a, b int) {
	xa, za := t.x[a], t.z[a]
	xb, zb := t.x[b], t.z[b]
	for w := 0; w < t.w; w++ {
		t.r[w] ^= xa[w] & xb[w] & (za[w] ^ zb[w])
		za[w] ^= xb[w]
		zb[w] ^= xa[w]
	}
}

func (t *Tableau) swapGate(a, b int) {
	t.x[a], t.x[b] = t.x[b], t.x[a]
	t.z[a], t.z[b] = t.z[b], t.z[a]
}

// ApplyGate applies one IR gate, decomposing Clifford-angle rotations into
// the primitive updates. It returns a *NonCliffordError (Index -1) for any
// gate outside the Clifford group; the tableau is unchanged on error.
func (t *Tableau) ApplyGate(g circuit.Gate) error {
	switch g.Op {
	case circuit.OpH:
		t.hGate(g.Q0)
	case circuit.OpX:
		t.xGate(g.Q0)
	case circuit.OpY:
		t.yGate(g.Q0)
	case circuit.OpZ:
		t.zGate(g.Q0)
	case circuit.OpS:
		t.sGate(g.Q0)
	case circuit.OpRZ:
		k, ok := circuit.CliffordQuarterTurns(g.Param)
		if !ok {
			return &NonCliffordError{Gate: g, Index: -1}
		}
		t.rzQuarter(g.Q0, k)
	case circuit.OpRX:
		k, ok := circuit.CliffordQuarterTurns(g.Param)
		if !ok {
			return &NonCliffordError{Gate: g, Index: -1}
		}
		// RX(θ) = H · RZ(θ) · H up to global phase.
		switch k {
		case 1, 3:
			t.hGate(g.Q0)
			t.rzQuarter(g.Q0, k)
			t.hGate(g.Q0)
		case 2:
			t.xGate(g.Q0)
		}
	case circuit.OpRY:
		k, ok := circuit.CliffordQuarterTurns(g.Param)
		if !ok {
			return &NonCliffordError{Gate: g, Index: -1}
		}
		// RY(θ) = S · RX(θ) · S† up to global phase.
		switch k {
		case 1, 3:
			t.sdgGate(g.Q0)
			t.hGate(g.Q0)
			t.rzQuarter(g.Q0, k)
			t.hGate(g.Q0)
			t.sGate(g.Q0)
		case 2:
			t.yGate(g.Q0)
		}
	case circuit.OpCX:
		t.cxGate(g.Q0, g.Q1)
	case circuit.OpCZ:
		t.czGate(g.Q0, g.Q1)
	case circuit.OpSWAP:
		t.swapGate(g.Q0, g.Q1)
	case circuit.OpZZ:
		k, ok := circuit.CliffordQuarterTurns(g.Param)
		if !ok {
			return &NonCliffordError{Gate: g, Index: -1}
		}
		// ZZ(π/2) = (S⊗S)·CZ and ZZ(π) = Z⊗Z, all up to global phase.
		switch k {
		case 1:
			t.czGate(g.Q0, g.Q1)
			t.sGate(g.Q0)
			t.sGate(g.Q1)
		case 2:
			t.zGate(g.Q0)
			t.zGate(g.Q1)
		case 3:
			t.czGate(g.Q0, g.Q1)
			t.sdgGate(g.Q0)
			t.sdgGate(g.Q1)
		}
	default: // OpT and anything unknown
		return &NonCliffordError{Gate: g, Index: -1}
	}
	return nil
}

// rzQuarter applies RZ at k quarter-turns (k in 0..3).
func (t *Tableau) rzQuarter(q, k int) {
	switch k {
	case 1:
		t.sGate(q)
	case 2:
		t.zGate(q)
	case 3:
		t.sdgGate(q)
	}
}

// Run applies a gate stream in order, wrapping any rejection with the
// offending gate's stream index.
func (t *Tableau) Run(gates []circuit.Gate) error {
	for i, g := range gates {
		if err := t.ApplyGate(g); err != nil {
			err.(*NonCliffordError).Index = i
			return err
		}
	}
	return nil
}

// FromCircuit runs a whole circuit from |0…0⟩ and returns its tableau.
func FromCircuit(c *circuit.Circuit) (*Tableau, error) {
	t, err := New(c.N)
	if err != nil {
		return nil, err
	}
	if err := t.Run(c.Gates); err != nil {
		return nil, err
	}
	return t, nil
}

// Clone deep-copies the tableau.
func (t *Tableau) Clone() *Tableau {
	out, err := New(t.n)
	if err != nil {
		panic(err) // t.n was already validated
	}
	for q := 0; q < t.n; q++ {
		copy(out.x[q], t.x[q])
		copy(out.z[q], t.z[q])
	}
	copy(out.r, t.r)
	return out
}
