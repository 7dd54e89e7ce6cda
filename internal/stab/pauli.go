package stab

import (
	"fmt"
	"strings"
)

// Pauli is a qubit-packed Pauli operator i^Phase · Π_q W(x_q, z_q), with
// W(1,1) = Y (so XZ = -iY picks up a phase). Hermitian Paulis — the only kind
// the tableau produces or consumes — have Phase 0 (+P) or 2 (−P).
type Pauli struct {
	n     int
	X, Z  []uint64 // bit q of word q/64
	Phase uint8    // exponent of i, mod 4
}

// NewPauli returns the identity on n qubits.
func NewPauli(n int) *Pauli {
	nw := (n + 63) / 64
	return &Pauli{n: n, X: make([]uint64, nw), Z: make([]uint64, nw)}
}

// N returns the qubit count.
func (p *Pauli) N() int { return p.n }

// Set assigns qubit q's component: (x,z) = (0,0) I, (1,0) X, (0,1) Z, (1,1) Y.
func (p *Pauli) Set(q int, x, z bool) {
	w, b := q>>6, uint(q&63)
	p.X[w] &^= 1 << b
	p.Z[w] &^= 1 << b
	if x {
		p.X[w] |= 1 << b
	}
	if z {
		p.Z[w] |= 1 << b
	}
}

// String renders e.g. "-XIZY" (qubit 0 first).
func (p *Pauli) String() string {
	var sb strings.Builder
	switch p.Phase {
	case 1:
		sb.WriteString("i")
	case 2:
		sb.WriteString("-")
	case 3:
		sb.WriteString("-i")
	}
	for q := 0; q < p.n; q++ {
		x, z := getBit(p.X, q), getBit(p.Z, q)
		switch {
		case x && z:
			sb.WriteByte('Y')
		case x:
			sb.WriteByte('X')
		case z:
			sb.WriteByte('Z')
		default:
			sb.WriteByte('I')
		}
	}
	return sb.String()
}

// StabilizerPauli extracts the i-th stabilizer generator (i in [0,n)) of the
// tableau as a standalone Pauli.
func (t *Tableau) StabilizerPauli(i int) *Pauli {
	if i < 0 || i >= t.n {
		panic(fmt.Sprintf("stab: generator index %d out of range [0,%d)", i, t.n))
	}
	p := NewPauli(t.n)
	p.Phase = uint8(t.row(t.n+i, p.X, p.Z))
	return p
}
