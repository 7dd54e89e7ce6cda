// Package sim is a dense state-vector quantum simulator used to verify
// compiler correctness: a compiled (routed, scheduled) circuit must be
// semantically equivalent to its source up to the qubit permutation the
// routing introduces. It supports every op in the circuit IR and is
// practical to ~20 qubits — ample for equivalence checking of the routing
// pipeline on randomly generated circuits.
package sim

import (
	"fmt"
	"math"
	"math/cmplx"

	"atomique/internal/circuit"
)

// State is a 2^n-dimensional state vector over n qubits. Qubit 0 is the
// least significant bit of the basis index.
type State struct {
	N   int
	Amp []complex128
}

// MaxQubits is the widest register the dense simulator will allocate: 2^24
// amplitudes (256 MiB). Wider Clifford workloads belong to internal/stab.
const MaxQubits = 24

// TooWideError reports a register beyond the dense simulator's reach. It is
// a returned (not panicked) condition so dispatchers and the compile service
// can degrade gracefully — fall back to the stabilizer engine, or answer the
// client with a 400 instead of crashing a worker.
type TooWideError struct {
	N   int // requested qubit count
	Max int // the dense limit (MaxQubits)
}

func (e *TooWideError) Error() string {
	return fmt.Sprintf("sim: %d qubits exceeds the dense simulator's %d-qubit limit", e.N, e.Max)
}

// NewState returns |0...0> over n qubits, or a *TooWideError when the dense
// representation would exceed MaxQubits.
func NewState(n int) (*State, error) {
	if n < 0 {
		return nil, fmt.Errorf("sim: negative qubit count %d", n)
	}
	if n > MaxQubits {
		return nil, &TooWideError{N: n, Max: MaxQubits}
	}
	s := &State{N: n, Amp: make([]complex128, 1<<uint(n))}
	s.Amp[0] = 1
	return s, nil
}

// MustNew is NewState for callers that have already validated the width
// (tests, and hot loops behind a width-checked entry point); it panics on a
// width the dense simulator cannot hold.
func MustNew(n int) *State {
	s, err := NewState(n)
	if err != nil {
		panic(err)
	}
	return s
}

// Clone deep-copies the state.
func (s *State) Clone() *State {
	out := &State{N: s.N, Amp: make([]complex128, len(s.Amp))}
	copy(out.Amp, s.Amp)
	return out
}

// Apply applies one gate.
func (s *State) Apply(g circuit.Gate) {
	if g.IsTwoQubit() {
		s.apply2Q(g)
		return
	}
	s.apply1Q(g)
}

// Run applies every gate of c in order.
func (s *State) Run(c *circuit.Circuit) {
	if c.N > s.N {
		panic("sim: circuit wider than state")
	}
	for _, g := range c.Gates {
		s.Apply(g)
	}
}

// one-qubit unitaries as [a b; c d] acting on (|0>, |1>).
func gate1Q(op circuit.Op, theta float64) [4]complex128 {
	inv := complex(1/math.Sqrt2, 0)
	switch op {
	case circuit.OpH:
		return [4]complex128{inv, inv, inv, -inv}
	case circuit.OpX:
		return [4]complex128{0, 1, 1, 0}
	case circuit.OpY:
		return [4]complex128{0, -1i, 1i, 0}
	case circuit.OpZ:
		return [4]complex128{1, 0, 0, -1}
	case circuit.OpS:
		return [4]complex128{1, 0, 0, 1i}
	case circuit.OpT:
		return [4]complex128{1, 0, 0, cmplx.Exp(1i * math.Pi / 4)}
	case circuit.OpRX:
		c, sn := complex(math.Cos(theta/2), 0), complex(math.Sin(theta/2), 0)
		return [4]complex128{c, -1i * sn, -1i * sn, c}
	case circuit.OpRY:
		c, sn := complex(math.Cos(theta/2), 0), complex(math.Sin(theta/2), 0)
		return [4]complex128{c, -sn, sn, c}
	case circuit.OpRZ:
		return [4]complex128{cmplx.Exp(complex(0, -theta/2)), 0, 0, cmplx.Exp(complex(0, theta/2))}
	default:
		panic(fmt.Sprintf("sim: not a one-qubit op: %v", op))
	}
}

func (s *State) apply1Q(g circuit.Gate) {
	u := gate1Q(g.Op, g.Param)
	bit := 1 << uint(g.Q0)
	for i := range s.Amp {
		if i&bit != 0 {
			continue
		}
		a0, a1 := s.Amp[i], s.Amp[i|bit]
		s.Amp[i] = u[0]*a0 + u[1]*a1
		s.Amp[i|bit] = u[2]*a0 + u[3]*a1
	}
}

func (s *State) apply2Q(g circuit.Gate) {
	b0 := 1 << uint(g.Q0)
	b1 := 1 << uint(g.Q1)
	switch g.Op {
	case circuit.OpCX:
		for i := range s.Amp {
			// Control set, target clear: swap with target set.
			if i&b0 != 0 && i&b1 == 0 {
				j := i | b1
				s.Amp[i], s.Amp[j] = s.Amp[j], s.Amp[i]
			}
		}
	case circuit.OpCZ:
		for i := range s.Amp {
			if i&b0 != 0 && i&b1 != 0 {
				s.Amp[i] = -s.Amp[i]
			}
		}
	case circuit.OpZZ:
		// exp(-i theta/2 Z⊗Z): phase exp(-i theta/2) on even parity,
		// exp(+i theta/2) on odd parity.
		pe := cmplx.Exp(complex(0, -g.Param/2))
		po := cmplx.Exp(complex(0, g.Param/2))
		for i := range s.Amp {
			if (i&b0 != 0) != (i&b1 != 0) {
				s.Amp[i] *= po
			} else {
				s.Amp[i] *= pe
			}
		}
	case circuit.OpSWAP:
		for i := range s.Amp {
			if i&b0 != 0 && i&b1 == 0 {
				j := (i &^ b0) | b1
				s.Amp[i], s.Amp[j] = s.Amp[j], s.Amp[i]
			}
		}
	default:
		panic(fmt.Sprintf("sim: not a two-qubit op: %v", g.Op))
	}
}

// Fidelity returns |<s|t>|^2.
func Fidelity(s, t *State) float64 {
	if len(s.Amp) != len(t.Amp) {
		panic("sim: dimension mismatch")
	}
	var dot complex128
	for i := range s.Amp {
		dot += cmplx.Conj(s.Amp[i]) * t.Amp[i]
	}
	return real(dot)*real(dot) + imag(dot)*imag(dot)
}

// Norm returns <s|s>.
func (s *State) Norm() float64 {
	t := 0.0
	for _, a := range s.Amp {
		t += real(a)*real(a) + imag(a)*imag(a)
	}
	return t
}

// Permute returns the state with qubit q relabelled to perm[q] (perm must be
// a bijection onto [0, N)). Used to compare a routed circuit's output (on
// physical qubits) with the source circuit's output (on logical qubits).
func (s *State) Permute(perm []int) *State {
	if len(perm) != s.N {
		panic("sim: permutation size mismatch")
	}
	out := &State{N: s.N, Amp: make([]complex128, len(s.Amp))}
	for i, a := range s.Amp {
		j := 0
		for q := 0; q < s.N; q++ {
			if i&(1<<uint(q)) != 0 {
				j |= 1 << uint(perm[q])
			}
		}
		out.Amp[j] = a
	}
	return out
}

// Embed returns the state extended to n qubits, with the original qubit q
// living at position mapping[q] and all new qubits in |0>.
func (s *State) Embed(n int, mapping []int) *State {
	if len(mapping) != s.N {
		panic("sim: mapping size mismatch")
	}
	out := MustNew(n)
	for i := range out.Amp {
		out.Amp[i] = 0
	}
	for i, a := range s.Amp {
		j := 0
		for q := 0; q < s.N; q++ {
			if i&(1<<uint(q)) != 0 {
				j |= 1 << uint(mapping[q])
			}
		}
		out.Amp[j] = a
	}
	return out
}
