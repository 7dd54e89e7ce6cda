package circuit

import "math"

// CliffordAngleTol is the tolerance under which a rotation angle is
// recognised as a Clifford multiple of π/2. Angles produced symbolically
// (π/2 literals in benchmark generators, qpilot's ancilla lowering) are exact;
// the tolerance absorbs float round-trips through JSON and QASM parsing.
const CliffordAngleTol = 1e-9

// CliffordQuarterTurns reports whether theta is (within CliffordAngleTol) an
// integer multiple of π/2, and if so returns that multiple reduced mod 4:
// 0 → identity, 1 → +π/2, 2 → π, 3 → -π/2 (equivalently +3π/2).
func CliffordQuarterTurns(theta float64) (k int, ok bool) {
	turns := theta / (math.Pi / 2)
	nearest := math.Round(turns)
	if math.Abs(theta-nearest*(math.Pi/2)) > CliffordAngleTol {
		return 0, false
	}
	k = int(math.Mod(nearest, 4))
	if k < 0 {
		k += 4
	}
	return k, true
}

// IsCliffordGate reports whether g is a Clifford operation: H, S, the Paulis,
// CX/CZ/SWAP natively, and the parametric rotations (RX/RY/RZ/ZZ) exactly
// when their angle is a multiple of π/2. T is never Clifford.
func IsCliffordGate(g Gate) bool {
	switch g.Op {
	case OpH, OpX, OpY, OpZ, OpS, OpCX, OpCZ, OpSWAP:
		return true
	case OpRX, OpRY, OpRZ, OpZZ:
		_, ok := CliffordQuarterTurns(g.Param)
		return ok
	default: // OpT and anything unknown
		return false
	}
}

// AllClifford reports whether every gate of the stream is Clifford. It is the
// dispatch predicate for witness gate streams that are not wrapped in a
// Circuit (compiler.Program, noise.Witness).
func AllClifford(gates []Gate) bool {
	for _, g := range gates {
		if !IsCliffordGate(g) {
			return false
		}
	}
	return true
}

// IsClifford reports whether the whole circuit is expressible in the
// stabilizer formalism — the eligibility test for the tableau fast path in
// verification and trajectory simulation.
func (c *Circuit) IsClifford() bool { return AllClifford(c.Gates) }
