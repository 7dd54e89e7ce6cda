package circuit

import "math"

// Append concatenates other onto c (other must not reference qubits beyond
// c's register).
func (c *Circuit) Append(other *Circuit) {
	if other.N > c.N {
		panic("circuit: Append source wider than target")
	}
	for _, g := range other.Gates {
		c.Add(g)
	}
}

// Inverse returns the adjoint circuit: gates reversed with each gate
// inverted. Self-inverse ops pass through; rotations negate their angle;
// S and T become the equivalent negative RZ rotations (exact up to global
// phase, like the rest of this repository's gate accounting).
func (c *Circuit) Inverse() *Circuit {
	out := New(c.N)
	for i := len(c.Gates) - 1; i >= 0; i-- {
		out.Add(invertGate(c.Gates[i]))
	}
	return out
}

func invertGate(g Gate) Gate {
	switch g.Op {
	case OpH, OpX, OpY, OpZ, OpCX, OpCZ, OpSWAP:
		return g // self-inverse
	case OpRX, OpRY, OpRZ, OpZZ, OpU:
		g.Param = -g.Param
		return g
	case OpS:
		return Gate{Op: OpRZ, Q0: g.Q0, Q1: -1, Param: -math.Pi / 2}
	case OpT:
		return Gate{Op: OpRZ, Q0: g.Q0, Q1: -1, Param: -math.Pi / 4}
	default:
		panic("circuit: cannot invert op " + g.Op.String())
	}
}

// Remap returns the circuit with qubit q relabelled to mapping[q]; mapping
// must be injective into [0, n).
func (c *Circuit) Remap(n int, mapping []int) *Circuit {
	if len(mapping) != c.N {
		panic("circuit: Remap size mismatch")
	}
	seen := make([]bool, n)
	for _, m := range mapping {
		if m < 0 || m >= n || seen[m] {
			panic("circuit: Remap mapping not injective into range")
		}
		seen[m] = true
	}
	out := New(n)
	for _, g := range c.Gates {
		g.Q0 = mapping[g.Q0]
		if g.IsTwoQubit() {
			g.Q1 = mapping[g.Q1]
		}
		out.Add(g)
	}
	return out
}
