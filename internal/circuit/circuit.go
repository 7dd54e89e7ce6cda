// Package circuit provides the quantum-circuit intermediate representation
// shared by every compiler in this repository: an append-only gate list with
// DAG views (ASAP layers, dependency front layer) and the statistics
// (two-qubit gates per qubit, interaction degree) that Table II of the
// Atomique paper reports and that the mappers consume.
package circuit

import "fmt"

// Op identifies a gate operation. One-qubit ops come first; IsTwoQubit
// reports whether an op entangles two qubits.
type Op int

// Supported operations. ZZ is the native QAOA/QSim interaction exp(-i t Z⊗Z);
// on neutral-atom hardware it costs one Rydberg interaction, while
// superconducting backends decompose it into two CX (see internal/arch).
const (
	OpH Op = iota
	OpX
	OpY
	OpZ
	OpS
	OpT
	OpRX
	OpRY
	OpRZ
	_ // a retired op; its number stays taken so circuit fingerprints keep theirs
	OpCX
	OpCZ
	OpZZ
	OpSWAP
	opCount
)

var opNames = [...]string{
	OpH: "h", OpX: "x", OpY: "y", OpZ: "z", OpS: "s", OpT: "t",
	OpRX: "rx", OpRY: "ry", OpRZ: "rz",
	OpCX: "cx", OpCZ: "cz", OpZZ: "zz", OpSWAP: "swap",
}

// String returns the lower-case OpenQASM-style mnemonic.
func (o Op) String() string {
	if o < 0 || int(o) >= len(opNames) {
		return fmt.Sprintf("op(%d)", int(o))
	}
	return opNames[o]
}

// IsTwoQubit reports whether the op acts on two qubits.
func (o Op) IsTwoQubit() bool { return o >= OpCX && o <= OpSWAP }

// Gate is a single operation. Q1 is -1 for one-qubit gates. Param carries a
// rotation angle where meaningful and is otherwise zero.
type Gate struct {
	Op    Op
	Q0    int
	Q1    int
	Param float64
}

// IsTwoQubit reports whether the gate acts on two qubits.
func (g Gate) IsTwoQubit() bool { return g.Op.IsTwoQubit() }

// Qubits returns the qubits the gate acts on (one or two entries).
func (g Gate) Qubits() []int {
	if g.IsTwoQubit() {
		return []int{g.Q0, g.Q1}
	}
	return []int{g.Q0}
}

// String renders the gate in a compact QASM-like form.
func (g Gate) String() string {
	if g.IsTwoQubit() {
		return fmt.Sprintf("%s q%d,q%d", g.Op, g.Q0, g.Q1)
	}
	return fmt.Sprintf("%s q%d", g.Op, g.Q0)
}

// Circuit is an ordered gate list over N qubits. The zero value is an empty
// circuit over zero qubits; use New for a sized circuit.
type Circuit struct {
	N     int
	Gates []Gate
}

// New returns an empty circuit over n qubits.
func New(n int) *Circuit {
	if n < 0 {
		panic("circuit: negative qubit count")
	}
	return &Circuit{N: n}
}

// Add appends a gate, validating qubit indices.
func (c *Circuit) Add(g Gate) {
	if g.Q0 < 0 || g.Q0 >= c.N {
		panic(fmt.Sprintf("circuit: qubit %d out of range [0,%d)", g.Q0, c.N))
	}
	if g.IsTwoQubit() {
		if g.Q1 < 0 || g.Q1 >= c.N {
			panic(fmt.Sprintf("circuit: qubit %d out of range [0,%d)", g.Q1, c.N))
		}
		if g.Q1 == g.Q0 {
			panic("circuit: two-qubit gate on identical qubits")
		}
	} else {
		g.Q1 = -1
	}
	c.Gates = append(c.Gates, g)
}

// Add1Q appends a one-qubit gate.
func (c *Circuit) Add1Q(op Op, q int, param float64) {
	c.Add(Gate{Op: op, Q0: q, Q1: -1, Param: param})
}

// Add2Q appends a two-qubit gate.
func (c *Circuit) Add2Q(op Op, a, b int, param float64) {
	c.Add(Gate{Op: op, Q0: a, Q1: b, Param: param})
}

// H appends a Hadamard.
func (c *Circuit) H(q int) { c.Add1Q(OpH, q, 0) }

// X appends a Pauli-X.
func (c *Circuit) X(q int) { c.Add1Q(OpX, q, 0) }

// RX appends an X rotation.
func (c *Circuit) RX(q int, theta float64) { c.Add1Q(OpRX, q, theta) }

// RY appends a Y rotation.
func (c *Circuit) RY(q int, theta float64) { c.Add1Q(OpRY, q, theta) }

// RZ appends a Z rotation.
func (c *Circuit) RZ(q int, theta float64) { c.Add1Q(OpRZ, q, theta) }

// CX appends a controlled-X.
func (c *Circuit) CX(ctrl, tgt int) { c.Add2Q(OpCX, ctrl, tgt, 0) }

// CZ appends a controlled-Z.
func (c *Circuit) CZ(a, b int) { c.Add2Q(OpCZ, a, b, 0) }

// ZZ appends exp(-i theta Z⊗Z /2).
func (c *Circuit) ZZ(a, b int, theta float64) { c.Add2Q(OpZZ, a, b, theta) }

// Clone returns a deep copy.
func (c *Circuit) Clone() *Circuit {
	out := &Circuit{N: c.N, Gates: make([]Gate, len(c.Gates))}
	copy(out.Gates, c.Gates)
	return out
}

// NumGates returns the total gate count.
func (c *Circuit) NumGates() int { return len(c.Gates) }

// Num2Q returns the number of two-qubit gates.
func (c *Circuit) Num2Q() int {
	n := 0
	for _, g := range c.Gates {
		if g.IsTwoQubit() {
			n++
		}
	}
	return n
}

// Num1Q returns the number of one-qubit gates.
func (c *Circuit) Num1Q() int { return len(c.Gates) - c.Num2Q() }

// TwoQubitPerQubit returns, for each qubit, the count of two-qubit gates it
// participates in.
func (c *Circuit) TwoQubitPerQubit() []int {
	counts := make([]int, c.N)
	for _, g := range c.Gates {
		if g.IsTwoQubit() {
			counts[g.Q0]++
			counts[g.Q1]++
		}
	}
	return counts
}

// Degrees returns, for each qubit, the number of distinct partner qubits it
// interacts with via two-qubit gates ("Degree per Q" in Table II).
func (c *Circuit) Degrees() []int {
	partners := make([]map[int]struct{}, c.N)
	for i := range partners {
		partners[i] = make(map[int]struct{})
	}
	for _, g := range c.Gates {
		if g.IsTwoQubit() {
			partners[g.Q0][g.Q1] = struct{}{}
			partners[g.Q1][g.Q0] = struct{}{}
		}
	}
	deg := make([]int, c.N)
	for i, p := range partners {
		deg[i] = len(p)
	}
	return deg
}

// Stats summarises the Table II characteristics of a circuit.
type Stats struct {
	Qubits     int
	Num2Q      int
	Num1Q      int
	TwoQPerQ   float64 // average two-qubit gates per qubit
	DegreePerQ float64 // average distinct interaction partners per qubit
	Depth2Q    int     // two-qubit ASAP depth
}

// ComputeStats returns the circuit's Table II statistics.
func (c *Circuit) ComputeStats() Stats {
	s := Stats{Qubits: c.N, Num2Q: c.Num2Q()}
	s.Num1Q = len(c.Gates) - s.Num2Q
	if c.N > 0 {
		tq := 0
		for _, v := range c.TwoQubitPerQubit() {
			tq += v
		}
		s.TwoQPerQ = float64(tq) / float64(c.N)
		dg := 0
		for _, v := range c.Degrees() {
			dg += v
		}
		s.DegreePerQ = float64(dg) / float64(c.N)
	}
	s.Depth2Q = c.Depth2Q()
	return s
}

// InteractionWeights returns a symmetric map of qubit-pair interaction counts,
// keyed by (min,max) pairs. It is the unweighted gate-frequency graph.
func (c *Circuit) InteractionWeights() map[[2]int]int {
	w := make(map[[2]int]int)
	for _, g := range c.Gates {
		if !g.IsTwoQubit() {
			continue
		}
		a, b := g.Q0, g.Q1
		if a > b {
			a, b = b, a
		}
		w[[2]int{a, b}]++
	}
	return w
}

// Layers assigns every gate its ASAP layer index (gates on disjoint qubits
// share a layer) and returns the per-gate layer slice plus the total layer
// count. Both one- and two-qubit gates occupy layers.
func (c *Circuit) Layers() (layerOf []int, numLayers int) {
	layerOf = make([]int, len(c.Gates))
	ready := make([]int, c.N) // earliest free layer per qubit
	for i, g := range c.Gates {
		l := ready[g.Q0]
		if g.IsTwoQubit() && ready[g.Q1] > l {
			l = ready[g.Q1]
		}
		layerOf[i] = l
		ready[g.Q0] = l + 1
		if g.IsTwoQubit() {
			ready[g.Q1] = l + 1
		}
		if l+1 > numLayers {
			numLayers = l + 1
		}
	}
	return layerOf, numLayers
}

// Layers2Q assigns each two-qubit gate a two-qubit layer index, where
// one-qubit gates impose ordering but do not occupy layers. Returns the
// per-gate index (-1 for one-qubit gates) and the two-qubit depth.
func (c *Circuit) Layers2Q() (layerOf []int, depth int) {
	layerOf = make([]int, len(c.Gates))
	ready := make([]int, c.N)
	for i, g := range c.Gates {
		if !g.IsTwoQubit() {
			layerOf[i] = -1
			continue
		}
		l := ready[g.Q0]
		if ready[g.Q1] > l {
			l = ready[g.Q1]
		}
		layerOf[i] = l
		ready[g.Q0] = l + 1
		ready[g.Q1] = l + 1
		if l+1 > depth {
			depth = l + 1
		}
	}
	return layerOf, depth
}

// Depth returns the full ASAP depth counting both 1Q and 2Q gates.
func (c *Circuit) Depth() int {
	_, d := c.Layers()
	return d
}

// Depth2Q returns the number of parallel two-qubit layers, the depth metric
// the paper reports.
func (c *Circuit) Depth2Q() int {
	_, d := c.Layers2Q()
	return d
}

// Num1QLayers returns the number of ASAP layers that contain at least one
// one-qubit gate; used for the cumulative one-qubit execution time.
func (c *Circuit) Num1QLayers() int {
	layerOf, n := c.Layers()
	has := make([]bool, n)
	for i, g := range c.Gates {
		if !g.IsTwoQubit() {
			has[layerOf[i]] = true
		}
	}
	count := 0
	for _, h := range has {
		if h {
			count++
		}
	}
	return count
}
