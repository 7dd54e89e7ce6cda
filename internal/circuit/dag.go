package circuit

import "slices"

// DAG is a dependency view of a circuit: gate i depends on gate j when they
// share a qubit and j precedes i with no intervening gate on that qubit.
// It is immutable once built; use NewFrontier for a consumable front-layer
// traversal (what the routers iterate on).
type DAG struct {
	circ *Circuit
	succ [][]int
	// npred counts gate i's direct dependencies, once per shared qubit.
	npred []int
}

// NewDAG builds the dependency DAG of c.
func NewDAG(c *Circuit) *DAG {
	d := &DAG{
		circ:  c,
		succ:  make([][]int, len(c.Gates)),
		npred: make([]int, len(c.Gates)),
	}
	last := make([]int, c.N) // last gate index seen per qubit
	for i := range last {
		last[i] = -1
	}
	for i, g := range c.Gates {
		for _, q := range g.Qubits() {
			if p := last[q]; p >= 0 {
				d.succ[p] = append(d.succ[p], i)
				d.npred[i]++
			}
			last[q] = i
		}
	}
	return d
}

// Circuit returns the underlying circuit.
func (d *DAG) Circuit() *Circuit { return d.circ }

// Successors returns the gate indices that directly depend on gate i.
func (d *DAG) Successors(i int) []int { return d.succ[i] }

// Frontier is a consumable traversal of a circuit DAG: Front returns the
// currently independent ("frontier") gates, Execute retires one of them and
// releases its dependents. Routers drive compilation by repeatedly executing
// frontier gates until Done.
type Frontier struct {
	dag    *DAG
	indeg  []int
	front  []int
	inFrnt []bool
	done   []bool
	left   int
	batch  []int // DrainOneQubit's per-layer scratch
}

// NewFrontier returns a fresh traversal over the DAG.
func NewFrontier(d *DAG) *Frontier {
	f := &Frontier{
		dag:    d,
		indeg:  slices.Clone(d.npred),
		inFrnt: make([]bool, len(d.circ.Gates)),
		done:   make([]bool, len(d.circ.Gates)),
		left:   len(d.circ.Gates),
	}
	for i, n := range f.indeg {
		if n == 0 {
			f.front = append(f.front, i)
			f.inFrnt[i] = true
		}
	}
	return f
}

// Front returns the current frontier in the order its gates became ready:
// the initially independent gates in ascending order, then each gate as its
// last dependency executes (so it is not sorted: for H(0); H(0); H(1) it is
// [0 2], and [2 1] after Execute(0)). The routers iterate it in this order,
// so their output depends on it. The returned slice is owned by the
// Frontier; callers must not mutate it.
func (f *Frontier) Front() []int { return f.front }

// Gate returns the gate at index i.
func (f *Frontier) Gate(i int) Gate { return f.dag.circ.Gates[i] }

// Execute retires frontier gate i, unlocking its successors. It panics if i
// is not currently independent (a routing-logic bug, not a user error).
func (f *Frontier) Execute(i int) {
	if !f.inFrnt[i] || f.done[i] {
		panic("circuit: Execute on non-frontier gate")
	}
	f.done[i] = true
	f.left--
	// Remove from front slice.
	for k, g := range f.front {
		if g == i {
			f.front = append(f.front[:k], f.front[k+1:]...)
			break
		}
	}
	for _, s := range f.dag.succ[i] {
		f.indeg[s]--
		if f.indeg[s] == 0 {
			f.front = append(f.front, s)
			f.inFrnt[s] = true
		}
	}
}

// Done reports whether every gate has been executed.
func (f *Frontier) Done() bool { return f.left == 0 }

// DrainOneQubit executes every ready one-qubit gate, layer by layer, until
// only two-qubit gates are ready or none are left, and returns the number of
// layers. A layer is the one-qubit gates ready when it starts, in frontier
// order; fn, if not nil, sees each gate just before it executes.
func (f *Frontier) DrainOneQubit(fn func(Gate)) int {
	layers := 0
	for {
		f.batch = f.batch[:0]
		for _, gi := range f.front {
			if !f.Gate(gi).IsTwoQubit() {
				f.batch = append(f.batch, gi)
			}
		}
		if len(f.batch) == 0 {
			return layers
		}
		for _, gi := range f.batch {
			if fn != nil {
				fn(f.Gate(gi))
			}
			f.Execute(gi)
		}
		layers++
	}
}
