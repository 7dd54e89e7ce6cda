// Package sabre implements the SABRE qubit-mapping and routing algorithm
// (Li, Ding, Xie — ASPLOS 2019) from scratch. The paper's evaluation routes
// every fixed-topology baseline (IBM heavy-hex, FAA rectangular/triangular,
// Baker long-range) with Qiskit's SABRE, and Atomique itself uses SABRE on
// the complete multipartite RAA coupling graph to insert inter-array SWAPs;
// this package plays both roles here.
//
// The algorithm maintains a logical-to-physical mapping and a dependency
// front layer. Executable gates (physically adjacent endpoints) are emitted;
// when the front stalls, the SWAP minimising a lookahead distance heuristic
// with a decay term is inserted. Initial mappings are refined with SABRE's
// reverse-traversal trick.
package sabre

import (
	"math"
	"math/rand"
	"slices"

	"atomique/internal/circuit"
	"atomique/internal/graphs"
)

// Options tunes the router. The zero value is usable: identity initial
// mapping refined by one reverse pass, standard heuristic weights.
type Options struct {
	// InitialMapping maps logical qubit -> physical qubit. Nil selects the
	// identity mapping refined by reverse passes.
	InitialMapping []int
	// ExtendedSize is the lookahead window size (default 20).
	ExtendedSize int
	// ReversePasses is the number of forward/backward refinement rounds used
	// to pick the initial mapping when InitialMapping is nil (default 1).
	ReversePasses int
	// Seed drives tie-breaking; routing is deterministic for a fixed seed.
	Seed int64
}

const (
	// extendedWeight scales the lookahead term.
	extendedWeight = 0.5
	// decayStep is the per-use decay increment discouraging ping-pong swaps.
	decayStep = 0.001
)

func (o Options) withDefaults() Options {
	if o.ExtendedSize == 0 {
		o.ExtendedSize = 20
	}
	if o.ReversePasses == 0 {
		o.ReversePasses = 1
	}
	return o
}

// Result is a routed circuit over physical qubits.
type Result struct {
	// Routed is the physical circuit: every two-qubit gate acts on adjacent
	// physical qubits; inserted SWAPs appear as three CX gates.
	Routed *circuit.Circuit
	// InitialMapping and FinalMapping map logical -> physical.
	InitialMapping []int
	FinalMapping   []int
	// SwapCount is the number of SWAPs inserted.
	SwapCount int
}

// Route maps and routes c onto the coupling graph cg.
func Route(c *circuit.Circuit, cg *graphs.Coupling, opts Options) Result {
	opts = opts.withDefaults()
	if c.N > cg.N {
		panic("sabre: circuit has more qubits than the device")
	}
	r := &router{
		c: c, cg: cg, opts: opts, rng: rand.New(rand.NewSource(opts.Seed)),
		seen:    make([]int, len(c.Gates)),
		frontAt: slices.Repeat([]int{-1}, cg.N),
		extAt:   make([][]int, cg.N),
	}

	initial := opts.InitialMapping
	if initial == nil {
		initial = r.refineInitialMapping()
	}
	res := r.routeOnce(c, clone(initial))
	res.InitialMapping = initial
	return res
}

// router holds one Route call's state, including scratch that routeOnce,
// extendedSet and pickSwap reuse across calls. Concurrent compiles each
// build their own router, so they never share it.
type router struct {
	c    *circuit.Circuit
	cg   *graphs.Coupling
	opts Options
	rng  *rand.Rand

	ready   []int          // the frontier, copied while its gates execute
	front2Q []circuit.Gate // the frontier's two-qubit gates
	ext     []circuit.Gate // the extended set
	queue   []int          // extendedSet's breadth-first queue
	seen    []int          // extendedSet's visit stamp per gate
	epoch   int            // the current extendedSet call's stamp
	keys    []int          // candidate SWAPs (a,b), a < b, as a*N+b
	frontAt []int          // the front gate at each physical qubit, or -1
	extAt   [][]int        // the extended-set gates at each physical qubit
	fsum    int            // front distance sum under the current mapping
	esum    int            // extended-set distance sum
}

// refineInitialMapping runs SABRE's reverse-traversal refinement: route the
// circuit forward from the identity mapping, route the reversed circuit from
// the resulting final mapping, and use that final mapping as the initial
// mapping for the real pass.
func (r *router) refineInitialMapping() []int {
	mapping := make([]int, r.c.N)
	for i := range mapping {
		mapping[i] = i
	}
	rev := reverse(r.c)
	for pass := 0; pass < r.opts.ReversePasses; pass++ {
		fwd := r.routeOnce(r.c, clone(mapping))
		back := r.routeOnce(rev, clone(fwd.FinalMapping))
		mapping = back.FinalMapping
	}
	return mapping
}

func reverse(c *circuit.Circuit) *circuit.Circuit {
	out := circuit.New(c.N)
	for i := len(c.Gates) - 1; i >= 0; i-- {
		out.Add(c.Gates[i])
	}
	return out
}

func clone(s []int) []int {
	out := make([]int, len(s))
	copy(out, s)
	return out
}

func (r *router) routeOnce(c *circuit.Circuit, l2p []int) Result {
	cg := r.cg
	p2l := make([]int, cg.N)
	for i := range p2l {
		p2l[i] = -1
	}
	for l, p := range l2p {
		p2l[p] = l
	}

	out := circuit.New(cg.N)
	dag := circuit.NewDAG(c)
	front := circuit.NewFrontier(dag)
	decay := make([]float64, cg.N)
	swaps := 0
	sinceReset := 0
	swap := func(a, b int) {
		out.CX(a, b)
		out.CX(b, a)
		out.CX(a, b)
		swaps++
		la, lb := p2l[a], p2l[b]
		p2l[a], p2l[b] = lb, la
		if la >= 0 {
			l2p[la] = b
		}
		if lb >= 0 {
			l2p[lb] = a
		}
		decay[a] += decayStep
		decay[b] += decayStep
		sinceReset++
		if sinceReset >= 5 {
			for i := range decay {
				decay[i] = 0
			}
			sinceReset = 0
		}
	}
	// The heuristic can cycle, inserting SWAPs that never bring a front
	// gate into reach. After stallLimit SWAPs without an executed gate, the
	// release valve routes the closest front gate along a shortest path,
	// which guarantees progress (Qiskit's SabreSwap has the same valve). It
	// is deterministic and draws nothing from the tie-break RNG.
	stallLimit := 10 * cg.N
	stalled := 0

	for !front.Done() {
		// Emit every executable frontier gate (1Q always; 2Q when adjacent).
		progress := true
		for progress {
			progress = false
			r.ready = append(r.ready[:0], front.Front()...)
			for _, gi := range r.ready {
				g := front.Gate(gi)
				if !g.IsTwoQubit() {
					out.Add1Q(g.Op, l2p[g.Q0], g.Param)
					front.Execute(gi)
					progress = true
					continue
				}
				if cg.Adjacent(l2p[g.Q0], l2p[g.Q1]) {
					out.Add2Q(g.Op, l2p[g.Q0], l2p[g.Q1], g.Param)
					front.Execute(gi)
					progress = true
				}
			}
			if progress {
				stalled = 0
			}
		}
		if front.Done() {
			break
		}

		front2Q := r.frontTwoQubit(front)
		if stalled >= stallLimit {
			g := closestGate(cg, l2p, front2Q)
			for a, b := l2p[g.Q0], l2p[g.Q1]; cg.Distance(a, b) > 1; {
				next := stepToward(cg, a, b)
				swap(a, next)
				a = next
			}
			stalled = 0
			continue
		}
		// Stalled: pick the best SWAP among edges touching frontier qubits.
		ext := r.extendedSet(dag, front)
		swap(r.pickSwap(l2p, front2Q, ext, decay))
		stalled++
	}
	return Result{Routed: out, FinalMapping: l2p, SwapCount: swaps}
}

// closestGate returns the first front gate whose endpoints are fewest hops
// apart under the mapping.
func closestGate(cg *graphs.Coupling, l2p []int, front []circuit.Gate) circuit.Gate {
	best := front[0]
	for _, g := range front[1:] {
		if cg.Distance(l2p[g.Q0], l2p[g.Q1]) < cg.Distance(l2p[best.Q0], l2p[best.Q1]) {
			best = g
		}
	}
	return best
}

// stepToward returns the first neighbour of a one hop closer to b.
func stepToward(cg *graphs.Coupling, a, b int) int {
	for _, nb := range cg.Neighbors(a) {
		if cg.Distance(nb, b) == cg.Distance(a, b)-1 {
			return nb
		}
	}
	panic("sabre: no shortest-path step (disconnected device?)")
}

// frontTwoQubit returns the two-qubit gates currently in the frontier.
func (r *router) frontTwoQubit(f *circuit.Frontier) []circuit.Gate {
	gates := r.front2Q[:0]
	for _, gi := range f.Front() {
		if g := f.Gate(gi); g.IsTwoQubit() {
			gates = append(gates, g)
		}
	}
	r.front2Q = gates
	return gates
}

// extendedSet collects up to ExtendedSize upcoming two-qubit gates reachable
// from the frontier (breadth-first over DAG successors) for the lookahead
// term.
func (r *router) extendedSet(dag *circuit.DAG, f *circuit.Frontier) []circuit.Gate {
	size := r.opts.ExtendedSize
	r.epoch++
	queue := r.queue[:0]
	for _, gi := range f.Front() {
		queue = append(queue, gi)
		r.seen[gi] = r.epoch
	}
	ext := r.ext[:0]
	for head := 0; head < len(queue) && len(ext) < size; head++ {
		for _, s := range dag.Successors(queue[head]) {
			if r.seen[s] == r.epoch {
				continue
			}
			r.seen[s] = r.epoch
			if g := dag.Circuit().Gates[s]; g.IsTwoQubit() {
				ext = append(ext, g)
				if len(ext) >= size {
					break
				}
			}
			queue = append(queue, s)
		}
	}
	r.queue, r.ext = queue, ext
	return ext
}

// pickSwap scores every candidate SWAP (edges incident to the physical
// locations of frontier-gate qubits) and returns the physical pair with the
// lowest decayed lookahead cost. Candidates are visited in ascending (a,b)
// order, so the reservoir tie-break draws a fixed RNG sequence.
func (r *router) pickSwap(l2p []int, front, ext []circuit.Gate, decay []float64) (int, int) {
	r.indexGates(l2p, front, ext)
	n := r.cg.N
	bestCost := math.Inf(1)
	best, nbest := 0, 0
	for _, key := range r.candidates(l2p, front) {
		cost := r.swapCost(l2p, front, ext, key/n, key%n, decay)
		switch {
		case cost < bestCost-1e-12:
			bestCost, best, nbest = cost, key, 1
		case math.Abs(cost-bestCost) <= 1e-12:
			// Reservoir-sample ties for seeded-deterministic tie-breaking.
			nbest++
			if r.rng.Intn(nbest) == 0 {
				best = key
			}
		}
	}
	r.unindexGates(l2p, front, ext)
	if nbest == 0 {
		panic("sabre: no swap candidates (disconnected device?)")
	}
	return best / n, best % n
}

// indexGates records which front and extended-set gates sit at each
// physical qubit, and their distance sums under the current mapping.
func (r *router) indexGates(l2p []int, front, ext []circuit.Gate) {
	r.fsum, r.esum = 0, 0
	for i, g := range front {
		a, b := l2p[g.Q0], l2p[g.Q1]
		r.frontAt[a], r.frontAt[b] = i, i
		r.fsum += r.cg.Distance(a, b)
	}
	for i, g := range ext {
		a, b := l2p[g.Q0], l2p[g.Q1]
		r.extAt[a] = append(r.extAt[a], i)
		r.extAt[b] = append(r.extAt[b], i)
		r.esum += r.cg.Distance(a, b)
	}
}

// unindexGates clears what indexGates recorded.
func (r *router) unindexGates(l2p []int, front, ext []circuit.Gate) {
	for _, g := range front {
		r.frontAt[l2p[g.Q0]], r.frontAt[l2p[g.Q1]] = -1, -1
	}
	for _, g := range ext {
		r.extAt[l2p[g.Q0]] = r.extAt[l2p[g.Q0]][:0]
		r.extAt[l2p[g.Q1]] = r.extAt[l2p[g.Q1]][:0]
	}
}

// candidates returns the edges at the front gates' physical qubits, once
// each, as ascending a*N+b keys (a < b). Front gates share no qubit, so an
// edge is seen twice only when both ends hold front qubits; it is kept from
// its smaller end.
func (r *router) candidates(l2p []int, front []circuit.Gate) []int {
	n := r.cg.N
	keys := r.keys[:0]
	for _, g := range front {
		for _, p := range [2]int{l2p[g.Q0], l2p[g.Q1]} {
			for _, nb := range r.cg.Neighbors(p) {
				switch {
				case p < nb:
					keys = append(keys, p*n+nb)
				case r.frontAt[nb] < 0:
					keys = append(keys, nb*n+p)
				}
			}
		}
	}
	slices.Sort(keys)
	r.keys = keys
	return keys
}

// swapCost is the decayed lookahead cost of swapping physical qubits a < b:
// the distance sums indexGates took plus the change in the gates at a and b.
// A gate on both a and b keeps its distance, so visiting it from both ends
// adds nothing. The sums are integers, exact in float64, so the cost is
// bit-identical to recomputing every gate's distance.
func (r *router) swapCost(l2p []int, front, ext []circuit.Gate, a, b int, decay []float64) float64 {
	fsum, esum := r.fsum, r.esum
	for _, p := range [2]int{a, b} {
		if i := r.frontAt[p]; i >= 0 {
			fsum += r.moved(l2p, front[i], a, b)
		}
		for _, i := range r.extAt[p] {
			esum += r.moved(l2p, ext[i], a, b)
		}
	}
	fcost := float64(fsum) / float64(len(front))
	ecost := 0.0
	if len(ext) > 0 {
		ecost = float64(esum) / float64(len(ext))
	}
	d := 1 + decay[a] + decay[b]
	return d * (fcost + extendedWeight*ecost)
}

// moved returns how much swapping physical qubits a and b changes the
// distance between g's endpoints.
func (r *router) moved(l2p []int, g circuit.Gate, a, b int) int {
	pos := func(p int) int {
		switch p {
		case a:
			return b
		case b:
			return a
		}
		return p
	}
	p0, p1 := l2p[g.Q0], l2p[g.Q1]
	return r.cg.Distance(pos(p0), pos(p1)) - r.cg.Distance(p0, p1)
}
