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
	"sort"

	"atomique/internal/circuit"
	"atomique/internal/graphs"
)

// Options tunes the router. The zero value is usable: identity initial
// mapping refined by one reverse pass, standard heuristic weights, SWAPs
// decomposed into three CX gates.
type Options struct {
	// InitialMapping maps logical qubit -> physical qubit. Nil selects the
	// identity mapping refined by reverse passes.
	InitialMapping []int
	// ExtendedSize is the lookahead window size (default 20).
	ExtendedSize int
	// ExtendedWeight scales the lookahead term (default 0.5).
	ExtendedWeight float64
	// DecayStep is the per-use decay increment discouraging ping-pong swaps
	// (default 0.001).
	DecayStep float64
	// ReversePasses is the number of forward/backward refinement rounds used
	// to pick the initial mapping when InitialMapping is nil (default 1).
	ReversePasses int
	// Seed drives tie-breaking; routing is deterministic for a fixed seed.
	Seed int64
	// KeepSwapsAtomic emits inserted SWAPs as single SWAP gates instead of
	// the default three-CX decomposition.
	KeepSwapsAtomic bool
}

func (o Options) withDefaults() Options {
	if o.ExtendedSize == 0 {
		o.ExtendedSize = 20
	}
	if o.ExtendedWeight == 0 {
		o.ExtendedWeight = 0.5
	}
	if o.DecayStep == 0 {
		o.DecayStep = 0.001
	}
	if o.ReversePasses == 0 {
		o.ReversePasses = 1
	}
	return o
}

// Result is a routed circuit over physical qubits.
type Result struct {
	// Routed is the physical circuit: every two-qubit gate acts on adjacent
	// physical qubits; inserted SWAPs appear as three CX gates (or one SWAP
	// gate when KeepSwapsAtomic is set).
	Routed *circuit.Circuit
	// InitialMapping and FinalMapping map logical -> physical.
	InitialMapping []int
	FinalMapping   []int
	// SwapCount is the number of SWAPs inserted; AddedCNOTs = 3*SwapCount.
	SwapCount int
}

// AddedCNOTs returns the CNOT overhead of SWAP insertion (Fig 25's metric).
func (r Result) AddedCNOTs() int { return 3 * r.SwapCount }

// Route maps and routes c onto the coupling graph cg.
func Route(c *circuit.Circuit, cg *graphs.Coupling, opts Options) Result {
	opts = opts.withDefaults()
	if c.N > cg.N {
		panic("sabre: circuit has more qubits than the device")
	}
	r := &router{c: c, cg: cg, opts: opts, rng: rand.New(rand.NewSource(opts.Seed))}

	initial := opts.InitialMapping
	if initial == nil {
		initial = r.refineInitialMapping()
	}
	res := r.routeOnce(c, clone(initial))
	res.InitialMapping = initial
	return res
}

type router struct {
	c    *circuit.Circuit
	cg   *graphs.Coupling
	opts Options
	rng  *rand.Rand
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
		if r.opts.KeepSwapsAtomic {
			out.Add2Q(circuit.OpSWAP, a, b, 0)
		} else {
			out.CX(a, b)
			out.CX(b, a)
			out.CX(a, b)
		}
		swaps++
		la, lb := p2l[a], p2l[b]
		p2l[a], p2l[b] = lb, la
		if la >= 0 {
			l2p[la] = b
		}
		if lb >= 0 {
			l2p[lb] = a
		}
		decay[a] += r.opts.DecayStep
		decay[b] += r.opts.DecayStep
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
			for _, gi := range append([]int(nil), front.Front()...) {
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

		front2Q := frontTwoQubit(front)
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
		ext := extendedSet(dag, front, r.opts.ExtendedSize)
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
func frontTwoQubit(f *circuit.Frontier) []circuit.Gate {
	var gates []circuit.Gate
	for _, gi := range f.Front() {
		if g := f.Gate(gi); g.IsTwoQubit() {
			gates = append(gates, g)
		}
	}
	return gates
}

// extendedSet collects up to size upcoming two-qubit gates reachable from the
// frontier (breadth-first over DAG successors) for the lookahead term.
func extendedSet(dag *circuit.DAG, f *circuit.Frontier, size int) []circuit.Gate {
	seen := map[int]bool{}
	var queue []int
	for _, gi := range f.Front() {
		queue = append(queue, gi)
		seen[gi] = true
	}
	var ext []circuit.Gate
	for len(queue) > 0 && len(ext) < size {
		gi := queue[0]
		queue = queue[1:]
		for _, s := range dag.Successors(gi) {
			if seen[s] {
				continue
			}
			seen[s] = true
			if g := dag.Circuit().Gates[s]; g.IsTwoQubit() {
				ext = append(ext, g)
				if len(ext) >= size {
					break
				}
			}
			queue = append(queue, s)
		}
	}
	return ext
}

// pickSwap scores every candidate SWAP (edges incident to the physical
// locations of frontier-gate qubits) and returns the physical pair with the
// lowest decayed lookahead cost.
func (r *router) pickSwap(l2p []int, front, ext []circuit.Gate, decay []float64) (int, int) {
	cg := r.cg
	seen := map[[2]int]bool{}
	var candidates [][2]int
	for _, g := range front {
		for _, q := range []int{g.Q0, g.Q1} {
			p := l2p[q]
			for _, nb := range cg.Neighbors(p) {
				a, b := p, nb
				if a > b {
					a, b = b, a
				}
				if !seen[[2]int{a, b}] {
					seen[[2]int{a, b}] = true
					candidates = append(candidates, [2]int{a, b})
				}
			}
		}
	}
	sort.Slice(candidates, func(i, j int) bool {
		if candidates[i][0] != candidates[j][0] {
			return candidates[i][0] < candidates[j][0]
		}
		return candidates[i][1] < candidates[j][1]
	})

	bestCost := math.Inf(1)
	var best [2]int
	nbest := 0
	for _, cand := range candidates {
		cost := r.swapCost(l2p, front, ext, cand, decay)
		switch {
		case cost < bestCost-1e-12:
			bestCost, best, nbest = cost, cand, 1
		case math.Abs(cost-bestCost) <= 1e-12:
			// Reservoir-sample ties for seeded-deterministic tie-breaking.
			nbest++
			if r.rng.Intn(nbest) == 0 {
				best = cand
			}
		}
	}
	if nbest == 0 {
		panic("sabre: no swap candidates (disconnected device?)")
	}
	return best[0], best[1]
}

func (r *router) swapCost(l2p []int, front, ext []circuit.Gate,
	swap [2]int, decay []float64) float64 {

	cg := r.cg
	pos := func(q int) int {
		p := l2p[q]
		if p == swap[0] {
			return swap[1]
		}
		if p == swap[1] {
			return swap[0]
		}
		return p
	}
	fcost := 0.0
	for _, g := range front {
		fcost += float64(cg.Distance(pos(g.Q0), pos(g.Q1)))
	}
	fcost /= float64(len(front))
	ecost := 0.0
	if len(ext) > 0 {
		for _, g := range ext {
			ecost += float64(cg.Distance(pos(g.Q0), pos(g.Q1)))
		}
		ecost /= float64(len(ext))
	}
	d := 1 + decay[swap[0]] + decay[swap[1]]
	return d * (fcost + r.opts.ExtendedWeight*ecost)
}
