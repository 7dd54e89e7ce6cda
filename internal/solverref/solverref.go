// Package solverref implements the two solver-based RAA compilers the paper
// compares against in Fig 14: Tan-Solver (OLSQ-DPQA, an SMT formulation) and
// Tan-IterP (its greedy "iterative peeling" relaxation). The original uses
// Z3; this reference implementation reproduces the *behavioural envelope*
// the comparison relies on — near-optimal schedules with genuinely
// exponential compile time for the exact mode (exact max-cut partitioning by
// branch-and-bound plus exact maximum-compatible-set stage packing), and a
// polynomial greedy mode — under the same RAA legality rules and fidelity
// model as Atomique. A configurable wall-clock budget reproduces the
// timeout column of Table II.
//
// The machine model follows the Fig 14 setup: one 16x16 SLM plus one 16x16
// AOD (the baselines lack multi-AOD support), so every executable two-qubit
// gate is AOD-SLM.
package solverref

import (
	"fmt"
	"time"

	"atomique/internal/circuit"
	"atomique/internal/fidelity"
	"atomique/internal/graphs"
	"atomique/internal/hardware"
	"atomique/internal/metrics"
	"atomique/internal/sabre"
)

// Mode selects the compiler variant.
type Mode int

// Compiler variants.
const (
	Solver Mode = iota // exact (exponential) — Tan-Solver
	IterP              // greedy peeling — Tan-IterP
)

func (m Mode) String() string {
	if m == Solver {
		return "Tan-Solver"
	}
	return "Tan-IterP"
}

// Options configures a solver-reference compilation.
type Options struct {
	Mode Mode
	// Budget bounds wall-clock compile time (Solver mode); zero means
	// 30 seconds. The paper used 24 hours; scale accordingly.
	Budget time.Duration
	// ArraySize is the SLM/AOD side length (default 16, the OLSQ-DPQA
	// setting).
	ArraySize int
	Seed      int64
}

func (o Options) withDefaults() Options {
	if o.Budget == 0 {
		o.Budget = 30 * time.Second
	}
	if o.ArraySize == 0 {
		o.ArraySize = 16
	}
	return o
}

// Result is a solver-reference compilation outcome.
type Result struct {
	Metrics  metrics.Compiled
	TimedOut bool
	// Routed is the physical circuit the stage scheduler executes (over the
	// partition's slot register), and FinalSlotOf maps logical qubit -> slot
	// after execution. Stage packing only reorders frontier-independent
	// gates, so this is the execution witness the backend verification
	// replays. Both are nil when the compilation timed out.
	Routed      *circuit.Circuit
	FinalSlotOf []int
}

// Compile maps and schedules circ on the single-AOD RAA.
func Compile(circ *circuit.Circuit, opts Options) (Result, error) {
	opts = opts.withDefaults()
	if circ.N > opts.ArraySize*opts.ArraySize {
		return Result{}, fmt.Errorf("solverref: circuit too large for %dx%d arrays",
			opts.ArraySize, opts.ArraySize)
	}
	start := time.Now()
	deadline := start.Add(opts.Budget)

	// Step 1: qubit-array partition (SLM vs AOD).
	gf := graphs.GateFrequency(circ, 1.0)
	var part []int
	timedOut := false
	if opts.Mode == Solver {
		part, timedOut = exactMaxCut(gf, deadline)
		if timedOut {
			return Result{Metrics: metrics.Compiled{
				Arch:        opts.Mode.String(),
				NQubits:     circ.N,
				CompileTime: time.Since(start),
			}, TimedOut: true}, nil
		}
	} else {
		part = graphs.MaxKCutGreedy(gf, 2, nil)
	}

	// Step 2: SWAP insertion on the complete bipartite coupling.
	sizes, slotOf := sabre.PackSlots(part, 2)
	if sizes[0] == 0 || sizes[1] == 0 {
		// Degenerate partition (no two-qubit gates): split arbitrarily.
		for q := range part {
			part[q] = q % 2
		}
		sizes, slotOf = sabre.PackSlots(part, 2)
	}
	ins := sabre.RouteMultipartite(circ, sizes, slotOf, opts.Seed)
	routed, swaps := ins.Routed, ins.SwapCount

	// Step 3: placement + scheduling on the single-AOD machine.
	sched, trace, stats, schedTimedOut := schedule(routed, sizes, opts, deadline)
	if schedTimedOut {
		return Result{Metrics: metrics.Compiled{
			Arch:        opts.Mode.String(),
			NQubits:     circ.N,
			CompileTime: time.Since(start),
		}, TimedOut: true}, nil
	}

	params := hardware.NeutralAtom()
	static := fidelity.Static{
		NQubits:   circ.N,
		N1Q:       routed.Num1Q(),
		N1QLayers: stats.oneQLayers,
		N2Q:       routed.Num2Q(),
		Depth2Q:   sched,
	}
	bd := fidelity.Evaluate(params, static, trace)
	m := metrics.Compiled{
		Arch:          opts.Mode.String(),
		NQubits:       circ.N,
		N2Q:           routed.Num2Q(),
		N1Q:           routed.Num1Q(),
		Depth2Q:       sched,
		N1QLayers:     stats.oneQLayers,
		SwapCount:     swaps,
		AddedCNOTs:    3 * swaps,
		ExecutionTime: stats.execTime,
		MoveStages:    sched,
		TotalMoveDist: stats.totalDist,
		CoolingEvents: stats.coolings,
		CompileTime:   time.Since(start),
		Fidelity:      bd,
	}
	if sched > 0 {
		m.AvgMoveDist = stats.totalDist / float64(sched)
	}
	return Result{Metrics: m, Routed: routed, FinalSlotOf: ins.FinalMapping}, nil
}

// exactMaxCut solves MAX-CUT by branch-and-bound: assign vertices in
// descending-weight order, bounding with the optimistic remaining weight.
// Exponential in the worst case — deliberately, this is the "solver".
func exactMaxCut(g *graphs.Weighted, deadline time.Time) (best []int, timedOut bool) {
	n := g.N
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	// Descending incident weight.
	for i := 1; i < len(order); i++ {
		for j := i; j > 0 && g.VertexWeight(order[j]) > g.VertexWeight(order[j-1]); j-- {
			order[j], order[j-1] = order[j-1], order[j]
		}
	}
	assign := make([]int, n)
	for i := range assign {
		assign[i] = -1
	}
	best = make([]int, n)
	bestCut := -1.0
	total := g.TotalWeight()
	nodes := 0

	var dfs func(pos int, cut, seen float64) bool
	dfs = func(pos int, cut, seen float64) bool {
		nodes++
		if nodes%4096 == 0 && time.Now().After(deadline) {
			return true // timed out
		}
		if pos == n {
			if cut > bestCut {
				bestCut = cut
				copy(best, assign)
			}
			return false
		}
		// Bound: even if all unseen weight were cut, can we beat best?
		if cut+(total-seen) <= bestCut {
			return false
		}
		v := order[pos]
		for side := 0; side < 2; side++ {
			gain, touched := 0.0, 0.0
			for u := 0; u < n; u++ {
				if assign[u] >= 0 && g.W[v][u] > 0 {
					touched += g.W[v][u]
					if assign[u] != side {
						gain += g.W[v][u]
					}
				}
			}
			assign[v] = side
			if dfs(pos+1, cut+gain, seen+touched) {
				return true
			}
			assign[v] = -1
		}
		return false
	}
	if dfs(0, 0, 0) {
		return nil, true
	}
	return best, false
}
