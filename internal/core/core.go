// Package core implements Atomique, the paper's primary contribution: a
// scalable compiler for reconfigurable neutral-atom arrays (RAAs). The
// pipeline (Fig 3) is
//
//  1. Qubit-array mapper — greedy MAX k-cut of the gate-frequency graph
//     assigns each logical qubit to the SLM array or one of the AOD arrays,
//     maximising inter-array two-qubit gates (Alg. 1).
//  2. Inter-array SWAP insertion — SABRE routing on the complete
//     multipartite coupling graph makes every remaining two-qubit gate
//     cross-array (Fig 5); each SWAP costs three CZ gates executed via atom
//     movement like any other gate.
//  3. Qubit-atom mapper — load-balance diagonal-spiral placement for SLM
//     qubits (Fig 6) and frequency-rank position alignment for AOD qubits
//     (Fig 7).
//  4. High-parallelism router — iterates over the dependency frontier,
//     batching legal parallel two-qubit gates subject to the three hardware
//     constraints (Figs 9-11), moving AOD rows/columns, firing the Rydberg
//     laser, tracking per-atom heating (n_vib), and inserting cooling swaps.
//
// Ablation switches (Fig 21) and constraint relaxations (Fig 22) are
// first-class options.
package core

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"time"

	"atomique/internal/circuit"
	"atomique/internal/fidelity"
	"atomique/internal/graphs"
	"atomique/internal/hardware"
	"atomique/internal/metrics"
	"atomique/internal/pipeline"
)

// Options configures a compilation. The zero value is the paper's default
// configuration.
type Options struct {
	// Gamma is the per-layer decay of gate-frequency edge weights
	// (default 0.95).
	Gamma float64
	// Seed drives every randomised tie-break; compilation is deterministic
	// for a fixed seed.
	Seed int64

	// Ablation switches (Fig 21). Each replaces one pipeline technique with
	// the paper's baseline variant.
	DenseMapper      bool // round-robin array assignment instead of MAX k-cut
	RandomAtomMapper bool // random atom placement instead of load-balance/aligned
	SerialRouter     bool // one two-qubit gate per stage

	// Constraint relaxations (Fig 22).
	RelaxAddressing bool // constraint 1: allow individually addressed 2Q gates
	RelaxOrder      bool // constraint 2: allow row/column order violations
	RelaxOverlap    bool // constraint 3: allow rows/columns to overlap
}

func (o Options) withDefaults() Options {
	if o.Gamma == 0 {
		o.Gamma = 0.95
	}
	return o
}

// Result is a complete compilation outcome: placement, schedule, metrics,
// and the movement trace consumed by the fidelity model.
type Result struct {
	// ArrayOf maps each logical qubit to its array (0 = SLM).
	ArrayOf []int
	// SiteOf maps each physical slot (atom) to its trap site. Slots are the
	// post-SWAP physical identities; slot s holds logical qubit
	// InitialSlotOf^-1 initially.
	SiteOf []hardware.Site
	// InitialSlotOf maps logical qubit -> physical slot before execution.
	InitialSlotOf []int
	// FinalSlotOf maps logical qubit -> physical slot after execution (SWAP
	// insertion permutes logical states among atoms).
	FinalSlotOf []int
	// Schedule is the executable movement/gate program.
	Schedule *pipeline.Schedule
	// Metrics summarises the compilation.
	Metrics metrics.Compiled
	// Trace is the movement trace for fidelity evaluation.
	Trace fidelity.MovementTrace
}

// Compile runs the full Atomique pipeline on circ for the machine cfg.
func Compile(cfg hardware.Config, circ *circuit.Circuit, opts Options) (*Result, error) {
	return CompileContext(context.Background(), cfg, circ, opts)
}

// CompileContext is Compile with cancellation: the pipeline checks ctx
// between passes (and the router loop between stages) and aborts with
// ctx.Err() when it is cancelled, so a long-running compilation can be
// stopped by a service deadline or an explicit job cancellation.
func CompileContext(ctx context.Context, cfg hardware.Config, circ *circuit.Circuit, opts Options) (*Result, error) {
	opts = opts.withDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if circ.N > cfg.Capacity() {
		return nil, fmt.Errorf("core: circuit needs %d qubits, machine has %d sites",
			circ.N, cfg.Capacity())
	}
	start := time.Now()
	st := &pipeline.State{
		Cfg:  cfg,
		Circ: circ,
		Seed: opts.Seed,
		Rng:  rand.New(rand.NewSource(opts.Seed)),
	}
	timings, err := pipeline.New(Passes(opts)...).Run(ctx, st)
	if err != nil {
		return nil, err
	}
	m := st.Metrics
	m.CompileTime = time.Since(start)
	m.Passes = timings
	return &Result{
		ArrayOf:       st.ArrayOf,
		SiteOf:        st.SiteOf,
		InitialSlotOf: st.SlotOf,
		FinalSlotOf:   st.FinalSlotOf,
		Schedule:      st.Schedule,
		Metrics:       m,
		Trace:         st.Trace,
	}, nil
}

// mapQubitsToArrays implements the qubit-array mapper (Alg. 1): MAX k-cut of
// the gate-frequency graph under per-array capacity, or the round-robin
// "dense" baseline when ablated.
func mapQubitsToArrays(cfg hardware.Config, circ *circuit.Circuit, opts Options) []int {
	k := cfg.NumArrays()
	caps := cfg.Capacities()
	if opts.DenseMapper {
		// Qiskit-style dense layout: pack qubits into as few arrays as
		// possible, ignoring gate structure. Intra-array pairs then rely on
		// SWAP insertion. At least two arrays stay occupied so the
		// multipartite coupling remains connected.
		part := make([]int, circ.N)
		perArray := caps[0]
		if circ.N <= perArray {
			perArray = (circ.N + 1) / 2
		}
		a, fill := 0, 0
		for q := 0; q < circ.N; q++ {
			for fill >= perArray || fill >= caps[a] {
				a++
				fill = 0
				if a < k && caps[a] < perArray {
					perArray = caps[a]
				}
			}
			part[q] = a
			fill++
		}
		return part
	}
	gf := graphs.GateFrequency(circ, opts.Gamma)
	return graphs.MaxKCutGreedy(gf, k, caps)
}

// arrayOfSlot returns the array owning a slot given part sizes.
func arrayOfSlot(slot int, sizes []int) int {
	for a, s := range sizes {
		if slot < s {
			return a
		}
		slot -= s
	}
	panic("core: slot out of range")
}

func allInOneArray(sizes []int) bool {
	nonEmpty := 0
	for _, s := range sizes {
		if s > 0 {
			nonEmpty++
		}
	}
	return nonEmpty <= 1
}

// sortPairsByWeight returns interaction pairs in descending weight order
// (rank order of Fig 7), ties broken by pair index for determinism.
func sortPairsByWeight(w map[[2]int]int) [][2]int {
	pairs := make([][2]int, 0, len(w))
	for p := range w {
		pairs = append(pairs, p)
	}
	sort.Slice(pairs, func(i, j int) bool {
		wi, wj := w[pairs[i]], w[pairs[j]]
		if wi != wj {
			return wi > wj
		}
		if pairs[i][0] != pairs[j][0] {
			return pairs[i][0] < pairs[j][0]
		}
		return pairs[i][1] < pairs[j][1]
	})
	return pairs
}
