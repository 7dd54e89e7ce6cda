package pipeline

import (
	"math/rand"

	"atomique/internal/circuit"
	"atomique/internal/fidelity"
	"atomique/internal/hardware"
	"atomique/internal/metrics"
)

// State is the typed intermediate state threaded through a pass pipeline.
// Each pass consumes the artifacts of earlier passes and fills in its own;
// the field groups below appear in the order the Atomique pass list
// produces them. Backends that skip a stage simply leave its fields zero.
type State struct {
	// Inputs, set by the caller before Run.
	Cfg  hardware.Config
	Circ *circuit.Circuit
	Seed int64
	// Rng drives every randomised tie-break; the caller seeds it so the
	// whole pipeline is deterministic per seed.
	Rng *rand.Rand

	// Qubit-array mapping artifacts.
	ArrayOf []int // logical qubit -> array (0 = SLM)
	Sizes   []int // per-array occupancy
	SlotOf  []int // logical qubit -> physical slot before execution

	// Inter-array routing artifacts.
	Routed      *circuit.Circuit // physical circuit over slots, SWAPs inserted
	FinalSlotOf []int            // logical qubit -> slot after execution
	SwapCount   int

	// Atom placement.
	SiteOf []hardware.Site // slot -> trap site

	// Scheduling artifacts.
	Schedule *Schedule
	Trace    fidelity.MovementTrace
	Router   RouterStats

	// Final summary.
	Metrics metrics.Compiled
}

// GateCount returns the gate total of the most concrete circuit
// representation the pipeline has produced so far: the schedule once one
// exists, else the routed circuit, else the source. Pass instrumentation
// snapshots it after every pass.
func (st *State) GateCount() int {
	if st.Schedule != nil {
		n := 0
		for _, stage := range st.Schedule.Stages {
			n += len(stage.OneQ) + len(stage.Gates)
		}
		return n
	}
	if st.Routed != nil {
		return len(st.Routed.Gates)
	}
	if st.Circ != nil {
		return len(st.Circ.Gates)
	}
	return 0
}

// MoveCount returns the AOD row/column moves scheduled so far.
func (st *State) MoveCount() int {
	if st.Schedule == nil {
		return 0
	}
	n := 0
	for _, stage := range st.Schedule.Stages {
		n += len(stage.Moves)
	}
	return n
}

// RouterStats aggregates the counters the routing pass produces beyond the
// schedule itself.
type RouterStats struct {
	ExecTime   float64 // schedule wall-clock length in seconds
	TotalDist  float64 // total atom movement in meters
	Coolings   int     // cooling swaps performed
	Overlaps   int     // gates rejected from a stage by the overlap rule
	OneQLayers int     // parallel one-qubit layers executed
	Stages     int     // movement stages
}

// AddOneQLayers records n parallel one-qubit layers of t seconds each. The
// time accrues one layer at a time, not as n*t: the regress goldens pin the
// rounding of that sum.
func (s *RouterStats) AddOneQLayers(n int, t float64) {
	s.OneQLayers += n
	for range n {
		s.ExecTime += t
	}
}
