// Package zoned implements a ZAP-style compiler for zoned neutral-atom
// architectures (arXiv:2411.14037): instead of the flat SLM+AOD array the
// Atomique pipeline targets, the machine has a storage zone holding idle
// qubits, a Rydberg entangling zone with a fixed number of parallel gate
// sites, and a readout zone, with atoms shuttled between zones by movable
// tweezers.
//
// The compilation problem changes accordingly. Nothing needs SWAP insertion
// — any pair can be brought together in the entangling zone — so routing
// degenerates to scheduling: two-qubit gates are batched into shuttle
// rounds bounded by the gate-site count, and the cost model shifts from
// AOD-legality-constrained movement to shuttle latency (ZoneGeometry
// distances at ShuttleSpeed), trap-tweezer transfer loss (two transfers per
// atom per round trip), and transport heating, all accounted through the
// shared fidelity model (internal/fidelity).
//
// The compiler runs as a pass pipeline over the same typed state as the
// Atomique pass list (internal/pipeline):
//
//	map-storage      rank qubits by gate frequency and place the hottest in
//	                 the storage rows nearest the entangling zone
//	schedule-rounds  frontier-driven batching of 2Q gates into shuttle-in /
//	                 entangle / shuttle-out rounds (plus the final readout
//	                 shuttle), tracking heating, cooling, and transfers
//	fidelity         static counts + fidelity model evaluation
package zoned

import (
	"context"
	"fmt"
	"time"

	"atomique/internal/circuit"
	"atomique/internal/fidelity"
	"atomique/internal/hardware"
	"atomique/internal/metrics"
	"atomique/internal/pipeline"
)

// Options configures a zoned compilation. The zero value is the default
// configuration.
type Options struct {
	// Gamma is the per-layer decay of gate-frequency edge weights used by
	// the storage placement ranking (default 0.95, like the flat mapper).
	Gamma float64
}

func (o Options) withDefaults() Options {
	if o.Gamma == 0 {
		o.Gamma = 0.95
	}
	return o
}

// Result is a complete zoned compilation outcome.
type Result struct {
	// Geometry and Params are the machine the schedule was compiled for.
	Geometry hardware.ZoneGeometry
	Params   hardware.Params
	// SiteOf maps each qubit to its storage-zone site. Qubits are their own
	// slots: shuttling returns every atom to its storage site after each
	// round, so no permutation ever occurs.
	SiteOf []hardware.Site
	// FinalSlotOf is the identity mapping, recorded for API uniformity with
	// the routing compilers.
	FinalSlotOf []int
	// Schedule is the executable round program: each stage is one shuttle
	// round (one-qubit batch, then the entangling-zone 2Q batch).
	Schedule *pipeline.Schedule
	// Metrics summarises the compilation.
	Metrics metrics.Compiled
	// Trace is the movement trace consumed by the fidelity model.
	Trace fidelity.MovementTrace
}

// ArchLabel is the metrics architecture label of the zoned compiler.
const ArchLabel = "Zoned-FPQA"

// Compile schedules circ on the zoned machine described by geo with physical
// parameters p.
func Compile(geo hardware.ZoneGeometry, p hardware.Params, circ *circuit.Circuit, opts Options) (*Result, error) {
	return CompileContext(context.Background(), geo, p, circ, opts)
}

// CompileContext is Compile with cancellation: the pipeline checks ctx
// between passes and the round scheduler checks it between rounds.
func CompileContext(ctx context.Context, geo hardware.ZoneGeometry, p hardware.Params, circ *circuit.Circuit, opts Options) (*Result, error) {
	opts = opts.withDefaults()
	if err := geo.Validate(); err != nil {
		return nil, err
	}
	if circ.N > geo.StorageCapacity() {
		return nil, fmt.Errorf("zoned: circuit needs %d qubits, storage zone has %d sites",
			circ.N, geo.StorageCapacity())
	}
	start := time.Now()
	st := &pipeline.State{Circ: circ}
	timings, err := pipeline.New(Passes(geo, p, opts)...).Run(ctx, st)
	if err != nil {
		return nil, err
	}
	m := st.Metrics
	m.CompileTime = time.Since(start)
	m.Passes = timings
	return &Result{
		Geometry:    geo,
		Params:      p,
		SiteOf:      st.SiteOf,
		FinalSlotOf: st.FinalSlotOf,
		Schedule:    st.Schedule,
		Metrics:     m,
		Trace:       st.Trace,
	}, nil
}
