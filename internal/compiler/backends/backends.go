// Package backends registers every built-in compiler with the unified
// backend registry (internal/compiler):
//
//	atomique   the paper's RAA pass pipeline (internal/core)
//	sabre      fixed-topology SABRE baselines (internal/arch, Fig 13)
//	geyser     Geyser three-qubit-pulse comparator (internal/geyser, Table III)
//	qpilot     Q-Pilot flying-ancilla comparator (internal/qpilot, Fig 19)
//	solverref  Tan-Solver/Tan-IterP references (internal/solverref, Fig 14)
//	zoned      ZAP-style zoned-architecture compiler (internal/zoned)
//
// Importing this package (blank import suffices) makes all of them reachable
// through compiler.Lookup; the CLI, the compile service, and the experiment
// drivers do exactly that.
//
// Every adapter validates the request against its declared Capabilities via
// compiler.CheckSupport and emits a compiler.Program execution witness for
// completed compilations; the conformance suite replays the witness through
// the state-vector simulator to prove the compiled output is semantically
// equivalent to the source circuit.
package backends

import (
	"context"
	"fmt"

	"atomique/internal/circuit"
	"atomique/internal/compiler"
	"atomique/internal/pipeline"
)

func init() {
	compiler.Register(atomiqueBackend{})
	compiler.Register(sabreBackend{})
	compiler.Register(geyserBackend{})
	compiler.Register(qpilotBackend{})
	compiler.Register(solverrefBackend{})
	compiler.Register(zonedBackend{})
}

// checkRequest is the shared entry contract every adapter honours: the
// context is still live (backends with long-running inner loops additionally
// check mid-compile), the circuit is within the declared width, and the
// request only asks for declared capabilities.
func checkRequest(b compiler.Backend, ctx context.Context, tgt compiler.Target, circ *circuit.Circuit, opts compiler.Options) error {
	if err := ctx.Err(); err != nil {
		return fmt.Errorf("%s: compilation cancelled: %w", b.Name(), err)
	}
	if err := compiler.CheckWidth(b, circ.N); err != nil {
		return err
	}
	return compiler.CheckSupport(b.Name(), b.Capabilities(), tgt, opts)
}

// programFromSchedule flattens a stage schedule (the atomique and zoned
// compilers' native output) into the execution witness: per stage, the
// one-qubit batch then the parallel two-qubit batch, over nSlots physical
// slots.
func programFromSchedule(s *pipeline.Schedule, nSlots int, finalSlot []int) *compiler.Program {
	n := 0
	for _, st := range s.Stages {
		n += len(st.OneQ) + len(st.Gates)
	}
	gates := make([]circuit.Gate, 0, n)
	for _, st := range s.Stages {
		for _, g := range st.OneQ {
			gates = append(gates, circuit.Gate{Op: g.Op, Q0: g.SlotA, Q1: -1, Param: g.Param})
		}
		for _, g := range st.Gates {
			gates = append(gates, circuit.Gate{Op: g.Op, Q0: g.SlotA, Q1: g.SlotB, Param: g.Param})
		}
	}
	return &compiler.Program{NSlots: nSlots, Gates: gates, FinalSlot: finalSlot}
}

// programFromRouted wraps a routed physical circuit (the SABRE-based
// compilers' native output) as the execution witness.
func programFromRouted(routed *circuit.Circuit, finalSlot []int) *compiler.Program {
	return &compiler.Program{NSlots: routed.N, Gates: routed.Gates, FinalSlot: finalSlot}
}
