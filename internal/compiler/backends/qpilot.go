package backends

import (
	"context"
	"time"

	"atomique/internal/circuit"
	"atomique/internal/compiler"
	"atomique/internal/qpilot"
)

// qpilotBackend adapts the Q-Pilot flying-ancilla comparator
// (internal/qpilot). FPQA targets contribute their physical parameters; the
// geometry is Q-Pilot's own fixed-compute-plus-ancilla layout.
type qpilotBackend struct{}

func (qpilotBackend) Name() string { return "qpilot" }

func (qpilotBackend) Capabilities() compiler.Capabilities {
	return compiler.Capabilities{
		Description:   "Q-Pilot flying-ancilla scheduler: parity ladders over movable ancillas (Fig 19 comparator)",
		FPQA:          true,
		Movement:      true,
		Deterministic: true,
		// The witness runs every 2Q term through a flying ancilla: one per
		// two compute qubits, so ceil(1.5 n) slots.
		WitnessQubitFactor: 1.5,
		MaxQubits:          4096,
	}
}

func (b qpilotBackend) Compile(ctx context.Context, tgt compiler.Target, circ *circuit.Circuit, opts compiler.Options) (*compiler.Result, error) {
	if err := checkRequest(b, ctx, tgt, circ, opts); err != nil {
		return nil, err
	}
	cfg, err := tgt.Hardware(circ.N)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	m := qpilot.CompileOn(cfg.Params, circ, opts.Seed)
	m.CompileTime = time.Since(start)
	// The witness is the explicit parity-ladder circuit over compute +
	// ancilla qubits; compute qubits never move, so the final placement is
	// the identity on the compute prefix.
	prog := qpilot.Program(circ)
	final := make([]int, circ.N)
	for q := range final {
		final[q] = q
	}
	return &compiler.Result{
		Backend: b.Name(),
		Metrics: m,
		Program: &compiler.Program{NSlots: prog.N, Gates: prog.Gates, FinalSlot: final},
	}, nil
}
