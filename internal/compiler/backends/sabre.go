package backends

import (
	"context"
	"time"

	"atomique/internal/arch"
	"atomique/internal/circuit"
	"atomique/internal/compiler"
)

// sabreBackend adapts the fixed-topology SABRE baselines (internal/arch):
// coupling targets select the device family (superconducting heavy-hex,
// rectangular/triangular FAA, Baker long-range); the auto target is a
// rectangular FAA sized for the circuit.
type sabreBackend struct{}

func (sabreBackend) Name() string { return "sabre" }

func (sabreBackend) Capabilities() compiler.Capabilities {
	return compiler.Capabilities{
		Description:   "SABRE routing on fixed coupling graphs (Fig 13 baselines: superconducting, rectangular, triangular, long-range)",
		Coupling:      true,
		Routes:        true,
		Deterministic: true,
		MaxQubits:     1024,
	}
}

func (b sabreBackend) Compile(ctx context.Context, tgt compiler.Target, circ *circuit.Circuit, opts compiler.Options) (*compiler.Result, error) {
	if err := checkRequest(b, ctx, tgt, circ, opts); err != nil {
		return nil, err
	}
	a, err := tgt.Arch(circ.N, compiler.FamilyRectangular)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	m, routed, err := arch.CompileRouted(a, circ, opts.Seed)
	if err != nil {
		return nil, err
	}
	m.CompileTime = time.Since(start)
	return &compiler.Result{
		Backend: b.Name(),
		Metrics: m,
		Program: programFromRouted(routed.Routed, routed.FinalMapping),
	}, nil
}
