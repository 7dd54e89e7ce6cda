package backends

import (
	"context"
	"time"

	"atomique/internal/circuit"
	"atomique/internal/compiler"
	"atomique/internal/geyser"
	"atomique/internal/metrics"
)

// geyserBackend adapts the Geyser comparator (internal/geyser). Its block
// and pulse counts — the Table III fidelity proxy — ride in Result.Extra;
// the common metrics record carries the routed gate accounting.
type geyserBackend struct{}

func (geyserBackend) Name() string { return "geyser" }

func (geyserBackend) Capabilities() compiler.Capabilities {
	return compiler.Capabilities{
		Description:   "Geyser three-qubit-pulse re-synthesis on a triangular fixed atom array (Table III comparator)",
		Coupling:      true,
		Routes:        true,
		Deterministic: true,
		MaxQubits:     1024,
	}
}

func (b geyserBackend) Compile(ctx context.Context, tgt compiler.Target, circ *circuit.Circuit, opts compiler.Options) (*compiler.Result, error) {
	if err := checkRequest(b, ctx, tgt, circ, opts); err != nil {
		return nil, err
	}
	a, err := tgt.Arch(circ.N, compiler.FamilyTriangular)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	r, err := geyser.CompileOn(a, circ, opts.Seed)
	if err != nil {
		return nil, err
	}
	return &compiler.Result{
		Backend: b.Name(),
		Metrics: metrics.Compiled{
			Arch:        "Geyser",
			NQubits:     circ.N,
			N2Q:         r.Routed2Q,
			N1Q:         circ.Num1Q(),
			SwapCount:   r.SwapCount,
			AddedCNOTs:  3 * r.SwapCount,
			CompileTime: time.Since(start),
		},
		Extra: map[string]float64{
			"blocks": float64(r.Blocks),
			"pulses": float64(r.Pulses),
		},
		Program: programFromRouted(r.Routed, r.FinalMapping),
	}, nil
}
