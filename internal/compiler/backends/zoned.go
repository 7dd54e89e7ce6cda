package backends

import (
	"context"

	"atomique/internal/circuit"
	"atomique/internal/compiler"
	"atomique/internal/zoned"
)

// zonedBackend adapts the ZAP-style zoned-architecture compiler
// (internal/zoned). Zoned targets carry the storage/entangling/readout
// geometry; the auto target is the default zoned machine grown to fit the
// circuit. Qubits never permute (no SWAP insertion), so the witness's final
// placement is the identity.
type zonedBackend struct{}

func (zonedBackend) Name() string { return "zoned" }

func (zonedBackend) Capabilities() compiler.Capabilities {
	return compiler.Capabilities{
		Description:   "ZAP-style zoned atom array: storage / Rydberg-entangling / readout zones with batched inter-zone shuttling and transfer-loss accounting",
		Zoned:         true,
		Movement:      true,
		Routes:        true,
		Deterministic: true,
		MaxQubits:     4096,
	}
}

func (b zonedBackend) Compile(ctx context.Context, tgt compiler.Target, circ *circuit.Circuit, opts compiler.Options) (*compiler.Result, error) {
	if err := checkRequest(b, ctx, tgt, circ, opts); err != nil {
		return nil, err
	}
	geo, params, err := tgt.ZoneSetup(circ.N)
	if err != nil {
		return nil, err
	}
	res, err := zoned.CompileContext(ctx, geo, params, circ, zoned.Options{Gamma: opts.Gamma})
	if err != nil {
		return nil, err
	}
	return &compiler.Result{
		Backend:  b.Name(),
		Metrics:  res.Metrics,
		Program:  programFromSchedule(res.Schedule, circ.N, res.FinalSlotOf),
		Artifact: res,
	}, nil
}
