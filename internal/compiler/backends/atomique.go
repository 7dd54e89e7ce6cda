package backends

import (
	"context"

	"atomique/internal/circuit"
	"atomique/internal/compiler"
	"atomique/internal/core"
)

// atomiqueBackend adapts the paper's pass-pipeline compiler (internal/core)
// to the unified API. It is the default backend everywhere.
type atomiqueBackend struct{}

func (atomiqueBackend) Name() string { return "atomique" }

func (atomiqueBackend) Capabilities() compiler.Capabilities {
	return compiler.Capabilities{
		Description:   "Atomique RAA pass pipeline: MAX k-cut array mapper, inter-array SABRE, load-balanced atom placement, high-parallelism movement router",
		FPQA:          true,
		Movement:      true,
		Routes:        true,
		Deterministic: true,
		MaxQubits:     1024,
	}
}

func (b atomiqueBackend) Compile(ctx context.Context, tgt compiler.Target, circ *circuit.Circuit, opts compiler.Options) (*compiler.Result, error) {
	if err := checkRequest(b, ctx, tgt, circ, opts); err != nil {
		return nil, err
	}
	cfg, err := tgt.Hardware(circ.N)
	if err != nil {
		return nil, err
	}
	res, err := core.CompileContext(ctx, cfg, circ, core.Options{
		Gamma:            opts.Gamma,
		Seed:             opts.Seed,
		DenseMapper:      opts.DenseMapper,
		RandomAtomMapper: opts.RandomAtomMapper,
		SerialRouter:     opts.SerialRouter,
		RelaxAddressing:  opts.RelaxAddressing,
		RelaxOrder:       opts.RelaxOrder,
		RelaxOverlap:     opts.RelaxOverlap,
	})
	if err != nil {
		return nil, err
	}
	return &compiler.Result{
		Backend:  b.Name(),
		Metrics:  res.Metrics,
		Program:  programFromSchedule(res.Schedule, len(res.SiteOf), res.FinalSlotOf),
		Artifact: res,
	}, nil
}
