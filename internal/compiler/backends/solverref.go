package backends

import (
	"context"
	"fmt"
	"time"

	"atomique/internal/circuit"
	"atomique/internal/compiler"
	"atomique/internal/solverref"
)

// solverrefBackend adapts the solver-based RAA references (internal/
// solverref). Options.Exact selects Tan-Solver (exact, exponential, budget-
// bounded); the default is the greedy Tan-IterP relaxation. The machine is
// the single-AOD square-array setup of Fig 14; an FPQA target's SLM side
// sets the array size, the auto target keeps the 16x16 OLSQ-DPQA setting.
type solverrefBackend struct{}

func (solverrefBackend) Name() string { return "solverref" }

func (solverrefBackend) Capabilities() compiler.Capabilities {
	return compiler.Capabilities{
		Description:   "Tan-Solver / Tan-IterP solver references on a single-AOD RAA (Fig 14 comparators; the exact option selects the anytime Tan-Solver mode, whose output depends on the budget)",
		FPQA:          true,
		Movement:      true,
		Routes:        true,
		Deterministic: true,
		Exact:         true,
		Budget:        true,
		MaxQubits:     256, // its 16x16 arrays
	}
}

func (b solverrefBackend) Compile(ctx context.Context, tgt compiler.Target, circ *circuit.Circuit, opts compiler.Options) (*compiler.Result, error) {
	if err := checkRequest(b, ctx, tgt, circ, opts); err != nil {
		return nil, err
	}
	sopts := solverref.Options{Mode: solverref.IterP, Seed: opts.Seed}
	if opts.Exact {
		sopts.Mode = solverref.Solver
	}
	if opts.BudgetSeconds > 0 {
		sopts.Budget = time.Duration(opts.BudgetSeconds * float64(time.Second))
	}
	if tgt.Kind != compiler.KindAuto {
		cfg, err := tgt.Hardware(circ.N)
		if err != nil {
			return nil, err
		}
		if cfg.SLM.Rows != cfg.SLM.Cols {
			return nil, fmt.Errorf("solverref: needs a square SLM, got %dx%d", cfg.SLM.Rows, cfg.SLM.Cols)
		}
		sopts.ArraySize = cfg.SLM.Rows
	}
	r, err := solverref.Compile(circ, sopts)
	if err != nil {
		return nil, err
	}
	res := &compiler.Result{
		Backend:  b.Name(),
		Metrics:  r.Metrics,
		TimedOut: r.TimedOut,
	}
	if r.Routed != nil {
		res.Program = programFromRouted(r.Routed, r.FinalSlotOf)
	}
	return res, nil
}
