package core

import (
	"context"
	"fmt"

	"atomique/internal/fidelity"
	"atomique/internal/metrics"
	"atomique/internal/pipeline"
	"atomique/internal/sabre"
)

// Passes returns the Atomique pass list (Fig 3) for the given options:
//
//	map-arrays       qubit-array mapper (greedy MAX k-cut, Alg. 1)
//	route-interarray inter-array SWAP insertion (SABRE on the multipartite graph)
//	map-atoms        qubit-atom mapper (Figs 6-7)
//	route            high-parallelism AOD router (Figs 8-11)
//	fidelity         static counts + fidelity model evaluation (Sec. IV)
//
// Every entry point (Compile, the CLI, the experiment drivers, the compile
// service) drives this same list through pipeline.Run, so per-pass timings
// are comparable everywhere.
func Passes(opts Options) []pipeline.Pass {
	opts = opts.withDefaults()
	return []pipeline.Pass{
		arrayMapPass{opts},
		swapInsertPass{opts},
		atomMapPass{opts},
		routePass{opts},
		fidelityPass{opts},
	}
}

// PassNames returns the Atomique pass names in execution order.
func PassNames() []string {
	return pipeline.New(Passes(Options{})...).Names()
}

// arrayMapPass is stage 1: assign each logical qubit to the SLM or an AOD
// array and pack qubits into contiguous slot ranges per array.
type arrayMapPass struct{ opts Options }

func (p arrayMapPass) Name() string { return "map-arrays" }

func (p arrayMapPass) Run(_ context.Context, st *pipeline.State) error {
	st.ArrayOf = mapQubitsToArrays(st.Cfg, st.Circ, p.opts)
	st.Sizes, st.SlotOf = sabre.PackSlots(st.ArrayOf, st.Cfg.NumArrays())
	return nil
}

// swapInsertPass is stage 2: SABRE routing on the complete multipartite
// coupling graph makes every remaining two-qubit gate cross-array.
type swapInsertPass struct{ opts Options }

func (p swapInsertPass) Name() string { return "route-interarray" }

func (p swapInsertPass) Run(_ context.Context, st *pipeline.State) error {
	if allInOneArray(st.Sizes) && st.Circ.Num2Q() > 0 {
		return fmt.Errorf("core: all qubits mapped to one array; no couplings available")
	}
	res := sabre.RouteMultipartite(st.Circ, st.Sizes, st.SlotOf, p.opts.Seed)
	st.Routed = res.Routed
	st.SwapCount = res.SwapCount
	st.FinalSlotOf = res.FinalMapping
	return nil
}

// atomMapPass is stage 3: assign every occupied slot a trap site.
type atomMapPass struct{ opts Options }

func (p atomMapPass) Name() string { return "map-atoms" }

func (p atomMapPass) Run(_ context.Context, st *pipeline.State) error {
	st.SiteOf = mapSlotsToAtoms(st.Cfg, st.Routed, st.Sizes, p.opts, st.Rng)
	return nil
}

// routePass is stage 4: the high-parallelism AOD router.
type routePass struct{ opts Options }

func (p routePass) Name() string { return "route" }

func (p routePass) Run(ctx context.Context, st *pipeline.State) error {
	sched, trace, stats, err := route(ctx, st.Cfg, st.Routed, st.SiteOf, st.Sizes, p.opts)
	if err != nil {
		return err
	}
	st.Schedule = sched
	st.Trace = trace
	st.Router = stats
	return nil
}

// fidelityPass is the final stage: static gate accounting plus the fidelity
// model over the movement trace, summarised into the metrics record.
// CompileTime and Passes are filled by the caller once the pipeline returns.
type fidelityPass struct{ opts Options }

func (p fidelityPass) Name() string { return "fidelity" }

func (p fidelityPass) Run(_ context.Context, st *pipeline.State) error {
	st.Static = fidelity.Static{
		NQubits:   st.Circ.N,
		N1Q:       st.Routed.Num1Q(),
		N1QLayers: st.Router.OneQLayers,
		N2Q:       st.Routed.Num2Q(),
		Depth2Q:   st.Router.Stages,
	}
	bd := fidelity.Evaluate(st.Cfg.Params, st.Static, st.Trace)
	st.Metrics = metrics.Compiled{
		Arch:          "Atomique",
		NQubits:       st.Circ.N,
		N2Q:           st.Routed.Num2Q(),
		N1Q:           st.Routed.Num1Q(),
		Depth2Q:       st.Router.Stages,
		N1QLayers:     st.Router.OneQLayers,
		SwapCount:     st.SwapCount,
		AddedCNOTs:    3 * st.SwapCount,
		ExecutionTime: st.Router.ExecTime,
		MoveStages:    st.Router.Stages,
		TotalMoveDist: st.Router.TotalDist,
		AvgMoveDist:   st.Router.AvgDist(),
		CoolingEvents: st.Router.Coolings,
		Overlaps:      st.Router.Overlaps,
		Fidelity:      bd,
	}
	return nil
}
