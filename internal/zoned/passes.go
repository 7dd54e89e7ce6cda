package zoned

import (
	"context"
	"fmt"
	"sort"

	"atomique/internal/circuit"
	"atomique/internal/fidelity"
	"atomique/internal/graphs"
	"atomique/internal/hardware"
	"atomique/internal/metrics"
	"atomique/internal/move"
	"atomique/internal/pipeline"
)

// Passes returns the zoned pass list for the given machine and options:
// map-storage, schedule-rounds, fidelity. Every entry point drives this
// list through pipeline.Run, so per-pass timings are comparable with the
// flat Atomique pipeline's.
func Passes(geo hardware.ZoneGeometry, p hardware.Params, opts Options) []pipeline.Pass {
	opts = opts.withDefaults()
	return []pipeline.Pass{
		storageMapPass{geo: geo, opts: opts},
		roundSchedulePass{geo: geo, p: p},
		zoneFidelityPass{p: p},
	}
}

// PassNames returns the zoned pass names in execution order.
func PassNames() []string {
	return pipeline.New(Passes(hardware.DefaultZones(), hardware.NeutralAtom(), Options{})...).Names()
}

// storageMapPass partitions qubits into zone-resident groups: every qubit is
// storage-resident, and the gate-frequency ranking decides which storage
// rows it lives in — the hottest qubits take the rows adjacent to the
// entangling zone, minimising their per-round shuttle distance (the zoned
// analogue of the flat pipeline's qubit-array mapper).
type storageMapPass struct {
	geo  hardware.ZoneGeometry
	opts Options
}

func (storageMapPass) Name() string { return "map-storage" }

func (pass storageMapPass) Run(_ context.Context, st *pipeline.State) error {
	n := st.Circ.N
	gf := graphs.GateFrequency(st.Circ, pass.opts.Gamma)
	order := make([]int, n)
	for q := range order {
		order[q] = q
	}
	sort.SliceStable(order, func(i, j int) bool {
		wi, wj := gf.VertexWeight(order[i]), gf.VertexWeight(order[j])
		if wi != wj {
			return wi > wj
		}
		return order[i] < order[j]
	})
	sites := make([]hardware.Site, n)
	for rank, q := range order {
		sites[q] = pass.geo.StorageSite(rank)
	}
	st.SiteOf = sites
	// Qubits are their own slots on a zoned machine: shuttling returns each
	// atom to its storage site, so no SWAP insertion and no permutation.
	identity := make([]int, n)
	for q := range identity {
		identity[q] = q
	}
	st.SlotOf = identity
	st.FinalSlotOf = identity
	return nil
}

// roundSchedulePass batches the dependency frontier into shuttle rounds:
// drain the executable one-qubit layers (Raman pulses in storage), pick up
// to EntangleSites frontier two-qubit gates, shuttle both atoms of each
// pair to a gate site, fire the Rydberg pulse, and shuttle them back. The
// final readout shuttle moves every qubit across to the readout zone. All
// transport accrues heating (move.DeltaNvib), tweezer transfers, and
// shuttle latency in the movement trace.
type roundSchedulePass struct {
	geo hardware.ZoneGeometry
	p   hardware.Params
}

func (roundSchedulePass) Name() string { return "schedule-rounds" }

func (pass roundSchedulePass) Run(ctx context.Context, st *pipeline.State) error {
	geo, p := pass.geo, pass.p
	n := st.Circ.N
	front := circuit.NewFrontier(circuit.NewDAG(st.Circ))
	nvib := make([]float64, n)
	sched := &pipeline.Schedule{}
	var trace fidelity.MovementTrace
	var stats pipeline.RouterStats

	// shuttle is one atom's round trip to a gate site.
	type shuttle struct {
		q    int
		d, t float64
	}

	for !front.Done() {
		if err := ctx.Err(); err != nil {
			return fmt.Errorf("zoned: cancelled mid-schedule: %w", err)
		}

		// Drain every currently executable one-qubit layer.
		var oneQ []pipeline.GateExec
		stats.AddOneQLayers(front.DrainOneQubit(func(g circuit.Gate) {
			oneQ = append(oneQ, pipeline.GateExec{Op: g.Op, SlotA: g.Q0, SlotB: -1, Param: g.Param})
		}), p.Time1Q)
		if front.Done() {
			if len(oneQ) > 0 {
				sched.Stages = append(sched.Stages, pipeline.Stage{OneQ: oneQ})
			}
			break
		}

		// One shuttle round: up to EntangleSites frontier two-qubit gates in
		// frontier (program) order; pair i occupies gate site i.
		var cand []int
		for _, gi := range front.Front() {
			if front.Gate(gi).IsTwoQubit() {
				cand = append(cand, gi)
			}
		}
		if len(cand) > geo.EntangleSites {
			cand = cand[:geo.EntangleSites]
		}
		var gates []pipeline.GateExec
		var moves []shuttle
		maxT := 0.0
		for site, gi := range cand {
			g := front.Gate(gi)
			for _, q := range []int{g.Q0, g.Q1} {
				d := geo.ShuttleDistance(st.SiteOf[q], site, p)
				t := geo.ShuttleTime(d, p)
				moves = append(moves, shuttle{q: q, d: d, t: t})
				if t > maxT {
					maxT = t
				}
			}
			gates = append(gates, pipeline.GateExec{Op: g.Op, SlotA: g.Q0, SlotB: g.Q1, Param: g.Param})
		}

		// Inbound leg: storage -> gate site. The atom transfers out of its
		// storage trap into the moving tweezer and stays there through the
		// gate, so each leg costs one transfer.
		for _, mv := range moves {
			nvib[mv.q] += move.DeltaNvib(mv.d, mv.t, p)
			trace.MoveNvib = append(trace.MoveNvib, nvib[mv.q])
			stats.TotalDist += mv.d
			trace.Transfers++
		}
		// The Rydberg pulse fires with both atoms of a pair held in moving
		// tweezers, so the effective n_vib per gate is the pair sum (the
		// AOD-AOD accounting of the flat router).
		for _, gi := range cand {
			g := front.Gate(gi)
			trace.GateNvib = append(trace.GateNvib, nvib[g.Q0]+nvib[g.Q1])
			front.Execute(gi)
		}
		// Outbound leg: gate site -> storage (transfer back into the trap).
		for _, mv := range moves {
			nvib[mv.q] += move.DeltaNvib(mv.d, mv.t, p)
			trace.MoveNvib = append(trace.MoveNvib, nvib[mv.q])
			stats.TotalDist += mv.d
			trace.Transfers++
		}

		trace.StageQubits = append(trace.StageQubits, n)
		trace.StageMoveTime = append(trace.StageMoveTime, 2*maxT)
		stats.ExecTime += 2*maxT + 2*p.TransferTime + p.Time2Q
		stats.Stages++
		sched.Stages = append(sched.Stages, pipeline.Stage{OneQ: oneQ, Gates: gates})

		// Cooling: when any atom crosses the threshold, every heated atom is
		// swapped into a cold trap (two CZ each, like the flat router).
		hot := false
		for _, v := range nvib {
			if v > p.NvibCool {
				hot = true
				break
			}
		}
		if hot {
			heated := 0
			for i, v := range nvib {
				if v > 0 {
					heated++
					nvib[i] = 0
				}
			}
			trace.CoolingAtomCounts = append(trace.CoolingAtomCounts, heated)
			stats.Coolings++
			stats.ExecTime += 2 * p.Time2Q
		}
	}

	// Final readout shuttle: every qubit crosses both gaps to the readout
	// zone in one parallel transport stage.
	if n > 0 {
		maxT := 0.0
		for q := 0; q < n; q++ {
			d := geo.ReadoutDistance(st.SiteOf[q], p)
			t := geo.ShuttleTime(d, p)
			nvib[q] += move.DeltaNvib(d, t, p)
			trace.MoveNvib = append(trace.MoveNvib, nvib[q])
			stats.TotalDist += d
			trace.Transfers += 2 // storage pickup + readout-zone dropoff
			if t > maxT {
				maxT = t
			}
		}
		trace.StageQubits = append(trace.StageQubits, n)
		trace.StageMoveTime = append(trace.StageMoveTime, maxT)
		stats.ExecTime += maxT + 2*p.TransferTime
	}

	st.Schedule = sched
	st.Trace = trace
	st.Router = stats
	return nil
}

// zoneFidelityPass is the final stage: static gate accounting plus the
// fidelity model over the shuttle trace, summarised into the metrics
// record. CompileTime and Passes are filled by the caller once the pipeline
// returns.
type zoneFidelityPass struct{ p hardware.Params }

func (zoneFidelityPass) Name() string { return "fidelity" }

func (pass zoneFidelityPass) Run(_ context.Context, st *pipeline.State) error {
	moveStages := st.Router.Stages
	if st.Circ.N > 0 {
		moveStages++ // the readout shuttle
	}
	st.Metrics = metrics.Compiled{
		Arch: ArchLabel,
		Counts: fidelity.Counts{
			NQubits:   st.Circ.N,
			N2Q:       st.Circ.Num2Q(),
			N1Q:       st.Circ.Num1Q(),
			Depth2Q:   st.Router.Stages,
			N1QLayers: st.Router.OneQLayers,
		},
		ExecutionTime: st.Router.ExecTime,
		MoveStages:    moveStages,
		TotalMoveDist: st.Router.TotalDist,
		CoolingEvents: st.Router.Coolings,
	}
	st.Metrics.Evaluate(pass.p, st.Trace)
	return nil
}
