package core

import (
	"context"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"atomique/internal/circuit"
	"atomique/internal/fidelity"
	"atomique/internal/graphs"
	"atomique/internal/hardware"
	"atomique/internal/metrics"
	"atomique/internal/pipeline"
	"atomique/internal/sabre"
)

// compileReference reproduces the pre-refactor monolithic CompileContext
// orchestration — the same stage functions called inline, without the pass
// pipeline — and additionally returns the routed intermediate circuit. The
// pass-based Compile must produce gate-for-gate identical output.
func compileReference(cfg hardware.Config, circ *circuit.Circuit, opts Options) (*Result, *circuit.Circuit, error) {
	opts = opts.withDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, nil, err
	}
	rng := rand.New(rand.NewSource(opts.Seed))

	arrayOf := mapQubitsToArrays(cfg, circ, opts)
	sizes, slotOf := sabre.PackSlots(arrayOf, cfg.NumArrays())
	mp := graphs.CompleteMultipartite(sizes)
	var routed *circuit.Circuit
	var swaps int
	finalSlotOf := slotOf
	if circ.Num2Q() == 0 {
		routed = circ.Remap(mp.N, slotOf)
	} else {
		res := sabre.Route(circ, mp, sabre.Options{InitialMapping: slotOf, Seed: opts.Seed})
		routed = res.Routed
		swaps = res.SwapCount
		finalSlotOf = res.FinalMapping
	}
	siteOf := mapSlotsToAtoms(cfg, routed, sizes, opts, rng)
	sched, trace, stats, err := route(context.Background(), cfg, routed, siteOf, sizes, opts)
	if err != nil {
		return nil, nil, err
	}
	static := fidelity.Static{
		NQubits:   circ.N,
		N1Q:       routed.Num1Q(),
		N1QLayers: stats.OneQLayers,
		N2Q:       routed.Num2Q(),
		Depth2Q:   stats.Stages,
	}
	m := metrics.Compiled{
		Arch:          "Atomique",
		NQubits:       circ.N,
		N2Q:           routed.Num2Q(),
		N1Q:           routed.Num1Q(),
		Depth2Q:       stats.Stages,
		N1QLayers:     stats.OneQLayers,
		SwapCount:     swaps,
		AddedCNOTs:    3 * swaps,
		ExecutionTime: stats.ExecTime,
		MoveStages:    stats.Stages,
		TotalMoveDist: stats.TotalDist,
		AvgMoveDist:   stats.AvgDist(),
		CoolingEvents: stats.Coolings,
		Overlaps:      stats.Overlaps,
		Fidelity:      fidelity.Evaluate(cfg.Params, static, trace),
	}
	return &Result{
		ArrayOf:       arrayOf,
		SiteOf:        siteOf,
		InitialSlotOf: slotOf,
		FinalSlotOf:   finalSlotOf,
		Schedule:      sched,
		Metrics:       m,
		Trace:         trace,
		Static:        static,
	}, routed, nil
}

// schedulePairs returns the multiset of two-qubit slot pairs a schedule
// executes, keyed canonically.
func schedulePairs(s *pipeline.Schedule) map[[2]int]int {
	pairs := make(map[[2]int]int)
	for _, st := range s.Stages {
		for _, g := range st.Gates {
			pairs[pairKey(g.SlotA, g.SlotB)]++
		}
	}
	return pairs
}

// circuitPairs returns the multiset of two-qubit pairs in a circuit.
func circuitPairs(c *circuit.Circuit) map[[2]int]int {
	pairs := make(map[[2]int]int)
	for _, g := range c.Gates {
		if g.IsTwoQubit() {
			pairs[pairKey(g.Q0, g.Q1)]++
		}
	}
	return pairs
}

// TestPipelineMatchesReferencePath compiles 50 seeded random circuits
// through both the pass pipeline and the pre-refactor reference path and
// requires identical output: same placement, same schedule gate for gate,
// same metrics and movement trace. It also asserts the routing pass
// preserves two-qubit pairs: the multiset of slot pairs the schedule fires
// equals the multiset of pairs in the routed intermediate circuit.
func TestPipelineMatchesReferencePath(t *testing.T) {
	for trial := 0; trial < 50; trial++ {
		seed := int64(1000 + trial)
		rng := rand.New(rand.NewSource(seed))
		n := 4 + rng.Intn(24)
		side := 3 + rng.Intn(2)
		cfg := hardware.SquareConfig(side, 1+rng.Intn(2))
		if n > cfg.Capacity() {
			n = cfg.Capacity()
		}
		c := randomMixed(rng, n, 20+rng.Intn(130))
		opts := Options{Seed: seed}

		got, err := Compile(cfg, c, opts)
		if err != nil {
			t.Fatalf("trial %d: pipeline compile: %v", trial, err)
		}
		want, routed, err := compileReference(cfg, c, opts)
		if err != nil {
			t.Fatalf("trial %d: reference compile: %v", trial, err)
		}

		// Wall-clock instrumentation is the only permitted difference.
		gm := got.Metrics
		gm.CompileTime = 0
		gm.Passes = nil
		if !reflect.DeepEqual(gm, want.Metrics) {
			t.Fatalf("trial %d (seed %d): metrics diverge:\npipeline:  %+v\nreference: %+v",
				trial, seed, gm, want.Metrics)
		}
		if !reflect.DeepEqual(got.Schedule, want.Schedule) {
			t.Fatalf("trial %d (seed %d): schedules diverge", trial, seed)
		}
		if !reflect.DeepEqual(got.ArrayOf, want.ArrayOf) ||
			!reflect.DeepEqual(got.SiteOf, want.SiteOf) ||
			!reflect.DeepEqual(got.InitialSlotOf, want.InitialSlotOf) ||
			!reflect.DeepEqual(got.FinalSlotOf, want.FinalSlotOf) {
			t.Fatalf("trial %d (seed %d): placements diverge", trial, seed)
		}
		if !reflect.DeepEqual(got.Trace, want.Trace) {
			t.Fatalf("trial %d (seed %d): movement traces diverge", trial, seed)
		}

		// Routing preserves two-qubit pairs: nothing is dropped, duplicated,
		// or retargeted between the routed circuit and the schedule.
		if sp, cp := schedulePairs(got.Schedule), circuitPairs(routed); !reflect.DeepEqual(sp, cp) {
			t.Fatalf("trial %d (seed %d): schedule pairs %v != routed pairs %v", trial, seed, sp, cp)
		}
	}
}

// TestCompileDeterministicPerSeed pins the deterministic-per-seed contract
// the service cache relies on, now including move ordering (commitMoves
// emits moves in sorted index order).
func TestCompileDeterministicPerSeed(t *testing.T) {
	cfg := hardware.SquareConfig(4, 2)
	rng := rand.New(rand.NewSource(9))
	c := randomMixed(rng, 12, 80)
	a, err := Compile(cfg, c, Options{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Compile(cfg, c, Options{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a.Schedule, b.Schedule) {
		t.Fatal("schedules differ across identical compiles")
	}
	am, bm := a.Metrics, b.Metrics
	am.CompileTime, bm.CompileTime = 0, 0
	am.Passes, bm.Passes = nil, nil
	if !reflect.DeepEqual(am, bm) {
		t.Fatalf("metrics differ across identical compiles:\n%+v\n%+v", am, bm)
	}
}

// TestPassTimingsPopulated asserts the instrumentation contract: one timing
// per pass, in pass order, with the route pass reporting the scheduled
// moves.
func TestPassTimingsPopulated(t *testing.T) {
	cfg := hardware.SquareConfig(4, 2)
	rng := rand.New(rand.NewSource(11))
	c := randomMixed(rng, 10, 60)
	res, err := Compile(cfg, c, Options{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	names := PassNames()
	if len(res.Metrics.Passes) != len(names) {
		t.Fatalf("got %d pass timings, want %d", len(res.Metrics.Passes), len(names))
	}
	totalMoves := 0
	for _, st := range res.Schedule.Stages {
		totalMoves += len(st.Moves)
	}
	for i, p := range res.Metrics.Passes {
		if p.Name != names[i] {
			t.Errorf("pass %d = %q, want %q", i, p.Name, names[i])
		}
		if p.Seconds < 0 {
			t.Errorf("pass %q negative wall time", p.Name)
		}
	}
	last := res.Metrics.Passes[len(res.Metrics.Passes)-1]
	if last.Moves != totalMoves {
		t.Errorf("final pass moves = %d, want %d", last.Moves, totalMoves)
	}
	var sum float64
	for _, p := range res.Metrics.Passes {
		sum += p.Seconds
	}
	if sum > res.Metrics.CompileTime.Seconds()+float64(time.Second.Seconds()) {
		t.Errorf("pass seconds %v exceed compile time %v", sum, res.Metrics.CompileTime)
	}
}
