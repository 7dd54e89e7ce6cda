// Command atomique compiles a benchmark circuit with any registered compiler
// backend and prints the compilation metrics: two-qubit gates, depth
// (movement stages), SWAP overhead, movement distance, cooling events,
// execution time, and the fidelity breakdown.
//
// Usage:
//
//	atomique -bench QAOA-regu5-40 [-backend atomique] [-slm 10] [-aods 2]
//	         [-aodsize 10] [-serial] [-dense] [-relax 1,2,3] [-schedule]
//	         [-seed 7] [-noisy] [-shots 5000] [-sample] [-shotoffset 0]
//	atomique -backend sabre -family triangular -bench QV-32
//	atomique -backend zoned -bench QV-32 [-zstorage 12] [-zsites 6] [-zgap 80]
//	atomique -list          # benchmarks
//	atomique -backends      # registered compiler backends
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"sort"

	"atomique/internal/bench"
	"atomique/internal/compiler"
	"atomique/internal/core"
	"atomique/internal/fidelity"
	"atomique/internal/hardware"
	"atomique/internal/obs"
	"atomique/internal/qasm"
	"atomique/internal/viz"

	_ "atomique/internal/compiler/backends" // register the built-in backends
)

func main() {
	var (
		name         = flag.String("bench", "QAOA-regu5-40", "benchmark name (see -list)")
		qasmIn       = flag.String("qasm", "", "compile an OpenQASM 2.0 file instead of a benchmark")
		emit         = flag.String("emit", "", "write the selected benchmark as OpenQASM 2.0 to this file and exit ('-' for stdout)")
		list         = flag.Bool("list", false, "list available benchmarks and exit")
		listBackends = flag.Bool("backends", false, "list registered compiler backends and exit")
		backendName  = flag.String("backend", "atomique", "compiler backend (see -backends)")
		family       = flag.String("family", "", "coupling family for fixed-topology backends (superconducting, rectangular, triangular, long-range)")
		slm          = flag.Int("slm", 0, "SLM array side length (FPQA backends; 0 = the paper's 10)")
		aods         = flag.Int("aods", 0, "number of AOD arrays (FPQA backends; 0 = the paper's 2)")
		aodSize      = flag.Int("aodsize", 0, "AOD array side length (FPQA backends; 0 = the paper's 10)")
		zStorage     = flag.Int("zstorage", 0, "storage-zone side length (zoned backends; 0 = sized for the circuit)")
		zSites       = flag.Int("zsites", 0, "entangling-zone gate sites (zoned backends; 0 = default)")
		zGap         = flag.Float64("zgap", 0, "storage-entangling zone gap in um (zoned backends; 0 = default)")
		seed         = flag.Int64("seed", 7, "compilation seed")
		serial       = flag.Bool("serial", false, "ablate: serial router (one gate per stage)")
		dense        = flag.Bool("dense", false, "ablate: round-robin array mapper")
		relax        = flag.String("relax", "", "comma-separated constraints to relax (1,2,3)")
		exact        = flag.Bool("exact", false, "solver backends: exact (exponential) mode")
		budget       = flag.Float64("budget", 0, "solver backends: compile budget in seconds (0 = default)")
		noisy        = flag.Bool("noisy", false, "run Monte-Carlo trajectory noise estimation after compiling")
		shots        = flag.Int("shots", 0, "noisy-simulation trajectory count (implies -noisy; 0 with -noisy = 2000)")
		sample       = flag.Bool("sample", false, "sample measurement bitstrings instead of estimating fidelity (histogram over -shots, default 4096)")
		shotOffset   = flag.Int64("shotoffset", 0, "global index of the first sampled shot (-sample shard/resume support)")
		noiseSeed    = flag.Int64("noiseseed", 0, "noisy-simulation sampling seed")
		noiseScale   = flag.Float64("noisescale", 0, "multiply every noise-channel probability (0 = 1.0)")
		traceFlag    = flag.Bool("trace", false, "record a span trace of the compilation and print the tree")
		schedule     = flag.Bool("schedule", false, "print the movement/gate schedule")
		vizFlag      = flag.Bool("viz", false, "render placement + stage diagrams")
		jsonOut      = flag.String("json", "", "export the schedule as JSON to this file ('-' for stdout)")
	)
	flag.Parse()

	if *list {
		for _, b := range bench.Table2Suite() {
			s := b.Circ.ComputeStats()
			fmt.Printf("%-20s %-8s %3d qubits  %5d 2Q  %5d 1Q\n",
				b.Name, b.Type, s.Qubits, s.Num2Q, s.Num1Q)
		}
		return
	}
	if *listBackends {
		for _, b := range compiler.List() {
			caps := b.Capabilities()
			kinds := ""
			if caps.FPQA {
				kinds += " fpqa"
			}
			if caps.Coupling {
				kinds += " coupling"
			}
			if caps.Zoned {
				kinds += " zoned"
			}
			fmt.Printf("%-10s%-10s %s\n", b.Name(), kinds, caps.Description)
		}
		return
	}

	backend, ok := compiler.Lookup(*backendName)
	if !ok {
		fmt.Fprintf(os.Stderr, "atomique: unknown backend %q (registered: %v)\n",
			*backendName, compiler.Names())
		os.Exit(1)
	}
	caps := backend.Capabilities()

	var circ *bench.Benchmark
	if *qasmIn != "" {
		f, err := os.Open(*qasmIn)
		if err != nil {
			fmt.Fprintf(os.Stderr, "atomique: %v\n", err)
			os.Exit(1)
		}
		parsed, err := qasm.Parse(f)
		f.Close()
		if err != nil {
			fmt.Fprintf(os.Stderr, "atomique: %v\n", err)
			os.Exit(1)
		}
		circ = &bench.Benchmark{Name: *qasmIn, Type: "QASM", Circ: parsed}
	} else {
		b, ok := bench.ByName(*name)
		if !ok {
			fmt.Fprintf(os.Stderr, "atomique: unknown benchmark %q (try -list)\n", *name)
			os.Exit(1)
		}
		circ = &b
	}

	if *emit != "" {
		out := os.Stdout
		if *emit != "-" {
			f, err := os.Create(*emit)
			if err != nil {
				fmt.Fprintf(os.Stderr, "atomique: %v\n", err)
				os.Exit(1)
			}
			defer f.Close()
			out = f
		}
		if err := qasm.Write(out, circ.Circ); err != nil {
			fmt.Fprintf(os.Stderr, "atomique: %v\n", err)
			os.Exit(1)
		}
		return
	}

	// Zone flags start from the zoned backend's default machine for this
	// circuit; compiler.Resolve holds every device and option rule, the ones
	// the compile service applies to its requests.
	var zones *compiler.ZonedSpec
	if *zStorage != 0 || *zSites != 0 || *zGap != 0 {
		z := hardware.ZonesFor(circ.Circ.N)
		if *zStorage != 0 {
			z.StorageRows, z.StorageCols = *zStorage, *zStorage
		}
		if *zSites != 0 {
			z.EntangleSites = *zSites
		}
		if *zGap != 0 {
			z.ZoneGap = *zGap * 1e-6
		}
		zones = &compiler.ZonedSpec{Geometry: z}
	}
	noisyShots := *shots
	if noisyShots == 0 && *noisy {
		noisyShots = 2000
	}
	if noisyShots == 0 && *sample {
		noisyShots = 4096
	}
	tgt, opts, err := compiler.Resolve(backend, compiler.Order{
		Options: compiler.Options{Seed: *seed, SerialRouter: *serial, DenseMapper: *dense,
			Exact: *exact, BudgetSeconds: *budget,
			NoisyShots: noisyShots, NoiseSeed: *noiseSeed, NoiseScale: *noiseScale,
			SampleBits: *sample, ShotOffset: *shotOffset},
		Relax: *relax, SLM: *slm, AODs: *aods, AODSize: *aodSize, Family: *family, Zones: zones,
	}, circ.Circ, nil)
	if err != nil {
		fmt.Fprintf(os.Stderr, "atomique: %v\n", err)
		os.Exit(1)
	}

	// -trace threads a span through the same instrumentation the compile
	// service uses: the pipeline runner and trajectory engine attach their
	// spans to whatever the context carries.
	ctx := context.Background()
	var tr *obs.Trace
	if *traceFlag {
		tr = obs.NewTrace("", "compile")
		tr.Root.SetAttr("backend", backend.Name())
		tr.Root.SetAttr("benchmark", circ.Name)
		ctx = obs.ContextWithSpan(ctx, tr.Root)
	}
	res, err := backend.Compile(ctx, tgt, circ.Circ, opts)
	if err != nil {
		fmt.Fprintf(os.Stderr, "atomique: %v\n", err)
		os.Exit(1)
	}
	if err := compiler.AttachNoise(ctx, tgt, res, opts); err != nil {
		fmt.Fprintf(os.Stderr, "atomique: %v\n", err)
		os.Exit(1)
	}
	if tr != nil {
		tr.Root.End()
	}
	m := res.Metrics
	coreRes, hasSchedule := res.Artifact.(*core.Result)
	// The FPQA machine the compile ran on: the atomique backend uses cfg
	// even for the auto target, and -viz and -json draw it. Other target
	// kinds have none and print none.
	cfg, _ := tgt.Hardware(circ.Circ.N)

	fmt.Printf("backend          %s\n", res.Backend)
	fmt.Printf("benchmark        %s (%d qubits, %d 2Q + %d 1Q gates)\n",
		circ.Name, circ.Circ.N, circ.Circ.Num2Q(), circ.Circ.Num1Q())
	switch {
	case caps.Zoned:
		// Resolve gives a zoned backend an auto or zoned target, both of
		// which ZoneSetup materialises.
		z, _, _ := tgt.ZoneSetup(circ.Circ.N)
		fmt.Printf("machine          %dx%d storage + %d gate sites (zone gap %.0f um)\n",
			z.StorageRows, z.StorageCols, z.EntangleSites, z.ZoneGap*1e6)
	case caps.FPQA && (tgt.Kind == compiler.KindFPQA || hasSchedule):
		fmt.Printf("machine          %dx%d SLM + %d x %dx%d AOD\n",
			cfg.SLM.Rows, cfg.SLM.Cols, len(cfg.AODs), cfg.AODs[0].Rows, cfg.AODs[0].Cols)
	case caps.FPQA:
		fmt.Printf("machine          auto (%s default)\n", res.Backend)
	default:
		fmt.Printf("device           %s (%s)\n", m.Arch, tgt)
	}
	if res.TimedOut {
		fmt.Printf("TIMED OUT after  %v\n", m.CompileTime)
		return
	}
	fmt.Printf("2Q executed      %d (swaps inserted: %d, +%d CNOT)\n",
		m.N2Q, m.SwapCount, m.AddedCNOTs)
	if hasSchedule {
		fmt.Printf("depth (stages)   %d   max parallel gates: %d\n",
			m.Depth2Q, coreRes.Schedule.MaxParallelism())
		fmt.Printf("movement         %.3f mm total, %d cooling events, %d overlap rejections\n",
			m.TotalMoveDist*1e3, m.CoolingEvents, m.Overlaps)
	} else {
		fmt.Printf("depth (2Q)       %d\n", m.Depth2Q)
	}
	fmt.Printf("execution time   %.4f s\n", m.ExecutionTime)
	fmt.Printf("compile time     %v\n", m.CompileTime)
	if len(m.Passes) > 0 {
		fmt.Printf("pipeline        ")
		for _, p := range m.Passes {
			fmt.Printf(" %s %.3fms", p.Name, p.Seconds*1e3)
		}
		fmt.Println()
	}
	if len(res.Extra) > 0 {
		keys := make([]string, 0, len(res.Extra))
		for k := range res.Extra {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			fmt.Printf("%-16s %g\n", k, res.Extra[k])
		}
	}
	if m.FidelityTotal() > 0 {
		fmt.Printf("fidelity         %.4f\n", m.FidelityTotal())
		labels := fidelity.Labels()
		for i, v := range m.Fidelity.NegLog() {
			fmt.Printf("  -log10 %-18s %.4g\n", labels[i], v)
		}
	}
	if sr := res.Sample; sr != nil {
		fmt.Printf("sampled          shots [%d, %d) on engine=%s: %d distinct outcomes, %d error shots, %d atoms lost\n",
			sr.Offset, sr.Offset+int64(sr.Shots), sr.Engine, sr.Distinct, sr.ErrorShots, sr.LostShots)
		// Histogram, most frequent first, capped so wide registers stay
		// readable; ties broken by bitstring for a stable listing.
		type kv struct {
			bits  string
			count int64
		}
		hist := make([]kv, 0, len(sr.Counts))
		for b, c := range sr.Counts {
			hist = append(hist, kv{b, c})
		}
		sort.Slice(hist, func(i, j int) bool {
			if hist[i].count != hist[j].count {
				return hist[i].count > hist[j].count
			}
			return hist[i].bits < hist[j].bits
		})
		const maxRows = 16
		shown := hist
		if len(shown) > maxRows {
			shown = shown[:maxRows]
		}
		for _, h := range shown {
			fmt.Printf("  %s  %6d  %.4f\n", h.bits, h.count, float64(h.count)/float64(sr.Shots))
		}
		if rest := len(hist) - len(shown); rest > 0 {
			fmt.Printf("  (+%d more outcomes)\n", rest)
		}
	}
	if est := res.Noise; est != nil {
		fmt.Printf("noisy sim        %d shots: fidelity %.4f ± %.4f (95%% CI), survival %.4f, analytic %.4f\n",
			est.Shots, est.Fidelity, 1.96*est.StdErr, est.Survival, est.Analytic)
		fmt.Printf("  %d shots with errors, %d atoms lost\n", est.ErrorShots, est.LostShots)
		for _, c := range est.Channels {
			fmt.Printf("  channel %-14s p=%.3g x%-6d %d events\n", c.Label, c.Prob, c.Trials, c.Events)
		}
	}

	if tr != nil {
		fmt.Printf("\ntrace %s\n", tr.ID)
		tr.Root.Snapshot().WriteTree(os.Stdout)
	}

	if (*schedule || *vizFlag || *jsonOut != "") && !hasSchedule {
		fmt.Fprintf(os.Stderr, "atomique: backend %q does not produce a movement schedule (-schedule/-viz/-json need the atomique backend)\n", res.Backend)
		os.Exit(1)
	}

	if *schedule {
		fmt.Println()
		for i, st := range coreRes.Schedule.Stages {
			fmt.Printf("stage %4d: %d 1Q, %d moves, %d 2Q gates\n",
				i, len(st.OneQ), len(st.Moves), len(st.Gates))
			for _, g := range st.Gates {
				fmt.Printf("  %s %s <-> %s\n", g.Op,
					coreRes.SiteOf[g.SlotA], coreRes.SiteOf[g.SlotB])
			}
		}
	}

	if *vizFlag {
		fmt.Println()
		viz.Summary(os.Stdout, cfg, coreRes)
	}

	if *jsonOut != "" {
		out := os.Stdout
		if *jsonOut != "-" {
			f, err := os.Create(*jsonOut)
			if err != nil {
				fmt.Fprintf(os.Stderr, "atomique: %v\n", err)
				os.Exit(1)
			}
			defer f.Close()
			out = f
		}
		if err := core.ExportJSON(out, cfg, coreRes); err != nil {
			fmt.Fprintf(os.Stderr, "atomique: %v\n", err)
			os.Exit(1)
		}
	}
}
