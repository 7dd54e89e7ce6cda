// Package exp contains one driver per table and figure of the paper's
// evaluation (Sec. V). Each driver regenerates the corresponding artifact as
// plain-text tables from fixed seeds, compiling through the backend
// registry; where the paper reports a value, a table note quotes it. Run
// them via cmd/experiments or the bench harness in bench_test.go.
package exp

import (
	"context"
	"fmt"
	"sort"

	"atomique/internal/circuit"
	"atomique/internal/compiler"
	"atomique/internal/hardware"
	"atomique/internal/metrics"
	"atomique/internal/report"

	_ "atomique/internal/compiler/backends" // register the built-in backends
)

// Experiment is a runnable table/figure reproduction.
type Experiment struct {
	ID    string
	Title string
	Run   func() []*report.Table
}

// All returns every experiment in paper order.
func All() []Experiment {
	return []Experiment{
		{"tab1", "Table I: hardware parameters", Table1},
		{"tab2", "Table II: benchmark characteristics", Table2},
		{"tab3", "Table III: multi-qubit pulse counts vs Geyser", Table3},
		{"fig12", "Fig 12: atom movement profile", Fig12},
		{"fig13", "Fig 13: depth / 2Q gates / fidelity vs architectures", Fig13},
		{"fig14", "Fig 14: comparison with solver-based compilers", Fig14},
		{"fig15", "Fig 15: generic-circuit characteristic sweep", Fig15},
		{"fig16", "Fig 16: QAOA characteristic sweep", Fig16},
		{"fig17", "Fig 17: QSim characteristic sweep", Fig17},
		{"fig18", "Fig 18: hardware-parameter sensitivity", Fig18},
		{"fig19", "Fig 19: comparison with Q-Pilot", Fig19},
		{"fig20", "Fig 20: array-topology sensitivity", Fig20},
		{"fig21", "Fig 21: compiler-technique breakdown", Fig21},
		{"fig22", "Fig 22: constraint relaxation", Fig22},
		{"fig23", "Fig 23: variable AOD sizes", Fig23},
		{"fig24", "Fig 24: overlap under extreme occupancy", Fig24},
		{"fig25", "Fig 25: additional CNOTs from SWAP insertion", Fig25},
		{"ablation", "Ablations: gamma decay, SABRE lookahead, reverse passes", Ablations},
		{"scaling", "Scaling: compile time vs circuit size", Scaling},
		{"zoned", "Zoned vs flat FPQA comparison (ZAP-style scenario)", ZonedVsFlat},
		{"noise", "Noise-model validation: empirical trajectory vs analytic fidelity", NoiseValidation},
		{"qec", "QEC: surface-code cycles on the zoned backend via the stabilizer engine", SurfaceCode},
		{"sampling", "Sampling: measurement histograms across trajectory engines, sharded + merged", Sampling},
	}
}

// ByID returns the experiment with the given id.
func ByID(id string) (Experiment, bool) {
	for _, e := range All() {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

// mustBackend resolves a registry backend; experiment inputs are fixed, so a
// missing backend is a programming error worth a panic.
func mustBackend(name string) compiler.Backend {
	b, ok := compiler.Lookup(name)
	if !ok {
		panic(fmt.Sprintf("exp: backend %q not registered", name))
	}
	return b
}

// mustCompile runs one registry backend, panicking on configuration errors
// (experiment inputs are fixed and known-valid).
func mustCompile(name string, tgt compiler.Target, c *circuit.Circuit, opts compiler.Options) *compiler.Result {
	res, err := mustBackend(name).Compile(context.Background(), tgt, c, opts)
	if err != nil {
		panic(fmt.Sprintf("exp: %s compile failed: %v", name, err))
	}
	return res
}

// mustSabre compiles on a fixed baseline topology via the "sabre" backend.
func mustSabre(tgt compiler.Target, c *circuit.Circuit, seed int64) metrics.Compiled {
	return mustCompile("sabre", tgt, c, compiler.Options{Seed: seed}).Metrics
}

// archNames lists the Fig 13 baseline order (columns of the comparison
// tables).
var archNames = []string{
	"Superconducting", "Baker-Long-Range", "FAA-Rectangular", "FAA-Triangular", "Atomique",
}

// baselineFamilies maps each fixed-topology column to the sabre backend's
// coupling family.
var baselineFamilies = map[string]string{
	"Superconducting":  compiler.FamilySuperconducting,
	"Baker-Long-Range": compiler.FamilyLongRange,
	"FAA-Rectangular":  compiler.FamilyRectangular,
	"FAA-Triangular":   compiler.FamilyTriangular,
}

// compileAll runs the comparison set on a benchmark — every fixed-topology
// family through the "sabre" registry backend plus Atomique — and returns
// metrics keyed by architecture name.
func compileAll(c *circuit.Circuit, seed int64) map[string]metrics.Compiled {
	out := make(map[string]metrics.Compiled, len(archNames))
	for _, an := range archNames {
		family, ok := baselineFamilies[an]
		if !ok {
			continue // Atomique handled below
		}
		out[an] = mustSabre(compiler.Coupling(family, 0), c, seed)
	}
	out["Atomique"] = mustCompile("atomique", compiler.FPQA(configFor(c.N)), c, compiler.Options{Seed: seed}).Metrics
	return out
}

// configFor returns the paper's default machine, grown just enough when a
// benchmark exceeds the default 300-site capacity.
func configFor(n int) hardware.Config {
	return compiler.DefaultFPQAConfig(n)
}

// geoMeanColumn extracts a metric across rows and appends its geometric mean.
func geoMeanColumn(vals []float64) float64 { return metrics.GeoMean(vals) }

// sortedKeys returns map keys in sorted order for deterministic output.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
