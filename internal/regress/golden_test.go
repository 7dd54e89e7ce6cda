// Package regress is the compiler's golden-snapshot regression harness: it
// compiles a fixed corpus — every OpenQASM file under internal/qasm/testdata
// plus three generated Table II-scale benchmarks — through the registered
// compiler backends and diffs the canonical result envelope (report.Envelope
// with wall times zeroed) against checked-in goldens. The full corpus runs
// on the default "atomique" backend; the QASM files additionally run on the
// "qpilot" and "zoned" backends, and the generated benchmarks on "solverref"
// and on the fixed-topology "sabre" and "geyser" baselines over every Fig 13
// coupling family, so non-core output and baseline routing are
// snapshot-protected too. Any refactor that changes compile output, however
// subtly, shows up as a reviewable JSON diff. Refresh the goldens after an intentional change with
//
//	go test ./internal/regress -run TestGolden -update
package regress

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"atomique/internal/bench"
	"atomique/internal/circuit"
	"atomique/internal/compiler"
	"atomique/internal/qasm"
	"atomique/internal/report"

	_ "atomique/internal/compiler/backends" // register the built-in backends
)

var update = flag.Bool("update", false, "rewrite golden files with current compile output")

// goldenSeed fixes every corpus compilation; goldens are per-seed artifacts.
const goldenSeed = 7

// corpusEntry is one named circuit of the regression corpus.
type corpusEntry struct {
	name string
	circ *circuit.Circuit
	qasm bool // parsed from the qasm testdata (also snapshotted on qpilot)
}

// corpus returns the regression inputs: the qasm testdata files (parsed
// fresh each run, so parser regressions surface here too) and three
// generated benchmarks covering the Table II circuit families (QAOA, QV,
// BV) at sizes that exercise SWAP insertion, batching, and cooling.
func corpus(t *testing.T) []corpusEntry {
	t.Helper()
	var entries []corpusEntry
	files, err := filepath.Glob(filepath.Join("..", "qasm", "testdata", "*.qasm"))
	if err != nil {
		t.Fatal(err)
	}
	if len(files) == 0 {
		t.Fatal("no qasm testdata found")
	}
	sort.Strings(files)
	for _, f := range files {
		src, err := os.Open(f)
		if err != nil {
			t.Fatal(err)
		}
		c, err := qasm.Parse(src)
		src.Close()
		if err != nil {
			t.Fatalf("parse %s: %v", f, err)
		}
		name := strings.TrimSuffix(filepath.Base(f), ".qasm")
		entries = append(entries, corpusEntry{name: "qasm-" + name, circ: c, qasm: true})
	}
	entries = append(entries,
		corpusEntry{name: "gen-qaoa-regu5-40", circ: bench.QAOARegular(40, 5, 15)},
		corpusEntry{name: "gen-qv-32", circ: bench.QV(32, 32, 3)},
		corpusEntry{name: "gen-bv-50", circ: bench.BV(50, 22, 4)},
	)
	return entries
}

// compileCanonical runs one corpus circuit through a registered backend on
// its auto target (the paper-default machine) and renders its canonical
// envelope as indented JSON.
func compileCanonical(t *testing.T, backend string, c *circuit.Circuit) []byte {
	t.Helper()
	return compileCanonicalOn(t, backend, compiler.Target{}, c)
}

// compileCanonicalOn is compileCanonical on an explicit target.
func compileCanonicalOn(t *testing.T, backend string, tgt compiler.Target, c *circuit.Circuit) []byte {
	t.Helper()
	b, ok := compiler.Lookup(backend)
	if !ok {
		t.Fatalf("backend %q not registered", backend)
	}
	res, err := b.Compile(context.Background(), tgt, c, compiler.Options{Seed: goldenSeed})
	if err != nil {
		t.Fatal(err)
	}
	env := report.NewEnvelope(c.Fingerprint(), res.Metrics)
	env.Backend = res.Backend
	env.Extra = res.Extra
	env.TimedOut = res.TimedOut
	js, err := json.MarshalIndent(env.Canonical(), "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	return append(js, '\n')
}

// checkGolden diffs (or, with -update, rewrites) one golden file.
func checkGolden(t *testing.T, path string, got []byte) {
	t.Helper()
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden (run with -update to create): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("compile output diverged from golden %s.\ngot:\n%s\nwant:\n%s\n(if intentional, refresh with -update)",
			path, got, want)
	}
}

func TestGolden(t *testing.T) {
	for _, e := range corpus(t) {
		t.Run(e.name, func(t *testing.T) {
			got := compileCanonical(t, "atomique", e.circ)
			checkGolden(t, filepath.Join("testdata", e.name+".golden.json"), got)
		})
	}
}

// TestGoldenQpilot snapshots a non-core backend on the QASM corpus, so
// baseline refactors (the flying-ancilla accounting, the shared fidelity
// model) are regression-protected like the main pipeline.
func TestGoldenQpilot(t *testing.T) {
	for _, e := range corpus(t) {
		if !e.qasm {
			continue
		}
		t.Run(e.name, func(t *testing.T) {
			got := compileCanonical(t, "qpilot", e.circ)
			checkGolden(t, filepath.Join("testdata", "qpilot-"+e.name+".golden.json"), got)
		})
	}
}

// TestGoldenZoned snapshots the zoned backend on the QASM corpus: the
// shuttle-round schedule, transfer accounting, and zoned fidelity model are
// regression-protected alongside the flat pipeline. Refresh with -update
// after an intentional model change.
func TestGoldenZoned(t *testing.T) {
	for _, e := range corpus(t) {
		if !e.qasm {
			continue
		}
		t.Run(e.name, func(t *testing.T) {
			got := compileCanonical(t, "zoned", e.circ)
			checkGolden(t, filepath.Join("testdata", "zoned-"+e.name+".golden.json"), got)
		})
	}
}

// TestGoldenBaselines snapshots the fixed-topology baselines, SABRE and
// Geyser, on every Fig 13 coupling family, and the solver reference on its
// auto target, over the generated corpus entries: SABRE's swap selection is
// regression-protected on the sparse lattices as well as on Atomique's
// multipartite graph.
func TestGoldenBaselines(t *testing.T) {
	for _, e := range corpus(t) {
		if e.qasm {
			continue
		}
		for _, backend := range []string{"sabre", "geyser"} {
			for _, f := range compiler.Families() {
				name := backend + "-" + f + "-" + e.name
				t.Run(name, func(t *testing.T) {
					got := compileCanonicalOn(t, backend, compiler.Coupling(f, 0), e.circ)
					checkGolden(t, filepath.Join("testdata", name+".golden.json"), got)
				})
			}
		}
		t.Run("solverref-"+e.name, func(t *testing.T) {
			got := compileCanonical(t, "solverref", e.circ)
			checkGolden(t, filepath.Join("testdata", "solverref-"+e.name+".golden.json"), got)
		})
	}
}

// TestGoldenStableAcrossRuns guards the premise of the golden corpus: two
// in-process compiles of the same corpus entry yield identical canonical
// bytes (no map-ordering or wall-clock leakage).
func TestGoldenStableAcrossRuns(t *testing.T) {
	entries := corpus(t)
	e := entries[0]
	for _, backend := range []string{"atomique", "qpilot"} {
		a := compileCanonical(t, backend, e.circ)
		b := compileCanonical(t, backend, e.circ)
		if !bytes.Equal(a, b) {
			t.Fatalf("%s: canonical envelope unstable across runs:\n%s\nvs\n%s", backend, a, b)
		}
	}
}
