package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"testing"

	"atomique/internal/compiler"
	"atomique/internal/noise"
	"atomique/internal/report"
)

// TestNoiseOptionsInCacheKey is the no-aliasing contract for the noisy-shot
// workload: noisy and ideal compilations of the same circuit must occupy
// distinct cache entries, and so must runs differing only in shots, noise
// seed, or a channel override — while identical noisy requests coalesce
// into one cached entry.
func TestNoiseOptionsInCacheKey(t *testing.T) {
	e := New(Config{Workers: 2})
	defer e.Close()
	ctx := context.Background()

	compile := func(req Request) *Job {
		t.Helper()
		j, err := e.Compile(ctx, req)
		if err != nil {
			t.Fatal(err)
		}
		if j.State != StateDone {
			t.Fatalf("job state %s: %s", j.State, j.Error)
		}
		return j
	}

	ideal := compile(Request{QASM: ghzQASM, Seed: 7})
	var idealEnv report.Envelope
	if err := json.Unmarshal(ideal.Result, &idealEnv); err != nil {
		t.Fatal(err)
	}
	if idealEnv.Noise != nil {
		t.Fatal("ideal compilation carries a noise estimate")
	}

	noisy := compile(Request{QASM: ghzQASM, Seed: 7, Shots: 500})
	if noisy.Cached {
		t.Fatal("noisy request aliased the ideal cache entry")
	}
	var noisyEnv report.Envelope
	if err := json.Unmarshal(noisy.Result, &noisyEnv); err != nil {
		t.Fatal(err)
	}
	if noisyEnv.Noise == nil || noisyEnv.Noise.Shots != 500 {
		t.Fatalf("noisy envelope estimate = %+v, want 500 shots", noisyEnv.Noise)
	}

	// Identical noisy request: one cache entry, byte-identical result.
	again := compile(Request{QASM: ghzQASM, Seed: 7, Shots: 500})
	if !again.Cached {
		t.Error("identical noisy request missed the cache")
	}
	if !bytes.Equal(stripTrace(t, noisy.Result), stripTrace(t, again.Result)) {
		t.Error("cached noisy result differs from the original")
	}

	// Every noise knob must split the key.
	for name, req := range map[string]Request{
		"shots":      {QASM: ghzQASM, Seed: 7, Shots: 501},
		"noiseSeed":  {QASM: ghzQASM, Seed: 7, Shots: 500, NoiseSeed: 1},
		"noiseScale": {QASM: ghzQASM, Seed: 7, Shots: 500, NoiseScale: 2},
		"noise2Q":    {QASM: ghzQASM, Seed: 7, Shots: 500, Noise2Q: 0.1},
		"engine":     {QASM: ghzQASM, Seed: 7, Shots: 500, Engine: noise.EngineDense},
	} {
		if j := compile(req); j.Cached {
			t.Errorf("request differing only in %s aliased the cached noisy entry", name)
		}
	}

	// The ideal entry is still intact and distinct.
	if j := compile(Request{QASM: ghzQASM, Seed: 7}); !j.Cached || !bytes.Equal(stripTrace(t, j.Result), stripTrace(t, ideal.Result)) {
		t.Error("ideal entry lost or corrupted by noisy runs")
	}
}

// TestNoiseRequestValidation covers resolve-time rejection of malformed
// noise options.
func TestNoiseRequestValidation(t *testing.T) {
	e := New(Config{Workers: 1})
	defer e.Close()
	for name, req := range map[string]Request{
		"negative-shots":    {QASM: ghzQASM, Shots: -1},
		"huge-shots":        {QASM: ghzQASM, Shots: compiler.MaxNoisyShots + 1},
		"orphan-noise-seed": {QASM: ghzQASM, NoiseSeed: 3},
		"orphan-scale":      {QASM: ghzQASM, NoiseScale: 2},
		"negative-scale":    {QASM: ghzQASM, Shots: 10, NoiseScale: -1},
		"out-of-range-prob": {QASM: ghzQASM, Shots: 10, Noise2Q: 1.5},
		"negative-prob":     {QASM: ghzQASM, Shots: 10, Noise1Q: -0.1},
		"too-wide-circuit":  {Benchmark: "QV-32", Shots: 10},
		"too-wide-ancillas": {Benchmark: "QSim-rand-20", Backend: "qpilot", Shots: 10},
		"bogus-engine":      {QASM: ghzQASM, Shots: 10, Engine: "statevector"},
		"orphan-engine":     {QASM: ghzQASM, Engine: noise.EngineStab},
		"stab-non-clifford": {Benchmark: "QSim-rand-20", Shots: 10, Engine: noise.EngineStab},
		"dense-too-wide":    {Benchmark: "QV-32", Shots: 10, Engine: noise.EngineDense},
	} {
		if _, err := e.Compile(context.Background(), req); err == nil {
			t.Errorf("%s: accepted", name)
		} else if _, ok := err.(*RequestError); !ok {
			t.Errorf("%s: err = %v, want *RequestError", name, err)
		}
	}
}

// wideGHZQASM builds an n-qubit GHZ chain in OpenQASM — Clifford, so the
// service must route its trajectory shots to the stabilizer engine at widths
// the dense engine rejects outright.
func wideGHZQASM(n int) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[%d];\nh q[0];\n", n)
	for i := 1; i < n; i++ {
		fmt.Fprintf(&sb, "cx q[%d],q[%d];\n", i-1, i)
	}
	return sb.String()
}

// TestSimulateEngineDispatch pins the engine plumbing end to end through the
// service: the chosen engine is surfaced in the envelope's noise estimate,
// an explicit engine=dense is honoured, and a 96-qubit Clifford circuit —
// four times past the dense wall — simulates successfully via the stabilizer
// engine on every registered backend's default target.
func TestSimulateEngineDispatch(t *testing.T) {
	e := New(Config{Workers: 2})
	defer e.Close()
	ctx := context.Background()

	estimate := func(req Request) *noise.Estimate {
		t.Helper()
		j, err := e.Compile(ctx, req)
		if err != nil {
			t.Fatal(err)
		}
		if j.State != StateDone {
			t.Fatalf("job state %s: %s", j.State, j.Error)
		}
		var env report.Envelope
		if err := json.Unmarshal(j.Result, &env); err != nil {
			t.Fatal(err)
		}
		if env.Noise == nil {
			t.Fatal("no noise estimate in envelope")
		}
		return env.Noise
	}

	// Auto on a small Clifford circuit: stabilizer engine, surfaced.
	if est := estimate(Request{QASM: ghzQASM, Seed: 7, Shots: 200}); est.Engine != noise.EngineStab {
		t.Errorf("auto engine on Clifford circuit = %q, want %q", est.Engine, noise.EngineStab)
	}
	// Pinning dense is honoured at the same width.
	if est := estimate(Request{QASM: ghzQASM, Seed: 7, Shots: 200, Engine: noise.EngineDense}); est.Engine != noise.EngineDense {
		t.Errorf("pinned dense engine = %q, want %q", est.Engine, noise.EngineDense)
	}

	// 96 qubits: beyond dense for every backend, fine for the tableau.
	wide := wideGHZQASM(96)
	for _, name := range compiler.Names() {
		est := estimate(Request{QASM: wide, Backend: name, Seed: 7, Shots: 300})
		if est.Engine != noise.EngineStab {
			t.Errorf("backend %s: wide Clifford engine = %q, want %q", name, est.Engine, noise.EngineStab)
		}
		if est.Fidelity <= 0 || est.Fidelity > 1 {
			t.Errorf("backend %s: implausible wide fidelity %v", name, est.Fidelity)
		}
	}
}

// TestHTTPSimulateEndpoint exercises POST /v1/simulate: shots default on,
// the envelope carries the empirical estimate, and malformed noise options
// are client errors.
func TestHTTPSimulateEndpoint(t *testing.T) {
	_, srv := newTestServer(t, Config{Workers: 2})

	resp, body := postJSON(t, srv.URL+"/v1/simulate", Request{QASM: ghzQASM, Seed: 3})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("simulate status %d: %s", resp.StatusCode, body)
	}
	var j Job
	if err := json.Unmarshal(body, &j); err != nil {
		t.Fatal(err)
	}
	var env report.Envelope
	if err := json.Unmarshal(j.Result, &env); err != nil {
		t.Fatal(err)
	}
	est := env.Noise
	if est == nil {
		t.Fatal("simulate result carries no noise estimate")
	}
	if est.Shots != compiler.DefaultSimulateShots {
		t.Errorf("shots = %d, want the %d default", est.Shots, compiler.DefaultSimulateShots)
	}
	if est.Analytic <= 0 || est.Survival <= 0 || est.Fidelity < est.Survival {
		t.Errorf("implausible estimate %+v", est)
	}
	if len(est.Channels) == 0 {
		t.Error("estimate reports no channels")
	}

	// Explicit shots override the default.
	resp, body = postJSON(t, srv.URL+"/v1/simulate", Request{QASM: ghzQASM, Seed: 3, Shots: 64})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("simulate status %d: %s", resp.StatusCode, body)
	}
	if err := json.Unmarshal(body, &j); err != nil {
		t.Fatal(err)
	}
	env = report.Envelope{}
	if err := json.Unmarshal(j.Result, &env); err != nil {
		t.Fatal(err)
	}
	if env.Noise == nil || env.Noise.Shots != 64 {
		t.Fatalf("estimate = %+v, want 64 shots", env.Noise)
	}

	resp, body = postJSON(t, srv.URL+"/v1/simulate", Request{QASM: ghzQASM, Shots: -5})
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("negative shots: status %d (%s), want 400", resp.StatusCode, body)
	}
	if !strings.Contains(string(body), "shots") {
		t.Errorf("error body %q does not name the bad field", body)
	}

	// Simulate honours the compile endpoint's async contract.
	resp, body = postJSON(t, srv.URL+"/v1/simulate?async=1", Request{QASM: ghzQASM, Seed: 3, Shots: 64})
	if resp.StatusCode != http.StatusAccepted {
		t.Errorf("async simulate: status %d (%s), want 202", resp.StatusCode, body)
	}
}

// TestSimulateDeterministicEnvelope guards the cache premise for noisy
// results end to end: two cold runs of the same noisy request must encode
// byte-identical estimates (canonical form zeroes only wall-clock fields).
func TestSimulateDeterministicEnvelope(t *testing.T) {
	run := func() *noise.Estimate {
		e := New(Config{Workers: 3})
		defer e.Close()
		j, err := e.Compile(context.Background(), Request{QASM: ghzQASM, Seed: 5, Shots: 2000, NoiseSeed: 9})
		if err != nil {
			t.Fatal(err)
		}
		var env report.Envelope
		if err := json.Unmarshal(j.Result, &env); err != nil {
			t.Fatal(err)
		}
		return env.Noise
	}
	a, b := run(), run()
	aj, _ := json.Marshal(a)
	bj, _ := json.Marshal(b)
	if !bytes.Equal(aj, bj) {
		t.Errorf("noisy estimates diverge across engines:\n%s\nvs\n%s", aj, bj)
	}
}
