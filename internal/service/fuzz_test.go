package service

import (
	"encoding/json"
	"errors"
	"strings"
	"testing"

	"atomique/internal/compiler"
	"atomique/internal/hardware"
	"atomique/internal/noise"
)

// FuzzRequest asserts resolve's contract on arbitrary request bodies: every
// body that decodes the way the HTTP layer decodes it (unknown fields
// rejected) resolves to a task or a *RequestError — a 400 — and never
// panics. Resolve allocates nothing proportional to a request's machine
// override, so an oversized one fails fast here too.
func FuzzRequest(f *testing.F) {
	zones := compiler.ZonedSpec{Geometry: hardware.ZonesFor(8)}
	for _, req := range []Request{
		{},
		{Benchmark: "H2-4", Seed: 1},
		{Benchmark: "h2-4", Seed: 1, Priority: PriorityBatch},
		{Benchmark: "H2-4", QASM: "qreg q[2];"},
		{Benchmark: "no-such-bench"},
		{Benchmark: "H2-4", Relax: "1,9"},
		{Benchmark: "H2-4", Priority: "urgent"},
		{Benchmark: "QAOA-regu6-100", SLM: 4, AODs: 2, AODSize: 4},
		{Benchmark: "H2-4", AODs: -1},
		{Benchmark: "H2-4", Backend: "solverref", Exact: true, Budget: 1.5},
		{Benchmark: "H2-4", Budget: -1},
		{Benchmark: "H2-4", Seed: 1, Backend: "qpilot"},
		{QASM: "OPENQASM 2.0;\nqreg q[2];\nfrobnicate q[0];"},
		{QASM: ghzQASM, Backend: "sabre", Family: "triangular"},
		{QASM: ghzQASM, Backend: "sabre", Family: "hexagonal"},
		{QASM: ghzQASM, Backend: "sabre", SLM: 8},
		{QASM: ghzQASM, Backend: "atomique", Family: "triangular"},
		{QASM: ghzQASM, Backend: "zoned", Zones: &zones},
		{QASM: ghzQASM, Backend: "zap"},
		{QASM: ghzQASM, Seed: 7, Shots: 300, Engine: noise.EngineStab},
		{QASM: ghzQASM, Shots: 10, Engine: "statevector"},
		{QASM: ghzQASM, Shots: 10, Noise2Q: 1.5, NoiseScale: -1},
		{QASM: ghzQASM, NoiseSeed: 3},
		{QASM: ghzQASM, NoiseSeed: 11, Shots: 500, ShotOffset: 400, Sample: true},
		{QASM: ghzQASM, NoiseSeed: 11, Shots: 500, ShotOffset: 400},
		{QASM: ghzQASM, Shots: compiler.MaxNoisyShots + 1},
		{Benchmark: "QV-32", Shots: 10},
		// Machine overrides past the hardware caps.
		{Benchmark: "H2-4", AODSize: 4000},
		{Benchmark: "H2-4", AODs: 16777216},
		{Benchmark: "H2-4", AODs: 100000},
		{Benchmark: "H2-4", SLM: 4000},
	} {
		js, err := json.Marshal(req)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(string(js))
	}
	for _, s := range []string{
		`{"benchmark":"H2-4","aods":9223372036854775807}`,
		`{"benchmark":"H2-4","backend":"zoned","zones":{"geometry":{"storageRows":4096,"storageCols":4096,"entangleSites":1,"zoneGap":1,"shuttleSpeed":1}}}`,
		`{"benchmark":"H2-4","sample":true,"shots":1,"shotOffset":-1}`,
		`{"benchmrk":"H2-4"}`,
		`{`,
		`null`,
	} {
		f.Add(s)
	}
	e := New(Config{Workers: 1})
	defer e.Close()
	f.Fuzz(func(t *testing.T, body string) {
		var req Request
		dec := json.NewDecoder(strings.NewReader(body))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&req); err != nil {
			return
		}
		var re *RequestError
		if _, err := e.resolve(req); err != nil && !errors.As(err, &re) {
			t.Fatalf("resolve(%s): err = %v (%T), want a task or *RequestError", body, err, err)
		}
	})
}
