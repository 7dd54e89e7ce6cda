package service

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"

	"atomique/internal/bench"
	"atomique/internal/circuit"
	"atomique/internal/compiler"
	"atomique/internal/qasm"
)

// Request is one compile order: either a named Table II benchmark or inline
// OpenQASM 2.0 source, plus the backend to compile with (default "atomique";
// see GET /v1/backends), compile options, and a device override. FPQA
// backends accept a machine override (any of SLM/AODs/AODSize set builds a
// custom machine; unset fields keep the engine's machine), fixed-topology
// backends a coupling family and zoned backends zones; compiler.Resolve holds
// the rules.
type Request struct {
	Benchmark string `json:"benchmark,omitempty"`
	QASM      string `json:"qasm,omitempty"`

	Backend string `json:"backend,omitempty"` // registered backend name

	// Priority is the scheduling class: "interactive" (default) or
	// "batch". Workers strictly prefer interactive jobs, and under load
	// the admission controller sheds batch traffic first. The batch
	// endpoint defaults to "batch".
	Priority string `json:"priority,omitempty"`

	Seed   int64   `json:"seed,omitempty"`
	Serial bool    `json:"serial,omitempty"` // ablation: serial router
	Dense  bool    `json:"dense,omitempty"`  // ablation: round-robin mapper
	Relax  string  `json:"relax,omitempty"`  // comma-separated constraint IDs (1,2,3)
	Exact  bool    `json:"exact,omitempty"`  // solver backends: exact (exponential) mode
	Budget float64 `json:"budget,omitempty"` // solver backends: compile budget in seconds (0 = backend default)

	// Shots enables Monte-Carlo trajectory noise estimation (0 = off): the
	// compiled program is replayed this many times under sampled noise and
	// the empirical fidelity rides in the result envelope's "noise" field.
	// POST /v1/simulate defaults it to DefaultSimulateShots. All noise
	// options are part of the content-addressed cache key, so noisy and
	// ideal results never alias.
	Shots int `json:"shots,omitempty"`
	// NoiseSeed seeds trajectory sampling, independently of Seed.
	NoiseSeed int64 `json:"noiseSeed,omitempty"`
	// Engine pins the trajectory simulation engine ("auto", "dense",
	// "stab"; empty = auto). Auto dispatches Clifford circuits to the
	// stabilizer engine — which lifts the dense width cap to the far wider
	// stabilizer cap (see noise.Dispatch) — and everything else to the dense
	// state-vector.
	Engine string `json:"engine,omitempty"`
	// Sample switches the trajectory run from fidelity estimation to
	// measurement sampling (the /v1/sample product): each shot's
	// computational-basis bitstring is recorded and the histogram rides in
	// the envelope's "sample" field instead of a fidelity estimate in
	// "noise". Needs shots > 0.
	Sample bool `json:"sample,omitempty"`
	// ShotOffset is the global index of the first sampled shot (sampling
	// only). Per-shot randomness derives from (noiseSeed, global index), so
	// disjoint shot ranges from separate requests tile into one histogram —
	// sharded, resumable sampling. Each range is its own cache entry.
	ShotOffset int64 `json:"shotOffset,omitempty"`
	// NoiseScale multiplies every noise-channel probability (0 = 1.0).
	NoiseScale float64 `json:"noiseScale,omitempty"`
	// Noise1Q / Noise2Q override the hardware-derived per-gate error
	// probabilities when positive.
	Noise1Q float64 `json:"noise1Q,omitempty"`
	Noise2Q float64 `json:"noise2Q,omitempty"`

	SLM     int    `json:"slm,omitempty"`     // SLM side length (FPQA backends)
	AODs    int    `json:"aods,omitempty"`    // number of AOD arrays (FPQA backends)
	AODSize int    `json:"aodSize,omitempty"` // AOD side length (FPQA backends)
	Family  string `json:"family,omitempty"`  // coupling family (fixed-topology backends)
	// Zones overrides the zone geometry (and optionally the physical
	// parameters) for zoned backends; unset selects the backend's default
	// machine grown to fit the circuit.
	Zones *compiler.ZonedSpec `json:"zones,omitempty"`
}

// RequestError marks a client-side request problem (unknown benchmark,
// malformed QASM, bad options); the HTTP layer maps it to 400 Bad Request.
type RequestError struct {
	Msg string
	// Line is the 1-based QASM source line for parse errors, 0 otherwise.
	Line int
}

func (e *RequestError) Error() string { return e.Msg }

// resolve turns a Request into a runnable task, reporting client errors as
// *RequestError.
func (e *Engine) resolve(req Request) (task, error) {
	var circ *circuit.Circuit
	var hash string
	label := req.Benchmark
	switch {
	case req.Benchmark != "" && req.QASM != "":
		return task{}, &RequestError{Msg: "request must set either benchmark or qasm, not both"}
	case req.Benchmark != "":
		b, ok := bench.ByName(req.Benchmark)
		if !ok {
			return task{}, &RequestError{Msg: fmt.Sprintf("unknown benchmark %q (see GET /v1/benchmarks)", req.Benchmark)}
		}
		circ = b.Circ
		label = b.Name
		hash = e.benchmarkFingerprint(b)
	case req.QASM != "":
		parsed, err := qasm.ParseString(req.QASM)
		if err != nil {
			re := &RequestError{Msg: err.Error()}
			var pe *qasm.ParseError
			if errors.As(err, &pe) {
				re.Line = pe.Line
			}
			return task{}, re
		}
		circ = parsed
		label = "qasm"
		hash = circ.Fingerprint()
	default:
		return task{}, &RequestError{Msg: "request must set benchmark or qasm"}
	}

	backendName := req.Backend
	if backendName == "" {
		backendName = DefaultBackend
	}
	be, ok := compiler.Lookup(backendName)
	if !ok {
		return task{}, &RequestError{Msg: fmt.Sprintf("unknown backend %q (see GET /v1/backends; registered: %v)",
			backendName, compiler.Names())}
	}
	prio, err := parsePriority(req.Priority)
	if err != nil {
		return task{}, err
	}
	tgt, opts, err := compiler.Resolve(be, compiler.Order{
		Options: compiler.Options{Seed: req.Seed, SerialRouter: req.Serial, DenseMapper: req.Dense,
			Exact: req.Exact, BudgetSeconds: req.Budget,
			NoisyShots: req.Shots, NoiseSeed: req.NoiseSeed, NoiseScale: req.NoiseScale,
			Noise1Q: req.Noise1Q, Noise2Q: req.Noise2Q, Engine: req.Engine,
			SampleBits: req.Sample, ShotOffset: req.ShotOffset},
		Relax: req.Relax, SLM: req.SLM, AODs: req.AODs, AODSize: req.AODSize,
		Family: req.Family, Zones: req.Zones,
	}, circ, &e.cfg.Hardware)
	if err != nil {
		return task{}, &RequestError{Msg: err.Error()}
	}
	return task{
		label:   label,
		hash:    hash,
		key:     cacheKey(be.Name(), hash, tgt, opts),
		class:   classOf(opts),
		prio:    prio,
		backend: be,
		target:  tgt,
		circ:    circ,
		opts:    opts,
	}, nil
}

// benchmarkFingerprint returns a named benchmark's circuit fingerprint,
// hashing the shared registry circuit on its first request only. Two racing
// first requests may both hash it; fingerprints are deterministic, so either
// store is right.
func (e *Engine) benchmarkFingerprint(b bench.Benchmark) string {
	e.benchMu.Lock()
	fp, ok := e.benchFP[b.Name]
	e.benchMu.Unlock()
	if ok {
		return fp
	}
	fp = b.Circ.Fingerprint()
	e.benchMu.Lock()
	e.benchFP[b.Name] = fp
	e.benchMu.Unlock()
	return fp
}

// cacheKey derives the content-addressed key: backend name and circuit
// fingerprint plus the canonical JSON of the target and compile options
// (which include the seed). Deterministic struct-field order makes the key
// stable; the backend name guarantees two backends never alias an entry.
func cacheKey(backend, fingerprint string, tgt compiler.Target, opts compiler.Options) string {
	h := sha256.New()
	io.WriteString(h, backend)
	io.WriteString(h, "\x00")
	io.WriteString(h, fingerprint)
	enc := json.NewEncoder(h)
	if err := enc.Encode(tgt); err != nil {
		panic(fmt.Sprintf("service: encode target: %v", err))
	}
	if err := enc.Encode(opts); err != nil {
		panic(fmt.Sprintf("service: encode options: %v", err))
	}
	return hex.EncodeToString(h.Sum(nil))
}
