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
	"atomique/internal/hardware"
	"atomique/internal/noise"
	"atomique/internal/qasm"
)

// Request is one compile order: either a named Table II benchmark or inline
// OpenQASM 2.0 source, plus the backend to compile with (default "atomique";
// see GET /v1/backends), compile options, and a device override. FPQA
// backends accept a machine override (any of SLM/AODs/AODSize set builds a
// custom machine; unset fields keep the paper's defaults); fixed-topology
// backends accept a coupling family instead.
type Request struct {
	Benchmark string `json:"benchmark,omitempty"`
	QASM      string `json:"qasm,omitempty"`

	Backend string `json:"backend,omitempty"` // registered backend name

	// Priority is the scheduling class: "interactive" (default) or
	// "batch". Workers strictly prefer interactive jobs, and under load
	// the admission controller sheds batch traffic first. The batch
	// endpoint and the in-process experiments path default to "batch".
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
		hash = e.fpMemo.fingerprint(circ)
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
	// Before the target: default targets grow with the circuit.
	if err := compiler.CheckWidth(be, circ.N); err != nil {
		return task{}, &RequestError{Msg: err.Error()}
	}

	prio, err := parsePriority(req.Priority)
	if err != nil {
		return task{}, err
	}

	tgt, err := e.resolveTarget(be, req, circ)
	if err != nil {
		return task{}, err
	}

	opts := compiler.Options{Seed: req.Seed, SerialRouter: req.Serial, DenseMapper: req.Dense,
		Exact: req.Exact, BudgetSeconds: req.Budget,
		NoisyShots: req.Shots, NoiseSeed: req.NoiseSeed, NoiseScale: req.NoiseScale,
		Noise1Q: req.Noise1Q, Noise2Q: req.Noise2Q, Engine: req.Engine,
		SampleBits: req.Sample, ShotOffset: req.ShotOffset}
	if err := opts.Validate(); err != nil {
		return task{}, &RequestError{Msg: err.Error()}
	}
	// A trajectory run the engine cannot take — an unknown engine,
	// engine=stab on a non-Clifford circuit, a witness wider than the
	// engine's cap — is guaranteed to fail after the compile, so reject it
	// up front instead of burning a worker on it. WitnessWidth accounts for
	// declared ancilla overhead (Q-Pilot's flying ancillas), and the source
	// gates stand in for the witness's: backends preserve Cliffordness, which
	// the conformance suite enforces. The engine option is normalised to the
	// one that will actually run, so the cache keys on the resolved engine:
	// "auto" (or empty) on a Clifford circuit and an explicit "stab" pin are
	// the same computation and must share one cache entry — while "dense"
	// and "stab" runs of the same circuit never alias.
	if req.Shots > 0 {
		w := be.Capabilities().WitnessWidth(circ.N)
		if opts.Engine, err = noise.Dispatch(req.Engine, w, circ.Gates, noise.MaxStabQubits); err != nil {
			return task{}, &RequestError{Msg: fmt.Sprintf("%v; backend %q compiles this %d-qubit circuit to a %d-slot witness", err, be.Name(), circ.N, w)}
		}
	}
	if err := opts.ApplyRelax(req.Relax); err != nil {
		return task{}, &RequestError{Msg: err.Error()}
	}
	// Options outside the backend's declared capabilities (exact/budget on a
	// non-solver backend) are a client error, caught here rather than as a
	// failed job.
	if err := compiler.CheckSupport(be.Name(), be.Capabilities(), tgt, opts); err != nil {
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

// resolveTarget builds the device description a request compiles against:
// FPQA backends get the engine's default machine with any per-request
// override applied; fixed-topology backends get the requested coupling
// family (or their own default). Options that do not apply to the selected
// backend's target kind are rejected, not silently ignored.
func (e *Engine) resolveTarget(be compiler.Backend, req Request, circ *circuit.Circuit) (compiler.Target, error) {
	caps := be.Capabilities()
	hasMachine := req.SLM != 0 || req.AODs != 0 || req.AODSize != 0
	if req.Zones != nil && !caps.Zoned {
		return compiler.Target{}, &RequestError{
			Msg: fmt.Sprintf("backend %q does not compile zoned machines; zones applies only to zoned backends", be.Name())}
	}
	switch {
	case caps.Zoned:
		if hasMachine || req.Family != "" {
			return compiler.Target{}, &RequestError{
				Msg: fmt.Sprintf("backend %q compiles zoned machines; use zones instead of slm/aods/aodSize/family", be.Name())}
		}
		if req.Zones == nil {
			return compiler.Target{}, nil // backend's default zones, grown to fit
		}
		tgt := compiler.Target{Kind: compiler.KindZoned, Zoned: req.Zones}
		if err := tgt.Validate(); err != nil {
			return compiler.Target{}, &RequestError{Msg: err.Error()}
		}
		if circ.N > req.Zones.Geometry.StorageCapacity() {
			return compiler.Target{}, &RequestError{
				Msg: fmt.Sprintf("circuit needs %d qubits, storage zone has %d sites",
					circ.N, req.Zones.Geometry.StorageCapacity())}
		}
		return tgt, nil
	case caps.FPQA:
		if req.Family != "" {
			return compiler.Target{}, &RequestError{
				Msg: fmt.Sprintf("backend %q compiles FPQA machines; family applies only to fixed-topology backends", be.Name())}
		}
		cfg := e.cfg.Hardware
		if req.SLM < 0 || req.AODs < 0 || req.AODSize < 0 {
			// Zero means "keep the engine default", so only negatives are out.
			return compiler.Target{}, &RequestError{Msg: "machine override values (slm, aods, aodSize) must be non-negative"}
		}
		if hasMachine {
			// Partial overrides keep the engine default for unset dimensions
			// (including a non-square configured SLM); overriding aodSize makes
			// the AOD arrays homogeneous at that size.
			slmSpec := cfg.SLM
			if req.SLM > 0 {
				slmSpec = hardware.ArraySpec{Rows: req.SLM, Cols: req.SLM}
			}
			var aodSpec hardware.ArraySpec
			if len(cfg.AODs) > 0 {
				aodSpec = cfg.AODs[0]
			}
			if req.AODSize > 0 {
				aodSpec = hardware.ArraySpec{Rows: req.AODSize, Cols: req.AODSize}
			}
			aods := len(cfg.AODs)
			if req.AODs > 0 {
				aods = req.AODs
			}
			// Cap the count before it sizes the AOD list; Validate below
			// caps the array sides.
			if err := hardware.CheckAODCount(aods); err != nil {
				return compiler.Target{}, &RequestError{Msg: err.Error()}
			}
			cfg = hardware.Config{SLM: slmSpec, Params: cfg.Params}
			for i := 0; i < aods; i++ {
				cfg.AODs = append(cfg.AODs, aodSpec)
			}
		}
		if err := cfg.Validate(); err != nil {
			return compiler.Target{}, &RequestError{Msg: err.Error()}
		}
		// Site capacity only bounds backends that place circuit qubits onto
		// the machine's trap sites (routing backends). Q-Pilot-style
		// backends take the target solely as a parameter source and lay out
		// their own geometry, so the comparison would be wrong for them.
		if caps.Routes && circ.N > cfg.Capacity() {
			return compiler.Target{}, &RequestError{
				Msg: fmt.Sprintf("circuit needs %d qubits, machine has %d sites", circ.N, cfg.Capacity()),
			}
		}
		return compiler.FPQA(cfg), nil
	case caps.Coupling:
		if hasMachine {
			return compiler.Target{}, &RequestError{
				Msg: fmt.Sprintf("backend %q compiles fixed topologies; slm/aods/aodSize apply only to FPQA backends", be.Name())}
		}
		if req.Family == "" {
			return compiler.Target{}, nil // backend's canonical device
		}
		tgt := compiler.Coupling(req.Family, 0)
		if err := tgt.Validate(); err != nil {
			return compiler.Target{}, &RequestError{Msg: err.Error()}
		}
		return tgt, nil
	default:
		return compiler.Target{}, &RequestError{Msg: fmt.Sprintf("backend %q declares no supported target kind", be.Name())}
	}
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
