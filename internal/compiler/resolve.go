package compiler

import (
	"errors"
	"fmt"

	"atomique/internal/circuit"
	"atomique/internal/hardware"
	"atomique/internal/noise"
)

// Order is one compile order as a client states it: options plus a device
// override. The compile service fills it from a request's fields and the CLI
// from its flags; Resolve applies the same rules to both.
type Order struct {
	// Options are the compile and noise options; Engine is the requested
	// engine, which Resolve replaces with the one that will run.
	Options
	// Relax lists the constraint IDs to relax (see ApplyRelax).
	Relax string
	// SLM, AODs and AODSize override the FPQA machine's SLM side, AOD count
	// and AOD side; zero keeps the base machine's value.
	SLM, AODs, AODSize int
	// Family selects a coupling family for fixed-topology backends (empty:
	// the backend's canonical device).
	Family string
	// Zones sets the zoned machine for zoned backends (nil: the backend's
	// default zones, grown to fit the circuit).
	Zones *ZonedSpec
}

// Resolve turns order o for circuit circ on backend be into the target and
// options the backend compiles with. base is the FPQA machine an order
// without a machine override compiles on and the one a partial override
// starts from; nil means the auto target, the backend's own device sized for
// the circuit, and a partial override then starts from
// hardware.DefaultConfig. Every error is the client's, and its text names the
// compile service's request fields. Device fields that do not apply to the
// backend's target kind are rejected, not ignored.
func Resolve(be Backend, o Order, circ *circuit.Circuit, base *hardware.Config) (Target, Options, error) {
	// Before the target: default targets grow with the circuit.
	if err := CheckWidth(be, circ.N); err != nil {
		return Target{}, Options{}, err
	}
	tgt, err := resolveTarget(be, o, circ, base)
	if err != nil {
		return Target{}, Options{}, err
	}
	opts := o.Options
	if err := opts.Validate(); err != nil {
		return Target{}, Options{}, err
	}
	// A trajectory run the engine cannot take — an unknown engine,
	// engine=stab on a non-Clifford circuit, a witness wider than the
	// engine's cap — is guaranteed to fail after the compile, so reject it
	// up front instead. WitnessWidth accounts for declared ancilla overhead
	// (Q-Pilot's flying ancillas), and the source gates stand in for the
	// witness's: backends preserve Cliffordness, which the conformance suite
	// enforces. The engine is normalised to the one that will run, so the
	// service's cache keys on it: "auto" (or empty) on a Clifford circuit and
	// an explicit "stab" are the same computation and share one entry, while
	// "dense" and "stab" runs of the same circuit never alias.
	if opts.NoisyShots > 0 {
		w := be.Capabilities().WitnessWidth(circ.N)
		if opts.Engine, err = noise.Dispatch(opts.Engine, w, circ.Gates, noise.MaxStabQubits); err != nil {
			return Target{}, Options{}, fmt.Errorf("%v; backend %q compiles this %d-qubit circuit to a %d-slot witness", err, be.Name(), circ.N, w)
		}
	}
	if err := opts.ApplyRelax(o.Relax); err != nil {
		return Target{}, Options{}, err
	}
	// Options outside the backend's declared capabilities (exact/budget on a
	// non-solver backend) fail here rather than as a failed compile.
	if err := CheckSupport(be.Name(), be.Capabilities(), tgt, opts); err != nil {
		return Target{}, Options{}, err
	}
	return tgt, opts, nil
}

// resolveTarget builds the device an order compiles against: FPQA backends
// get base with the order's machine override applied, fixed-topology backends
// the requested coupling family and zoned backends the requested zones, each
// defaulting to the backend's own device.
func resolveTarget(be Backend, o Order, circ *circuit.Circuit, base *hardware.Config) (Target, error) {
	caps := be.Capabilities()
	hasMachine := o.SLM != 0 || o.AODs != 0 || o.AODSize != 0
	if o.Zones != nil && !caps.Zoned {
		return Target{}, fmt.Errorf("backend %q does not compile zoned machines; zones applies only to zoned backends", be.Name())
	}
	switch {
	case caps.Zoned:
		if hasMachine || o.Family != "" {
			return Target{}, fmt.Errorf("backend %q compiles zoned machines; use zones instead of slm/aods/aodSize/family", be.Name())
		}
		if o.Zones == nil {
			return Target{}, nil
		}
		tgt := Target{Kind: KindZoned, Zoned: o.Zones}
		if err := tgt.Validate(); err != nil {
			return Target{}, err
		}
		if sites := o.Zones.Geometry.StorageCapacity(); circ.N > sites {
			return Target{}, fmt.Errorf("circuit needs %d qubits, storage zone has %d sites", circ.N, sites)
		}
		return tgt, nil
	case caps.FPQA:
		if o.Family != "" {
			return Target{}, fmt.Errorf("backend %q compiles FPQA machines; family applies only to fixed-topology backends", be.Name())
		}
		if o.SLM < 0 || o.AODs < 0 || o.AODSize < 0 {
			// Zero means "keep the base machine", so only negatives are out.
			return Target{}, errors.New("machine override values (slm, aods, aodSize) must be non-negative")
		}
		if base == nil {
			if !hasMachine {
				return Target{}, nil
			}
			d := hardware.DefaultConfig()
			base = &d
		}
		cfg, err := base.Override(o.SLM, o.AODs, o.AODSize)
		if err != nil {
			return Target{}, err
		}
		// Site capacity only bounds backends that place circuit qubits onto
		// the machine's trap sites (routing backends). Q-Pilot-style
		// backends take the target solely as a parameter source and lay out
		// their own geometry, so the comparison would be wrong for them.
		if caps.Routes && circ.N > cfg.Capacity() {
			return Target{}, fmt.Errorf("circuit needs %d qubits, machine has %d sites", circ.N, cfg.Capacity())
		}
		return FPQA(cfg), nil
	case caps.Coupling:
		if hasMachine {
			return Target{}, fmt.Errorf("backend %q compiles fixed topologies; slm/aods/aodSize apply only to FPQA backends", be.Name())
		}
		if o.Family == "" {
			return Target{}, nil
		}
		tgt := Coupling(o.Family, 0)
		if err := tgt.Validate(); err != nil {
			return Target{}, err
		}
		return tgt, nil
	default:
		return Target{}, fmt.Errorf("backend %q declares no supported target kind", be.Name())
	}
}
