package compiler

import (
	"context"
	"fmt"

	"atomique/internal/hardware"
	"atomique/internal/noise"
)

// MaxNoisyShots bounds a single trajectory run; Options.Validate rejects
// larger ones.
const MaxNoisyShots = 1 << 20

// AttachNoise runs the Monte-Carlo trajectory estimation for a completed
// compilation when Options.NoisyShots is set, populating Result.Noise. The
// noise model derives from the target's physical parameters and the
// backend's reported metrics (see internal/noise); the trajectories replay
// the result's execution witness. Timed-out results carry no witness and are
// skipped; a backend that completed without a witness is an error. Noise
// estimation is a post-compilation concern, so drivers — the compile
// service, the CLI, the experiment tables — call this rather than every
// backend reimplementing it.
func AttachNoise(ctx context.Context, tgt Target, res *Result, opts Options) error {
	if opts.SampleBits {
		return AttachSample(ctx, tgt, res, opts, nil)
	}
	model, w, err := noiseSetup(tgt, res, opts)
	if err != nil || res == nil || res.TimedOut || opts.NoisyShots == 0 {
		return err
	}
	est, err := noise.Simulate(ctx, model, w,
		noise.Run{Shots: opts.NoisyShots, Seed: opts.NoiseSeed, Engine: opts.Engine})
	if err != nil {
		return fmt.Errorf("%s: %w", res.Backend, err)
	}
	res.Noise = est
	return nil
}

// AttachSample runs the measurement-sampling trajectories for a completed
// compilation, populating Result.Sample with the histogram over
// Options.NoisyShots shots starting at Options.ShotOffset. emit, when
// non-nil, streams every shot record in global shot order (the /v1/sample
// chunked-HTTP path); an emit error aborts the run.
func AttachSample(ctx context.Context, tgt Target, res *Result, opts Options, emit func([]noise.ShotRecord) error) error {
	model, w, err := noiseSetup(tgt, res, opts)
	if err != nil || res == nil || res.TimedOut || opts.NoisyShots == 0 {
		return err
	}
	sr, err := noise.Sample(ctx, model, w, noise.SampleRun{
		Shots:  opts.NoisyShots,
		Offset: opts.ShotOffset,
		Seed:   opts.NoiseSeed,
		Engine: opts.Engine,
		Emit:   emit,
	})
	if err != nil {
		return fmt.Errorf("%s: %w", res.Backend, err)
	}
	res.Sample = sr
	return nil
}

// noiseSetup validates the trajectory request and derives the noise model
// and execution witness shared by estimation and sampling.
func noiseSetup(tgt Target, res *Result, opts Options) (noise.Model, noise.Witness, error) {
	if opts.NoisyShots == 0 || res == nil || res.TimedOut {
		return noise.Model{}, noise.Witness{}, nil
	}
	if err := opts.Validate(); err != nil {
		return noise.Model{}, noise.Witness{}, fmt.Errorf("compiler: %w", err)
	}
	if res.Program == nil {
		return noise.Model{}, noise.Witness{}, fmt.Errorf("compiler: backend %q produced no execution witness to simulate noisily", res.Backend)
	}
	p, err := noiseParams(tgt, res.Metrics.NQubits)
	if err != nil {
		return noise.Model{}, noise.Witness{}, err
	}
	model := noise.Build(p, res.Metrics).
		WithGateProbs(opts.Noise1Q, opts.Noise2Q).
		Scaled(opts.NoiseScale)
	return model, noise.Witness{NSlots: res.Program.NSlots, Gates: res.Program.Gates}, nil
}

// noiseParams resolves the physical parameters the noise model derives its
// gate-error channels from. Auto targets use the Table I neutral-atom
// constants — correct for every backend's canonical device because the
// paper's unbiased-comparison setting equalises gate fidelities across
// families (the movement channels come from the analytic breakdown, which
// the backend computed with its true parameters either way).
func noiseParams(tgt Target, nQubits int) (hardware.Params, error) {
	switch tgt.Kind {
	case KindFPQA:
		cfg, err := tgt.Hardware(nQubits)
		if err != nil {
			return hardware.Params{}, err
		}
		return cfg.Params, nil
	case KindZoned:
		_, p, err := tgt.ZoneSetup(nQubits)
		return p, err
	case KindCoupling:
		a, err := tgt.Arch(nQubits, tgt.Coupling.Family)
		if err != nil {
			return hardware.Params{}, err
		}
		return a.Params, nil
	default:
		return hardware.NeutralAtom(), nil
	}
}
