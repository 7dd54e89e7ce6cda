// Package hardware models the reconfigurable-atom-array (RAA) machine of the
// Atomique paper: one fixed SLM array plus one or more movable AOD arrays,
// together with the physical parameters of Table I. Geometry is expressed on
// a site grid with pitch Params.AtomDistance; AOD rows/columns move in
// continuous coordinates but target SLM grid sites when executing gates.
package hardware

import "fmt"

// Params are the physical device parameters (Table I of the paper, with the
// 10x coherence scaling the evaluation section applies). All times are in
// seconds, all distances in meters.
type Params struct {
	Fidelity2Q    float64 // CZ fidelity (scaled: 0.9975)
	Fidelity1Q    float64 // 1Q fidelity (scaled: 0.99992)
	Time2Q        float64 // CZ duration (380 ns)
	Time1Q        float64 // 1Q duration (625 ns)
	CoherenceT1   float64 // coherence time (15 s scaled)
	AtomDistance  float64 // SLM site pitch (15 um)
	RydbergRadius float64 // r_b (2.5 um; pitch = 6 r_b)
	TimePerMove   float64 // per movement stage (300 us)
	TransferTime  float64 // SLM<->AOD transfer (15 us)
	TransferLossP float64 // atom loss per transfer (0.0068)
	Xzpf          float64 // zero-point size (38 nm)
	Omega0        float64 // trap angular frequency (2*pi*80 kHz)
	Lambda        float64 // heating-to-error coefficient (0.109)
	NvibMax       float64 // vibrational quantum ceiling (33)
	NvibCool      float64 // cooling threshold (15)
}

// NeutralAtom returns the Table I neutral-atom parameters.
func NeutralAtom() Params {
	return Params{
		Fidelity2Q:    0.9975,
		Fidelity1Q:    0.99992,
		Time2Q:        380e-9,
		Time1Q:        625e-9,
		CoherenceT1:   15.0,
		AtomDistance:  15e-6,
		RydbergRadius: 2.5e-6,
		TimePerMove:   300e-6,
		TransferTime:  15e-6,
		TransferLossP: 0.0068,
		Xzpf:          38e-9,
		Omega0:        2 * 3.141592653589793 * 80e3,
		Lambda:        0.109,
		NvibMax:       33,
		NvibCool:      15,
	}
}

// Superconducting returns the IBM parameters of Table I with gate fidelities
// equalised to the neutral-atom values (the paper's unbiased-comparison
// setting) and coherence scaled 10x like the atom devices.
func Superconducting() Params {
	p := NeutralAtom()
	p.Time2Q = 480e-9
	p.Time1Q = 35.2e-9
	p.CoherenceT1 = 801.2e-6 * 10
	// No movement on superconducting hardware.
	p.TimePerMove = 0
	return p
}

// ArraySpec is the row/column extent of one trap array.
type ArraySpec struct {
	Rows, Cols int
}

// Capacity returns the number of trap sites.
func (a ArraySpec) Capacity() int { return a.Rows * a.Cols }

// Config describes an RAA machine: the SLM array, the AOD arrays, and the
// physical parameters. The paper's default is a 10x10 SLM with two 10x10
// AODs.
type Config struct {
	SLM    ArraySpec
	AODs   []ArraySpec
	Params Params
}

// DefaultConfig returns the paper's default machine: 10x10 SLM + two 10x10
// AODs with Table I parameters.
func DefaultConfig() Config {
	return Config{
		SLM:    ArraySpec{10, 10},
		AODs:   []ArraySpec{{10, 10}, {10, 10}},
		Params: NeutralAtom(),
	}
}

// BuildConfig returns a machine with an slm x slm SLM and aods AOD arrays of
// aodSize x aodSize, using parameters p. It is the shared constructor behind
// the CLI/daemon machine flags and the service's per-request overrides.
func BuildConfig(slm, aods, aodSize int, p Params) Config {
	cfg := Config{SLM: ArraySpec{Rows: slm, Cols: slm}, Params: p}
	for i := 0; i < aods; i++ {
		cfg.AODs = append(cfg.AODs, ArraySpec{Rows: aodSize, Cols: aodSize})
	}
	return cfg
}

// SquareConfig returns a machine with one SLM and numAODs AOD arrays, all
// size x size, with Table I parameters.
func SquareConfig(size, numAODs int) Config {
	return BuildConfig(size, numAODs, size, NeutralAtom())
}

// NumArrays returns the total array count (SLM + AODs).
func (c Config) NumArrays() int { return 1 + len(c.AODs) }

// Array returns the spec of array index a (0 = SLM, 1.. = AODs).
func (c Config) Array(a int) ArraySpec {
	if a == 0 {
		return c.SLM
	}
	return c.AODs[a-1]
}

// Capacity returns total trap sites across all arrays.
func (c Config) Capacity() int {
	t := c.SLM.Capacity()
	for _, a := range c.AODs {
		t += a.Capacity()
	}
	return t
}

// Capacities returns per-array capacities indexed like Array.
func (c Config) Capacities() []int {
	caps := make([]int, c.NumArrays())
	for i := range caps {
		caps[i] = c.Array(i).Capacity()
	}
	return caps
}

// Validate checks that the configuration is physically sensible and within
// the size caps (maxArrayDim per axis, maxAODs arrays).
func (c Config) Validate() error {
	if err := c.SLM.validate(); err != nil {
		return fmt.Errorf("hardware: SLM %w", err)
	}
	if err := CheckAODCount(len(c.AODs)); err != nil {
		return err
	}
	for i, a := range c.AODs {
		if err := a.validate(); err != nil {
			return fmt.Errorf("hardware: AOD %d %w", i, err)
		}
	}
	p := c.Params
	if p.AtomDistance < 6*p.RydbergRadius*(1-1e-12) {
		return fmt.Errorf("hardware: atom distance %g below 6*r_b = %g",
			p.AtomDistance, 6*p.RydbergRadius)
	}
	if p.TimePerMove <= 0 {
		return fmt.Errorf("hardware: TimePerMove must be positive")
	}
	return nil
}

// validate checks that both sides are in 1..maxArrayDim.
func (a ArraySpec) validate() error {
	switch {
	case a.Rows <= 0 || a.Cols <= 0:
		return fmt.Errorf("spec %dx%d invalid", a.Rows, a.Cols)
	case a.Rows > maxArrayDim || a.Cols > maxArrayDim:
		return fmt.Errorf("spec %dx%d exceeds the %d per-axis limit", a.Rows, a.Cols, maxArrayDim)
	}
	return nil
}

// CheckAODCount rejects an AOD-array count outside 1..maxAODs. Validate
// applies it; a caller that builds the AOD list from untrusted input calls
// it first, so the input cannot size the allocation.
func CheckAODCount(n int) error {
	switch {
	case n < 1:
		return fmt.Errorf("hardware: at least one AOD array required")
	case n > maxAODs:
		return fmt.Errorf("hardware: %d AOD arrays exceed the %d-array limit", n, maxAODs)
	}
	return nil
}

// Site is a trap location: array index (0 = SLM) and row/column within it.
type Site struct {
	Array, Row, Col int
}

// String renders the site as e.g. "SLM(2,3)" or "AOD1(0,5)".
func (s Site) String() string {
	if s.Array == 0 {
		return fmt.Sprintf("SLM(%d,%d)", s.Row, s.Col)
	}
	return fmt.Sprintf("AOD%d(%d,%d)", s.Array-1, s.Row, s.Col)
}

// HomeX returns the nominal (idle) x-coordinate of the site in meters.
// AOD array k (1-based) parks at a diagonal interstitial offset of
// d*k/(m+1) past the grid line, where m is the AOD count. With the default
// two-AOD machine this keeps every idle atom >= 2.5 r_b from all SLM atoms
// and from idle atoms of the other AOD. For m > 2 the offsets compress and
// the geometric guarantee weakens; the router never relies on park
// coordinates for interaction checks (parked rows/columns are
// non-interacting by construction), so this only affects visualisation.
func (c Config) HomeX(s Site) float64 {
	d := c.Params.AtomDistance
	return float64(s.Col)*d + c.parkOffset(s.Array)
}

// HomeY returns the nominal (idle) y-coordinate of the site in meters.
func (c Config) HomeY(s Site) float64 {
	d := c.Params.AtomDistance
	return float64(s.Row)*d + c.parkOffset(s.Array)
}

func (c Config) parkOffset(array int) float64 {
	if array == 0 {
		return 0
	}
	m := float64(len(c.AODs))
	return c.Params.AtomDistance * float64(array) / (m + 1)
}

// SiteX returns the grid x-coordinate of SLM column col.
func (c Config) SiteX(col int) float64 { return float64(col) * c.Params.AtomDistance }

// SiteY returns the grid y-coordinate of SLM row row.
func (c Config) SiteY(row int) float64 { return float64(row) * c.Params.AtomDistance }
