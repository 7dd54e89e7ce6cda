package hardware

import (
	"math"
	"testing"
)

func TestNeutralAtomTableI(t *testing.T) {
	p := NeutralAtom()
	if p.Fidelity2Q != 0.9975 || p.Fidelity1Q != 0.99992 {
		t.Errorf("gate fidelities = %v/%v", p.Fidelity2Q, p.Fidelity1Q)
	}
	if p.Time2Q != 380e-9 || p.Time1Q != 625e-9 {
		t.Errorf("gate times = %v/%v", p.Time2Q, p.Time1Q)
	}
	if p.AtomDistance != 15e-6 || p.RydbergRadius != 2.5e-6 {
		t.Errorf("geometry = %v/%v", p.AtomDistance, p.RydbergRadius)
	}
	if p.AtomDistance < 6*p.RydbergRadius*(1-1e-12) {
		t.Errorf("pitch below 6 r_b")
	}
	if p.NvibMax != 33 || p.NvibCool != 15 || p.Lambda != 0.109 {
		t.Errorf("vibration params wrong")
	}
}

func TestSuperconducting(t *testing.T) {
	p := Superconducting()
	if p.Time2Q != 480e-9 || p.Time1Q != 35.2e-9 {
		t.Errorf("gate times = %v/%v", p.Time2Q, p.Time1Q)
	}
	if math.Abs(p.CoherenceT1-8.012e-3) > 1e-9 {
		t.Errorf("T1 = %v, want 8.012ms (10x scaled)", p.CoherenceT1)
	}
	// Equalised gate fidelities.
	if p.Fidelity2Q != 0.9975 {
		t.Errorf("f2Q = %v", p.Fidelity2Q)
	}
}

func TestConfigBasics(t *testing.T) {
	cfg := DefaultConfig()
	if cfg.NumArrays() != 3 {
		t.Errorf("NumArrays = %d, want 3", cfg.NumArrays())
	}
	if cfg.Capacity() != 300 {
		t.Errorf("Capacity = %d, want 300", cfg.Capacity())
	}
	caps := cfg.Capacities()
	if len(caps) != 3 || caps[0] != 100 || caps[1] != 100 || caps[2] != 100 {
		t.Errorf("Capacities = %v", caps)
	}
	if cfg.Array(0) != cfg.SLM || cfg.Array(1) != cfg.AODs[0] {
		t.Errorf("Array indexing wrong")
	}
	if err := cfg.Validate(); err != nil {
		t.Errorf("default config invalid: %v", err)
	}
}

func TestSquareConfig(t *testing.T) {
	cfg := SquareConfig(8, 3)
	if cfg.NumArrays() != 4 || cfg.Capacity() != 4*64 {
		t.Errorf("SquareConfig wrong: %+v", cfg)
	}
}

func TestValidateRejectsBadConfigs(t *testing.T) {
	bad := []Config{
		{SLM: ArraySpec{0, 5}, AODs: []ArraySpec{{5, 5}}, Params: NeutralAtom()},
		{SLM: ArraySpec{5, 5}, Params: NeutralAtom()},
		{SLM: ArraySpec{5, 5}, AODs: []ArraySpec{{0, 5}}, Params: NeutralAtom()},
		// Over the size caps.
		{SLM: ArraySpec{maxArrayDim + 1, 5}, AODs: []ArraySpec{{5, 5}}, Params: NeutralAtom()},
		{SLM: ArraySpec{5, 5}, AODs: []ArraySpec{{5, maxArrayDim + 1}}, Params: NeutralAtom()},
		BuildConfig(5, maxAODs+1, 5, NeutralAtom()),
	}
	for i, cfg := range bad {
		if err := cfg.Validate(); err == nil {
			t.Errorf("config %d validated unexpectedly", i)
		}
	}
	// The largest machine the caps allow is valid.
	if err := BuildConfig(maxArrayDim, maxAODs, maxArrayDim, NeutralAtom()).Validate(); err != nil {
		t.Errorf("largest capped machine rejected: %v", err)
	}
	// Pitch below 6 r_b.
	cfg := DefaultConfig()
	cfg.Params.AtomDistance = 5 * cfg.Params.RydbergRadius
	if err := cfg.Validate(); err == nil {
		t.Errorf("sub-6rb pitch validated")
	}
}

func TestParkOffsetsKeepIdleAtomsOutOfRydbergRange(t *testing.T) {
	cfg := DefaultConfig()
	rb := cfg.Params.RydbergRadius
	// Idle AOD atom at any site must be >= 2.5 r_b from every SLM grid point
	// and from idle atoms of the other AOD in x and y separately.
	for a := 1; a < cfg.NumArrays(); a++ {
		s := Site{Array: a, Row: 3, Col: 3}
		x, y := cfg.HomeX(s), cfg.HomeY(s)
		for r := 0; r < cfg.SLM.Rows; r++ {
			for c := 0; c < cfg.SLM.Cols; c++ {
				dx := x - cfg.SiteX(c)
				dy := y - cfg.SiteY(r)
				if d := math.Hypot(dx, dy); d < 2.5*rb {
					t.Fatalf("idle AOD%d atom within 2.5 r_b of SLM(%d,%d): %g", a-1, r, c, d)
				}
			}
		}
	}
	// Two different AODs parked at the same nominal site must not collide.
	s1 := Site{Array: 1, Row: 2, Col: 2}
	s2 := Site{Array: 2, Row: 2, Col: 2}
	d := math.Hypot(cfg.HomeX(s1)-cfg.HomeX(s2), cfg.HomeY(s1)-cfg.HomeY(s2))
	if d < 2.5*rb {
		t.Errorf("idle AOD atoms within Rydberg range of each other: %g", d)
	}
}

func TestSiteString(t *testing.T) {
	if s := (Site{0, 2, 3}).String(); s != "SLM(2,3)" {
		t.Errorf("String = %q", s)
	}
	if s := (Site{2, 0, 5}).String(); s != "AOD1(0,5)" {
		t.Errorf("String = %q", s)
	}
}
