package move

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"atomique/internal/hardware"
)

func TestDeltaNvibMatchesPaperWorkedExample(t *testing.T) {
	// Sec. IV: with x_zpf = 38 nm, omega0 = 2*pi*80 kHz, T = 300 us:
	// 1 hop (15 um) -> 0.0054; 5 hops -> 0.13; 10 hops -> 0.54.
	p := hardware.NeutralAtom()
	cases := []struct {
		hops int
		want float64
		tol  float64
	}{
		{1, 0.0054, 0.0002},
		{5, 0.13, 0.01},
		{10, 0.54, 0.02},
	}
	for _, tc := range cases {
		d := float64(tc.hops) * p.AtomDistance
		got := DeltaNvib(d, p.TimePerMove, p)
		if math.Abs(got-tc.want) > tc.tol {
			t.Errorf("DeltaNvib(%d hops) = %v, want %v +- %v", tc.hops, got, tc.want, tc.tol)
		}
	}
}

func TestDeltaNvibScaling(t *testing.T) {
	p := hardware.NeutralAtom()
	base := DeltaNvib(15e-6, 300e-6, p)
	// Quadratic in distance.
	if got := DeltaNvib(30e-6, 300e-6, p); math.Abs(got/base-4) > 1e-9 {
		t.Errorf("distance scaling = %v, want 4x", got/base)
	}
	// Inverse quartic in time: doubling T divides by 16.
	if got := DeltaNvib(15e-6, 600e-6, p); math.Abs(base/got-16) > 1e-9 {
		t.Errorf("time scaling = %v, want 16x", base/got)
	}
	if DeltaNvib(0, 300e-6, p) != 0 {
		t.Errorf("zero distance should heat nothing")
	}
}

func TestTrajectoryBoundaryConditions(t *testing.T) {
	d, tm := 15e-6, 300e-6
	pr := Trajectory(d, tm, 101)
	last := len(pr.Time) - 1
	if pr.Position[0] != 0 || pr.Velocity[0] != 0 {
		t.Errorf("trajectory must start at rest at origin")
	}
	if math.Abs(pr.Position[last]-d) > 1e-12 {
		t.Errorf("final position = %v, want %v", pr.Position[last], d)
	}
	if math.Abs(pr.Velocity[last]) > 1e-9 {
		t.Errorf("final velocity = %v, want 0", pr.Velocity[last])
	}
	// Acceleration decreases linearly from +|a0| to -|a0|.
	if pr.Accel[0] <= 0 || pr.Accel[last] >= 0 {
		t.Errorf("acceleration endpoints = %v, %v", pr.Accel[0], pr.Accel[last])
	}
	if math.Abs(pr.Accel[0]+pr.Accel[last]) > 1e-9 {
		t.Errorf("acceleration not antisymmetric")
	}
	// Constant negative jerk.
	for _, j := range pr.Jerk {
		if j != pr.Jerk[0] || j >= 0 {
			t.Fatalf("jerk not constant negative: %v", pr.Jerk)
		}
	}
	// Peak velocity at midpoint equals 1.5 d/t.
	mid := last / 2
	if want := 1.5 * d / tm; math.Abs(pr.Velocity[mid]-want) > 1e-9 {
		t.Errorf("peak velocity = %v, want %v", pr.Velocity[mid], want)
	}
}

func TestTrajectoryMinPoints(t *testing.T) {
	pr := Trajectory(1e-6, 1e-4, 0)
	if len(pr.Time) != 2 {
		t.Errorf("expected clamp to 2 points, got %d", len(pr.Time))
	}
}

// Property: position is monotone non-decreasing for any positive move.
func TestTrajectoryMonotoneProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		d := (1 + rng.Float64()*99) * 1e-6
		tm := (100 + rng.Float64()*900) * 1e-6
		pr := Trajectory(d, tm, 64)
		for i := 1; i < len(pr.Position); i++ {
			if pr.Position[i] < pr.Position[i-1]-1e-15 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
