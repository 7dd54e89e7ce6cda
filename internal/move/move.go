// Package move implements the atom-movement kinematics of Sec. IV of the
// Atomique paper: the constant-negative-jerk trajectory of Fig 12 and the
// vibrational-quantum-number (n_vib) heating accrued per movement.
//
// The trajectory is a(t) = a0 + j*t with constant jerk j < 0 and a0 = -j*T/2,
// giving a linearly decreasing acceleration, a parabolic velocity that starts
// and ends at zero, and an S-shaped displacement reaching D at time T.
// Solving x(T) = D yields j = -12*D/T^3.
package move

import "atomique/internal/hardware"

// Profile is a sampled movement trajectory (the four panels of Fig 12).
type Profile struct {
	Time     []float64 // s
	Jerk     []float64 // m/s^3 (constant)
	Accel    []float64 // m/s^2
	Velocity []float64 // m/s
	Position []float64 // m
}

// Trajectory samples the constant-jerk profile for a move of distance d over
// duration t at n points (n >= 2).
func Trajectory(d, t float64, n int) Profile {
	if n < 2 {
		n = 2
	}
	j := Jerk(d, t)
	a0 := -j * t / 2
	p := Profile{
		Time:     make([]float64, n),
		Jerk:     make([]float64, n),
		Accel:    make([]float64, n),
		Velocity: make([]float64, n),
		Position: make([]float64, n),
	}
	for i := 0; i < n; i++ {
		tt := t * float64(i) / float64(n-1)
		p.Time[i] = tt
		p.Jerk[i] = j
		p.Accel[i] = a0 + j*tt
		p.Velocity[i] = a0*tt + j*tt*tt/2
		p.Position[i] = a0*tt*tt/2 + j*tt*tt*tt/6
	}
	return p
}

// Jerk returns the constant jerk required to traverse distance d in time t.
func Jerk(d, t float64) float64 { return -12 * d / (t * t * t) }

// DeltaNvib returns the vibrational-quantum-number increase for a single
// movement of distance d (meters) over duration t (seconds):
//
//	delta = 1/2 * (6*d / (x_zpf * omega0^2 * t^2))^2
//
// With the Table I parameters this gives 0.0054 for a one-pitch (15 um) hop
// at 300 us, matching the paper's worked example.
func DeltaNvib(d, t float64, p hardware.Params) float64 {
	if d == 0 || t == 0 {
		return 0
	}
	x := 6 * d / (p.Xzpf * p.Omega0 * p.Omega0 * t * t)
	return 0.5 * x * x
}
