package stab

import (
	"errors"
	"math"
	"math/cmplx"
	"math/rand"
	"testing"

	"atomique/internal/circuit"
	"atomique/internal/sim"
)

// randomClifford returns a random Clifford circuit over n qubits: the full
// native set plus every rotation pinned to a Clifford quarter-turn.
func randomClifford(rng *rand.Rand, n, gates int) *circuit.Circuit {
	angles := []float64{math.Pi / 2, -math.Pi / 2, math.Pi}
	c := circuit.New(n)
	for i := 0; i < gates; i++ {
		switch rng.Intn(12) {
		case 0:
			c.H(rng.Intn(n))
		case 1:
			c.X(rng.Intn(n))
		case 2:
			c.Add1Q(circuit.OpY, rng.Intn(n), 0)
		case 3:
			c.Add1Q(circuit.OpZ, rng.Intn(n), 0)
		case 4:
			c.Add1Q(circuit.OpS, rng.Intn(n), 0)
		case 5:
			c.RZ(rng.Intn(n), angles[rng.Intn(3)])
		case 6:
			c.RX(rng.Intn(n), angles[rng.Intn(3)])
		case 7:
			c.RY(rng.Intn(n), angles[rng.Intn(3)])
		case 8, 9:
			a, b := pick2(rng, n)
			c.CX(a, b)
		case 10:
			a, b := pick2(rng, n)
			c.CZ(a, b)
		case 11:
			a, b := pick2(rng, n)
			c.ZZ(a, b, angles[rng.Intn(3)])
		}
	}
	return c
}

func pick2(rng *rand.Rand, n int) (int, int) {
	a := rng.Intn(n)
	b := rng.Intn(n - 1)
	if b >= a {
		b++
	}
	return a, b
}

func mustNew(t *testing.T, n int) *Tableau {
	t.Helper()
	tb, err := New(n)
	if err != nil {
		t.Fatal(err)
	}
	return tb
}

func mustRun(t *testing.T, tb *Tableau, c *circuit.Circuit) {
	t.Helper()
	if err := tb.Run(c.Gates); err != nil {
		t.Fatal(err)
	}
}

func equalTableau(a, b *Tableau) bool {
	if a.n != b.n {
		return false
	}
	for q := 0; q < a.n; q++ {
		for w := 0; w < a.w; w++ {
			if a.x[q][w] != b.x[q][w] || a.z[q][w] != b.z[q][w] {
				return false
			}
		}
	}
	for w := 0; w < a.w; w++ {
		if a.r[w] != b.r[w] {
			return false
		}
	}
	return true
}

// TestCanonicalIdentities checks operator identities exactly: applying a
// sequence equal to the identity to a random stabilizer state must return the
// tableau bit-for-bit (gate updates are deterministic row maps).
func TestCanonicalIdentities(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	gate := func(op circuit.Op, qs ...int) circuit.Gate {
		g := circuit.Gate{Op: op, Q0: qs[0], Q1: -1}
		if len(qs) > 1 {
			g.Q1 = qs[1]
		}
		return g
	}
	rz := func(theta float64, q int) circuit.Gate {
		return circuit.Gate{Op: circuit.OpRZ, Q0: q, Q1: -1, Param: theta}
	}
	cases := []struct {
		name string
		seq  []circuit.Gate
	}{
		{"HH", []circuit.Gate{gate(circuit.OpH, 0), gate(circuit.OpH, 0)}},
		{"SSSS", []circuit.Gate{gate(circuit.OpS, 0), gate(circuit.OpS, 0), gate(circuit.OpS, 0), gate(circuit.OpS, 0)}},
		{"XX", []circuit.Gate{gate(circuit.OpX, 1), gate(circuit.OpX, 1)}},
		{"S-Sdg", []circuit.Gate{gate(circuit.OpS, 2), rz(-math.Pi/2, 2)}},
		{"CXCX", []circuit.Gate{gate(circuit.OpCX, 0, 3), gate(circuit.OpCX, 0, 3)}},
		{"CZCZ", []circuit.Gate{gate(circuit.OpCZ, 1, 2), gate(circuit.OpCZ, 1, 2)}},
		// CZ is symmetric: CZ(a,b) followed by CZ(b,a) is the identity.
		{"CZ-symmetry", []circuit.Gate{gate(circuit.OpCZ, 0, 4), gate(circuit.OpCZ, 4, 0)}},
		// SWAP = CX(a,b) CX(b,a) CX(a,b).
		{"SWAP-3CX", []circuit.Gate{
			gate(circuit.OpSWAP, 1, 3),
			gate(circuit.OpCX, 1, 3), gate(circuit.OpCX, 3, 1), gate(circuit.OpCX, 1, 3)}},
		// CX(c,t) = H(t) CZ(c,t) H(t).
		{"CX-HCZH", []circuit.Gate{
			gate(circuit.OpCX, 2, 0),
			gate(circuit.OpH, 0), gate(circuit.OpCZ, 2, 0), gate(circuit.OpH, 0)}},
		// ZZ(π/2) ZZ(-π/2) = I.
		{"ZZ-inverse", []circuit.Gate{
			{Op: circuit.OpZZ, Q0: 0, Q1: 1, Param: math.Pi / 2},
			{Op: circuit.OpZZ, Q0: 0, Q1: 1, Param: -math.Pi / 2}}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for trial := 0; trial < 20; trial++ {
				tb := mustNew(t, 5)
				mustRun(t, tb, randomClifford(rng, 5, 30))
				before := tb.Clone()
				for _, g := range tc.seq {
					if err := tb.ApplyGate(g); err != nil {
						t.Fatal(err)
					}
				}
				if !equalTableau(tb, before) {
					t.Fatalf("trial %d: %s did not act as the identity", trial, tc.name)
				}
			}
		})
	}
}

// TestGHZStabilizerGroup verifies the textbook GHZ stabilizer generators and
// the sign/indefiniteness semantics of Expectation.
func TestGHZStabilizerGroup(t *testing.T) {
	const n = 6
	c := circuit.New(n)
	c.H(0)
	for q := 1; q < n; q++ {
		c.CX(q-1, q)
	}
	tb, err := FromCircuit(c)
	if err != nil {
		t.Fatal(err)
	}

	xAll := NewPauli(n)
	for q := 0; q < n; q++ {
		xAll.Set(q, true, false)
	}
	if got := tb.Expectation(xAll); got != 1 {
		t.Errorf("<X⊗...⊗X> = %d, want +1", got)
	}
	minusXAll := NewPauli(n)
	for q := 0; q < n; q++ {
		minusXAll.Set(q, true, false)
	}
	minusXAll.Phase = 2
	if got := tb.Expectation(minusXAll); got != -1 {
		t.Errorf("<-X⊗...⊗X> = %d, want -1", got)
	}
	for q := 0; q+1 < n; q++ {
		zz := NewPauli(n)
		zz.Set(q, false, true)
		zz.Set(q+1, false, true)
		if got := tb.Expectation(zz); got != 1 {
			t.Errorf("<Z%dZ%d> = %d, want +1", q, q+1, got)
		}
	}
	z0 := NewPauli(n)
	z0.Set(0, false, true)
	if got := tb.Expectation(z0); got != 0 {
		t.Errorf("<Z0> = %d, want 0 (indefinite)", got)
	}

	// The extracted generators all have expectation +1 by construction.
	for i := 0; i < n; i++ {
		p := tb.StabilizerPauli(i)
		if got := tb.Expectation(p); got != 1 {
			t.Errorf("generator %d (%v): expectation %d, want +1", i, p, got)
		}
	}

	// GHZ measurement: qubit 0 is a coin flip, the rest follow it exactly.
	for _, bit := range []bool{false, true} {
		tb2 := tb.Clone()
		out0, random := tb2.MeasureZ(0, func() bool { return bit })
		if !random {
			t.Fatal("GHZ Z0 measurement should be random")
		}
		for q := 1; q < n; q++ {
			out, random := tb2.MeasureZ(q, func() bool { t.Fatal("coin used"); return false })
			if random || out != out0 {
				t.Fatalf("qubit %d: outcome %d (random=%v), want deterministic %d", q, out, random, out0)
			}
		}
	}
}

// densePauliExpectation computes <ψ|P|ψ> in the dense simulator.
func densePauliExpectation(t *testing.T, st *sim.State, p *Pauli) float64 {
	t.Helper()
	tmp := st.Clone()
	for q := 0; q < p.N(); q++ {
		x := p.X[q>>6]>>uint(q&63)&1 == 1
		z := p.Z[q>>6]>>uint(q&63)&1 == 1
		var op circuit.Op
		switch {
		case x && z:
			op = circuit.OpY
		case x:
			op = circuit.OpX
		case z:
			op = circuit.OpZ
		default:
			continue
		}
		tmp.Apply(circuit.Gate{Op: op, Q0: q, Q1: -1})
	}
	var dot complex128
	for i := range st.Amp {
		dot += cmplx.Conj(st.Amp[i]) * tmp.Amp[i]
	}
	phase := complex(1, 0)
	switch p.Phase {
	case 1:
		phase = 1i
	case 2:
		phase = -1
	case 3:
		phase = -1i
	}
	v := phase * dot
	if math.Abs(imag(v)) > 1e-9 {
		t.Fatalf("non-real Pauli expectation %v", v)
	}
	return real(v)
}

// TestMeasurementDistributionVsDense is the engine cross-check property test:
// for seeded random Clifford circuits the stabilizer engine must induce
// exactly the dense simulator's measurement distribution. Exhaustively over
// all bitstrings at small n (ProjectZ products vs |amplitude|²), and via
// stabilizer-generator expectations up to 16 qubits.
func TestMeasurementDistributionVsDense(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	for trial := 0; trial < 25; trial++ {
		n := 2 + rng.Intn(7) // exhaustive part: up to 8 qubits
		c := randomClifford(rng, n, 12+rng.Intn(50))
		tb, err := FromCircuit(c)
		if err != nil {
			t.Fatal(err)
		}
		st, err := sim.NewState(n)
		if err != nil {
			t.Fatal(err)
		}
		st.Run(c)
		for b := 0; b < 1<<uint(n); b++ {
			prob := 1.0
			tb2 := tb.Clone()
			for q := 0; q < n && prob > 0; q++ {
				prob *= tb2.ProjectZ(q, b>>uint(q)&1)
			}
			amp := st.Amp[b]
			dense := real(amp)*real(amp) + imag(amp)*imag(amp)
			if math.Abs(prob-dense) > 1e-9 {
				t.Fatalf("trial %d (%d qubits): P(%0*b) stab %v vs dense %v", trial, n, n, b, prob, dense)
			}
		}
	}

	// Wider circuits: every stabilizer generator of the tableau must have
	// dense expectation exactly +1 — the n generators determine the state.
	for trial := 0; trial < 10; trial++ {
		n := 9 + rng.Intn(8) // 9..16
		c := randomClifford(rng, n, 40+rng.Intn(80))
		tb, err := FromCircuit(c)
		if err != nil {
			t.Fatal(err)
		}
		st, err := sim.NewState(n)
		if err != nil {
			t.Fatal(err)
		}
		st.Run(c)
		for i := 0; i < n; i++ {
			p := tb.StabilizerPauli(i)
			if e := densePauliExpectation(t, st, p); math.Abs(e-1) > 1e-9 {
				t.Fatalf("trial %d (%d qubits): generator %d (%v) dense expectation %v, want +1", trial, n, i, p, e)
			}
		}
	}
}

// TestFrameVsDense checks the trajectory scorer: injecting a random Pauli
// error mid-circuit, the frame's commute-with-stabilizers verdict must equal
// the dense overlap (which is exactly 0 or 1 for Clifford trajectories).
func TestFrameVsDense(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	for trial := 0; trial < 60; trial++ {
		n := 2 + rng.Intn(9)
		c := randomClifford(rng, n, 10+rng.Intn(40))
		pos := rng.Intn(len(c.Gates) + 1)
		q := rng.Intn(n)
		pauli := 1 + rng.Intn(3)

		tb, err := FromCircuit(c)
		if err != nil {
			t.Fatal(err)
		}
		fr := tb.NewFrame()
		switch pauli {
		case 1:
			fr.InjectX(q)
		case 2:
			fr.InjectY(q)
		case 3:
			fr.InjectZ(q)
		}
		for _, g := range c.Gates[pos:] {
			fr.Conjugate(g)
		}
		stabFid := 1.0
		if tb.Disturbs(fr) {
			stabFid = 0
		}

		ideal, err := sim.NewState(n)
		if err != nil {
			t.Fatal(err)
		}
		ideal.Run(c)
		noisy, err := sim.NewState(n)
		if err != nil {
			t.Fatal(err)
		}
		for i, g := range c.Gates {
			if i == pos {
				noisy.Apply(circuit.Gate{Op: []circuit.Op{0, circuit.OpX, circuit.OpY, circuit.OpZ}[pauli], Q0: q, Q1: -1})
			}
			noisy.Apply(g)
		}
		if pos == len(c.Gates) {
			noisy.Apply(circuit.Gate{Op: []circuit.Op{0, circuit.OpX, circuit.OpY, circuit.OpZ}[pauli], Q0: q, Q1: -1})
		}
		denseFid := sim.Fidelity(noisy, ideal)
		if math.Abs(denseFid-stabFid) > 1e-9 {
			t.Fatalf("trial %d (%d qubits, pauli %d at gate %d on q%d): frame says %v, dense says %v",
				trial, n, pauli, pos, q, stabFid, denseFid)
		}
	}
}

// TestNonClifford checks the structured rejection and the circuit classifier.
func TestNonClifford(t *testing.T) {
	tb := mustNew(t, 2)
	bad := []circuit.Gate{
		{Op: circuit.OpT, Q0: 0, Q1: -1},
		{Op: circuit.OpRZ, Q0: 0, Q1: -1, Param: 0.3},
		{Op: circuit.OpRX, Q0: 1, Q1: -1, Param: math.Pi / 3},
		{Op: circuit.OpZZ, Q0: 0, Q1: 1, Param: 1.1},
		{Op: circuit.OpRY, Q0: 0, Q1: -1, Param: 2.2},
	}
	for _, g := range bad {
		err := tb.ApplyGate(g)
		var nce *NonCliffordError
		if !errors.As(err, &nce) {
			t.Errorf("gate %v: err = %v, want *NonCliffordError", g, err)
		}
		if circuit.IsCliffordGate(g) {
			t.Errorf("IsCliffordGate(%v) = true", g)
		}
	}
	// Run wraps the stream index.
	stream := []circuit.Gate{
		{Op: circuit.OpH, Q0: 0, Q1: -1},
		{Op: circuit.OpCX, Q0: 0, Q1: 1},
		{Op: circuit.OpT, Q0: 1, Q1: -1},
	}
	err := mustNew(t, 2).Run(stream)
	var nce *NonCliffordError
	if !errors.As(err, &nce) || nce.Index != 2 {
		t.Errorf("Run err = %v, want NonCliffordError at index 2", err)
	}
	if circuit.AllClifford(stream) {
		t.Error("AllClifford accepted a T gate")
	}
	if !circuit.AllClifford(stream[:2]) {
		t.Error("AllClifford rejected H+CX")
	}

	// Quarter-turn recognition tolerates float noise but not real angles.
	for _, tc := range []struct {
		theta float64
		k     int
		ok    bool
	}{
		{0, 0, true},
		{math.Pi / 2, 1, true},
		{-math.Pi / 2, 3, true},
		{math.Pi, 2, true},
		{2 * math.Pi, 0, true},
		{math.Pi/2 + 1e-12, 1, true},
		{math.Pi/2 + 1e-6, 0, false},
		{0.3, 0, false},
	} {
		k, ok := circuit.CliffordQuarterTurns(tc.theta)
		if ok != tc.ok || (ok && k != tc.k) {
			t.Errorf("CliffordQuarterTurns(%v) = (%d,%v), want (%d,%v)", tc.theta, k, ok, tc.k, tc.ok)
		}
	}
}

// TestNewBounds covers the width validation.
func TestNewBounds(t *testing.T) {
	for _, n := range []int{0, -1, MaxQubits + 1} {
		if _, err := New(n); err == nil {
			t.Errorf("New(%d) accepted", n)
		}
	}
	if _, err := New(MaxQubits); err != nil {
		t.Errorf("New(MaxQubits) rejected: %v", err)
	}
}
