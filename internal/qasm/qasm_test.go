package qasm

import (
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"atomique/internal/bench"
	"atomique/internal/circuit"
	"atomique/internal/sim"
)

func TestWriteBasic(t *testing.T) {
	c := circuit.New(3)
	c.H(0)
	c.CX(0, 1)
	c.ZZ(1, 2, math.Pi/2)
	out := String(c)
	for _, want := range []string{
		"OPENQASM 2.0;", "qreg q[3];", "h q[0];", "cx q[0],q[1];", "rzz(",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestParseBasic(t *testing.T) {
	src := `OPENQASM 2.0;
include "qelib1.inc";
qreg q[4];
creg c[4];
h q[0];
cx q[0],q[1]; cz q[2],q[3];
rz(pi/2) q[1];
rx(-pi/4) q[2];
rzz(0.5) q[0],q[3];
// a comment
barrier q;
measure q[0] -> c[0];
`
	c, err := ParseString(src)
	if err != nil {
		t.Fatal(err)
	}
	if c.N != 4 {
		t.Fatalf("N = %d, want 4", c.N)
	}
	if c.NumGates() != 6 {
		t.Fatalf("gates = %d, want 6 (measure/barrier skipped)", c.NumGates())
	}
	if g := c.Gates[3]; g.Op != circuit.OpRZ || math.Abs(g.Param-math.Pi/2) > 1e-12 {
		t.Errorf("rz parse wrong: %+v", g)
	}
	if g := c.Gates[4]; math.Abs(g.Param+math.Pi/4) > 1e-12 {
		t.Errorf("negative angle parse wrong: %+v", g)
	}
}

func TestParseErrors(t *testing.T) {
	cases := []string{
		"h q[0];",                    // gate before qreg
		"qreg q[2];\nfoo q[0];",      // unknown gate
		"qreg q[2];\nqreg r[2];",     // duplicate qreg
		"qreg q[2];\nrz(pi/0) q[0];", // division by zero
		"qreg q[2];\ncx q[0];",       // missing operand... parses as 1 operand 2Q
		"",                           // empty
		"qreg q[x];",                 // bad index
	}
	for _, src := range cases {
		if _, err := ParseString(src); err == nil {
			t.Errorf("ParseString(%q) succeeded, want error", src)
		}
	}
}

func TestAngleExpressions(t *testing.T) {
	cases := map[string]float64{
		"pi":     math.Pi,
		"pi/2":   math.Pi / 2,
		"-pi/4":  -math.Pi / 4,
		"3*pi/4": 3 * math.Pi / 4,
		"0.25":   0.25,
		"2*0.5":  1.0,
		"pi/2/2": math.Pi / 4,
	}
	for expr, want := range cases {
		got, err := parseAngle(expr)
		if err != nil {
			t.Errorf("parseAngle(%q): %v", expr, err)
			continue
		}
		if math.Abs(got-want) > 1e-12 {
			t.Errorf("parseAngle(%q) = %v, want %v", expr, got, want)
		}
	}
}

// Round trip: write then parse must preserve gate structure and, on small
// circuits, exact semantics.
func TestRoundTripSemantics(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 5; trial++ {
		n := 2 + rng.Intn(5)
		c := randomCircuit(rng, n, 30)
		back, err := ParseString(String(c))
		if err != nil {
			t.Fatal(err)
		}
		if back.N != c.N || back.NumGates() != c.NumGates() {
			t.Fatalf("round trip changed shape: %d/%d -> %d/%d",
				c.N, c.NumGates(), back.N, back.NumGates())
		}
		a := sim.MustNew(n)
		a.Run(c)
		b := sim.MustNew(n)
		b.Run(back)
		if f := sim.Fidelity(a, b); f < 1-1e-9 {
			t.Fatalf("round trip broke semantics: fidelity %v", f)
		}
	}
}

func randomCircuit(rng *rand.Rand, n, gates int) *circuit.Circuit {
	c := circuit.New(n)
	for i := 0; i < gates; i++ {
		switch rng.Intn(7) {
		case 0:
			c.H(rng.Intn(n))
		case 1:
			c.RZ(rng.Intn(n), rng.Float64()*6)
		case 2:
			c.RY(rng.Intn(n), rng.Float64()*6)
		case 3:
			c.Add1Q(circuit.OpT, rng.Intn(n), 0)
		case 4, 5:
			a := rng.Intn(n)
			b := rng.Intn(n - 1)
			if b >= a {
				b++
			}
			c.CX(a, b)
		case 6:
			a := rng.Intn(n)
			b := rng.Intn(n - 1)
			if b >= a {
				b++
			}
			c.ZZ(a, b, rng.Float64()*6)
		}
	}
	return c
}

// Property: every benchmark circuit in the suite serialises and re-parses
// with identical gate counts.
func TestBenchmarkSuiteRoundTrip(t *testing.T) {
	for _, b := range bench.Fig14Suite() {
		back, err := ParseString(String(b.Circ))
		if err != nil {
			t.Fatalf("%s: %v", b.Name, err)
		}
		if back.Num2Q() != b.Circ.Num2Q() || back.Num1Q() != b.Circ.Num1Q() {
			t.Errorf("%s: counts changed: %d/%d -> %d/%d", b.Name,
				b.Circ.Num2Q(), b.Circ.Num1Q(), back.Num2Q(), back.Num1Q())
		}
	}
}

// Property: round trip preserves shape for arbitrary random circuits.
func TestRoundTripProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		c := randomCircuit(rng, 2+rng.Intn(8), 1+rng.Intn(60))
		back, err := ParseString(String(c))
		if err != nil {
			return false
		}
		if back.N != c.N || back.NumGates() != c.NumGates() {
			return false
		}
		for i := range c.Gates {
			if back.Gates[i].Q0 != c.Gates[i].Q0 || back.Gates[i].Q1 != c.Gates[i].Q1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

// TestInverseGates pins sdg and tdg to S† and T†: each program below is the
// identity, so the dense simulator must leave |0⟩ with probability 1.
func TestInverseGates(t *testing.T) {
	for _, body := range []string{
		"h q[0]; s q[0]; sdg q[0]; h q[0];",
		"h q[0]; t q[0]; tdg q[0]; h q[0];",
		"h q[0]; sdg q[0]; s q[0]; h q[0];",
		"h q[0]; tdg q[0]; t q[0]; h q[0];",
	} {
		c, err := ParseString("OPENQASM 2.0;\nqreg q[1];\n" + body)
		if err != nil {
			t.Fatal(err)
		}
		st := sim.MustNew(1)
		st.Run(c)
		a := st.Amp[0]
		if p := real(a)*real(a) + imag(a)*imag(a); math.Abs(p-1) > 1e-12 {
			t.Errorf("%s: P(|0⟩) = %v, want 1", body, p)
		}
	}
}

// TestU3Exact pins u and u3 to U3(θ, φ, λ) up to global phase: each program
// below is the identity (u3(pi/2,0,pi) is H, and U3(θ, φ, λ)† is
// U3(-θ, -λ, -φ)), so the dense simulator must leave |0⟩ with probability 1.
func TestU3Exact(t *testing.T) {
	for _, body := range []string{
		"h q[0]; u3(pi/2,0,pi) q[0];",
		"u(pi/2, 0, pi) q[0]; h q[0];",
		"h q[0]; u3(1.2,0.5,2.1) q[0]; u3(-1.2,-2.1,-0.5) q[0]; h q[0];",
		"rx(0.7) q[0]; u(pi/3,-pi/4,0.9) q[0]; u(-pi/3,-0.9,pi/4) q[0]; rx(-0.7) q[0];",
	} {
		c, err := ParseString("OPENQASM 2.0;\nqreg q[1];\n" + body)
		if err != nil {
			t.Fatal(err)
		}
		st := sim.MustNew(1)
		st.Run(c)
		a := st.Amp[0]
		if p := real(a)*real(a) + imag(a)*imag(a); math.Abs(p-1) > 1e-12 {
			t.Errorf("%s: P(|0⟩) = %v, want 1", body, p)
		}
	}
}
