package stab

import (
	"math"
	"math/rand"
	"testing"

	"atomique/internal/sim"
)

// TestSamplerVsDense validates the affine-subspace sampler against the dense
// simulator on random Clifford circuits: the support size must be 2^FreeBits,
// every draw must land inside the dense support, and the draws must be
// uniform over it (a stabilizer state's Z-basis distribution is always flat
// on its support).
func TestSamplerVsDense(t *testing.T) {
	rng := rand.New(rand.NewSource(67))
	for trial := 0; trial < 25; trial++ {
		n := 2 + rng.Intn(7)
		c := randomClifford(rng, n, 12+rng.Intn(60))
		tb := mustNew(t, n)
		mustRun(t, tb, c)
		sp, err := tb.NewSampler()
		if err != nil {
			t.Fatal(err)
		}

		st := sim.MustNew(n)
		st.Run(c)
		support := make(map[int]float64)
		for i, a := range st.Amp {
			if p := real(a)*real(a) + imag(a)*imag(a); p > 1e-12 {
				support[i] = p
			}
		}
		if want := 1 << uint(sp.FreeBits()); len(support) != want {
			t.Fatalf("trial %d (n=%d): support %d outcomes, FreeBits says %d", trial, n, len(support), want)
		}

		const draws = 6000
		counts := make(map[int]int)
		coin := rand.New(rand.NewSource(int64(trial) + 1))
		buf := make([]uint64, (n+63)/64)
		for d := 0; d < draws; d++ {
			sp.Shot(buf, coin.Uint64)
			idx := int(buf[0]) & (1<<uint(n) - 1)
			if _, ok := support[idx]; !ok {
				t.Fatalf("trial %d: sampled %0*b outside the dense support", trial, n, idx)
			}
			counts[idx]++
		}
		// Uniformity: chi-square against the flat distribution.
		if len(support) > 1 {
			exp := float64(draws) / float64(len(support))
			chi2 := 0.0
			for idx := range support {
				diff := float64(counts[idx]) - exp
				chi2 += diff * diff / exp
			}
			dof := float64(len(support) - 1)
			if limit := dof + 5*math.Sqrt(2*dof) + 1; chi2 > limit {
				t.Errorf("trial %d: chi-square %.1f exceeds %.1f (dof %.0f)", trial, chi2, limit, dof)
			}
		}
	}
}

// TestSamplerDeterministicState: a computational-basis state has no free
// bits; every draw is the same outcome and consumes no randomness.
func TestSamplerDeterministicState(t *testing.T) {
	tb := mustNew(t, 5)
	// |01100⟩ via X gates (slot order: qubit index).
	tb.xGate(1)
	tb.xGate(2)
	sp, err := tb.NewSampler()
	if err != nil {
		t.Fatal(err)
	}
	if sp.FreeBits() != 0 {
		t.Fatalf("basis state has %d free bits", sp.FreeBits())
	}
	buf := make([]uint64, 1)
	sp.Shot(buf, func() uint64 {
		t.Fatal("deterministic draw consumed randomness")
		return 0
	})
	if buf[0] != 0b00110 {
		t.Fatalf("sampled %05b, want 00110", buf[0])
	}
}

// gExp returns the exponent of i in W(x1,z1)·W(x2,z2) = i^g · W(x1^x2, z1^z2)
// — the Aaronson–Gottesman phase function on one qubit, with (x1,z1) the
// operator multiplied in from the left. It is the scalar reference the
// word-wide mulPauliRow is checked against.
func gExp(x1, z1, x2, z2 uint64) int {
	switch {
	case x1 == 1 && z1 == 1: // Y·
		return int(z2) - int(x2)
	case x1 == 1: // X·
		if z2 == 1 {
			return 2*int(x2) - 1
		}
		return 0
	case z1 == 1: // Z·
		if x2 == 1 {
			return 1 - 2*int(z2)
		}
		return 0
	default:
		return 0
	}
}

// TestMulPauliRowMatchesScalar pins the word-wide row product to the
// qubit-by-qubit gExp fold on random Pauli pairs: same product bits and the
// same unnormalised i-exponent.
func TestMulPauliRowMatchesScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 300; trial++ {
		nw := 1 + rng.Intn(3)
		x1, z1 := make([]uint64, nw), make([]uint64, nw)
		x2, z2 := make([]uint64, nw), make([]uint64, nw)
		for w := 0; w < nw; w++ {
			x1[w], z1[w], x2[w], z2[w] = rng.Uint64(), rng.Uint64(), rng.Uint64(), rng.Uint64()
		}
		ph1, ph2 := 2*rng.Intn(2), 2*rng.Intn(2)
		want := ph1 + ph2
		wx, wz := make([]uint64, nw), make([]uint64, nw)
		for q := 0; q < 64*nw; q++ {
			a, b := x1[q>>6]>>uint(q&63)&1, z1[q>>6]>>uint(q&63)&1
			c, d := x2[q>>6]>>uint(q&63)&1, z2[q>>6]>>uint(q&63)&1
			want += gExp(a, b, c, d)
			wx[q>>6] |= (a ^ c) << uint(q&63)
			wz[q>>6] |= (b ^ d) << uint(q&63)
		}
		if got := mulPauliRow(x1, z1, x2, z2, ph1, ph2); got != want {
			t.Fatalf("trial %d: phase %d, scalar fold %d", trial, got, want)
		}
		for w := 0; w < nw; w++ {
			if x2[w] != wx[w] || z2[w] != wz[w] {
				t.Fatalf("trial %d: product bits differ in word %d", trial, w)
			}
		}
	}
}
