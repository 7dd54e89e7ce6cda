// Package fidelity implements the circuit-fidelity model of Sec. IV-V:
//
//	F = F1Q * F2Q * Ftransfer * Fmov
//	Fmov = Fmov_heating * Fmov_loss * Fmov_cooling * Fmov_deco
//
// The model consumes the aggregate execution trace a compiler produces
// (gate counts, two-qubit depth, per-gate n_vib, per-move n_vib, cooling
// events, per-stage active-qubit counts) and returns both the total fidelity
// and the per-source breakdown used for Fig 18's -log(F) error bars.
package fidelity

import (
	"math"

	"atomique/internal/hardware"
)

// Breakdown is the multiplicative fidelity decomposition. Every factor is in
// (0, 1]; Total multiplies them.
type Breakdown struct {
	OneQubit    float64 `json:"oneQubit"`    // f1Q^N1Q and 1Q-time decoherence
	TwoQubit    float64 `json:"twoQubit"`    // f2Q^N2Q and 2Q-time decoherence
	Transfer    float64 `json:"transfer"`    // SLM<->AOD transfer loss + time
	MoveHeating float64 `json:"moveHeating"` // heating-degraded 2Q gates
	MoveCooling float64 `json:"moveCooling"` // cooling-swap gate overhead
	MoveLoss    float64 `json:"moveLoss"`    // atom loss from accumulated n_vib
	MoveDeco    float64 `json:"moveDeco"`    // decoherence during movement stages
}

// Total returns the product of all factors.
func (b Breakdown) Total() float64 {
	return b.OneQubit * b.TwoQubit * b.Transfer *
		b.MoveHeating * b.MoveCooling * b.MoveLoss * b.MoveDeco
}

// NegLog returns -log10 of each factor in a fixed order matching Labels;
// this is the error-breakdown bar of Fig 18 (second row).
func (b Breakdown) NegLog() []float64 {
	vals := []float64{
		b.OneQubit, b.TwoQubit, b.MoveHeating,
		b.MoveCooling, b.MoveLoss, b.MoveDeco,
	}
	out := make([]float64, len(vals))
	for i, v := range vals {
		if v <= 0 {
			out[i] = math.Inf(1)
			continue
		}
		out[i] = -math.Log10(v)
	}
	return out
}

// Labels names the NegLog entries.
func Labels() []string {
	return []string{"1Q Gate", "2Q Gate", "Move Heating",
		"Move Cooling", "Move Atom Loss", "Move Decoherence"}
}

// Counts is the movement-independent part of an execution: qubit, gate and
// layer counts. The JSON names are the compile envelope's, which embeds
// Counts in its metrics record (internal/metrics.Compiled).
type Counts struct {
	NQubits   int `json:"nQubits"`
	N2Q       int `json:"n2Q"`       // two-qubit interactions executed (incl. SWAP decomposition)
	N1Q       int `json:"n1Q"`       // one-qubit gates executed
	Depth2Q   int `json:"depth2Q"`   // parallel 2Q layers (cumulative 2Q time = depth * t2Q)
	N1QLayers int `json:"n1QLayers"` // parallel 1Q layers (cumulative 1Q time = layers * t1Q)
}

// MovementTrace carries the movement-dependent quantities a RAA schedule
// accumulates. All slices may be empty (a static architecture).
type MovementTrace struct {
	// GateNvib holds, for each executed two-qubit gate, the effective n_vib
	// at execution time: the moved atom's n_vib for AOD-SLM pairs, the sum
	// for AOD-AOD pairs, zero for gates not involving a moved atom.
	GateNvib []float64
	// MoveNvib holds, for every (atom, movement) with nonzero distance, the
	// atom's cumulative n_vib immediately after that movement; atom loss is
	// evaluated per move as in Sec. IV.
	MoveNvib []float64
	// CoolingAtomCounts holds, per cooling event, the number of atoms in the
	// cooled AOD array (each costs two CZ gates to swap into the cold array).
	CoolingAtomCounts []int
	// StageQubits holds, per movement stage, the number of qubits in use
	// (N_i in the Fmov_deco formula).
	StageQubits []int
	// StageMoveTime holds, per movement stage, the movement duration T_mov,i.
	StageMoveTime []float64
	// Transfers counts atom transfers between static and moving traps.
	Transfers int
}

// Evaluate computes the full fidelity breakdown for an execution on hardware
// with parameters p. Pass a zero MovementTrace for fixed architectures.
func Evaluate(p hardware.Params, c Counts, m MovementTrace) Breakdown {
	n := float64(c.NQubits)
	b := Breakdown{
		OneQubit: math.Pow(p.Fidelity1Q, float64(c.N1Q)) *
			math.Exp(-float64(c.N1QLayers)*p.Time1Q/p.CoherenceT1*n),
		TwoQubit: math.Pow(p.Fidelity2Q, float64(c.N2Q)) *
			math.Exp(-float64(c.Depth2Q)*p.Time2Q/p.CoherenceT1*n),
		Transfer: math.Pow(1-p.TransferLossP, float64(m.Transfers)) *
			math.Exp(-float64(m.Transfers)*p.TransferTime/p.CoherenceT1*n),
		MoveHeating: 1,
		MoveCooling: 1,
		MoveLoss:    1,
		MoveDeco:    1,
	}

	// Heating: per 2Q gate, factor 1 - lambda*(1-f2Q)*n_vib.
	inf2q := 1 - p.Fidelity2Q
	for _, nv := range m.GateNvib {
		f := 1 - p.Lambda*inf2q*nv
		if f < 0 {
			f = 0
		}
		b.MoveHeating *= f
	}

	// Loss: per move, per moved atom.
	for _, nv := range m.MoveNvib {
		b.MoveLoss *= 1 - LossProbability(nv, p.NvibMax)
	}

	// Cooling: two CZ per atom in the cooled array.
	for _, atoms := range m.CoolingAtomCounts {
		b.MoveCooling *= math.Pow(p.Fidelity2Q, float64(2*atoms))
	}

	// Decoherence during movement.
	for i, nq := range m.StageQubits {
		t := p.TimePerMove
		if i < len(m.StageMoveTime) {
			t = m.StageMoveTime[i]
		}
		b.MoveDeco *= math.Exp(-float64(nq) * t / p.CoherenceT1)
	}
	return b
}

// LossProbability returns the per-move atom-loss probability for an atom at
// vibrational number nvib given ceiling nvibMax:
//
//	P = 1 - 1/2 * (1 + erf((nmax - nvib) / sqrt(2*nvib)))
//
// P(0) = 0 and P grows sharply as nvib approaches nmax (0.29 at nvib=30 with
// nmax=33, matching the paper's worked values).
func LossProbability(nvib, nvibMax float64) float64 {
	if nvib <= 0 {
		return 0
	}
	return 1 - 0.5*(1+math.Erf((nvibMax-nvib)/math.Sqrt(2*nvib)))
}
