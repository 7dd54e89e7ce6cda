package noise

import (
	"fmt"
	"sort"

	"atomique/internal/circuit"
	"atomique/internal/sim"
	"atomique/internal/stab"
)

// replayer is one engine's trajectory replay. prepare builds the run's
// reference replayer around the noise-free execution, shared read-only, and
// every worker forks a copy with private scratch. score returns an errored
// trajectory's overlap with the ideal output; measure draws the trajectory's
// computational-basis outcome from r into key, one '0'/'1' byte per slot.
type replayer interface {
	fork() replayer
	score(events []event) float64
	measure(events []event, r rng, key []byte)
}

// denseReplay replays trajectories on the dense state vector.
type denseReplay struct {
	gates   []circuit.Gate
	ideal   *sim.State   // noise-free output
	sampler *sim.Sampler // ideal's outcome CDF (sampling runs only)
	scratch *sim.State   // worker-private errored state
}

func newDenseReplay(w Witness, sampling bool) (*denseReplay, error) {
	st, err := sim.NewState(w.NSlots)
	if err != nil {
		return nil, fmt.Errorf("noise: %w", err)
	}
	for _, g := range w.Gates {
		st.Apply(g)
	}
	d := &denseReplay{gates: w.Gates, ideal: st}
	if sampling {
		d.sampler = sim.NewSampler(st)
	}
	return d, nil
}

func (d *denseReplay) fork() replayer {
	f := *d
	f.scratch = sim.MustNew(d.ideal.N)
	return &f
}

func (d *denseReplay) score(events []event) float64 {
	d.replay(events)
	return sim.Fidelity(d.scratch, d.ideal)
}

// measure samples the ideal CDF on error-free shots and the replayed errored
// state otherwise.
func (d *denseReplay) measure(events []event, r rng, key []byte) {
	var idx int
	if len(events) == 0 {
		idx = d.sampler.Draw(r.open01())
	} else {
		d.replay(events)
		idx = sim.SampleState(d.scratch, r.open01())
	}
	for q := range key {
		key[q] = '0' + byte(idx>>uint(q)&1)
	}
}

var pauliOps = [4]circuit.Op{0, circuit.OpX, circuit.OpY, circuit.OpZ}

// replay re-executes the witness with the shot's events injected (sorting
// them by pos first), leaving the errored final state in scratch.
func (d *denseReplay) replay(events []event) {
	sort.Slice(events, func(i, j int) bool { return events[i].pos < events[j].pos })
	st := d.scratch
	for i := range st.Amp {
		st.Amp[i] = 0
	}
	st.Amp[0] = 1
	ei := 0
	apply := func(pos int) {
		for ei < len(events) && events[ei].pos == pos {
			applyEvent(st, &events[ei])
			ei++
		}
	}
	apply(0)
	for gi, g := range d.gates {
		st.Apply(g)
		apply(gi + 1)
	}
}

func applyEvent(st *sim.State, e *event) {
	switch e.kind {
	case Pauli2Q:
		if p := e.pauli & 3; p != 0 {
			st.Apply(circuit.Gate{Op: pauliOps[p], Q0: e.q0, Q1: -1})
		}
		if p := e.pauli >> 2; p != 0 {
			st.Apply(circuit.Gate{Op: pauliOps[p], Q0: e.q1, Q1: -1})
		}
	default: // Pauli1Q, Dephase
		st.Apply(circuit.Gate{Op: pauliOps[e.pauli&3], Q0: e.q0, Q1: -1})
	}
}

// stabReplay replays Clifford trajectories as Pauli frames against the final
// stabilizer tableau.
type stabReplay struct {
	tab     *stab.Tableau // noise-free final state
	ct      *conjTable
	sampler *stab.Sampler // tab's outcome sampler (sampling runs only)
	frame   *stab.Frame   // worker-private
	out     []uint64      // worker-private qubit-packed outcome (sampling runs)
}

func newStabReplay(w Witness, sampling bool) (*stabReplay, error) {
	t, err := stab.New(w.NSlots)
	if err == nil {
		err = t.Run(w.Gates)
	}
	if err != nil {
		return nil, fmt.Errorf("noise: %w", err)
	}
	s := &stabReplay{tab: t, ct: newConjTable(w)}
	if sampling {
		if s.sampler, err = t.NewSampler(); err != nil {
			return nil, fmt.Errorf("noise: %w", err)
		}
	}
	return s, nil
}

func (s *stabReplay) fork() replayer {
	f := *s
	f.frame = s.tab.NewFrame()
	if s.sampler != nil {
		f.out = make([]uint64, len(f.frame.X))
	}
	return &f
}

// score syndrome-checks the shot's end-of-circuit Pauli frame against the
// final tableau's stabilizers: for a Clifford trajectory the overlap is
// exactly 1 when the accumulated error commutes with every stabilizer and 0
// otherwise.
func (s *stabReplay) score(events []event) float64 {
	if s.tab.Disturbs(s.accumulate(events)) {
		return 0
	}
	return 1
}

// measure draws from the ideal affine-subspace sampler and XORs in the
// shot's Pauli-frame X bits, since X^aZ^b|ψ⟩ has |⟨z|X^aZ^b|ψ⟩|² = |⟨z⊕a|ψ⟩|².
func (s *stabReplay) measure(events []event, r rng, key []byte) {
	s.sampler.Shot(s.out, r.next)
	if len(events) > 0 {
		f := s.accumulate(events)
		for w := range s.out {
			s.out[w] ^= f.X[w]
		}
	}
	for q := range key {
		key[q] = '0' + byte(s.out[q>>6]>>uint(q&63)&1)
	}
}

// accumulate rebuilds the shot's end-of-circuit Pauli frame from its events.
// Each event contributes its precomputed conjugation image (see conjTable),
// so this is O(events) — event order is irrelevant, XOR commutes.
func (s *stabReplay) accumulate(events []event) *stab.Frame {
	f := s.frame
	f.Reset()
	for i := range events {
		s.ct.accumulate(f, &events[i])
	}
	return f
}
