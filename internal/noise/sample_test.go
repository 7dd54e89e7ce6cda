package noise

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"reflect"
	"sort"
	"strings"
	"testing"

	"atomique/internal/circuit"
	"atomique/internal/sim"
)

// stabShotSim is a worker's shotSim with its stabilizer replayer exposed.
type stabShotSim struct {
	*shotSim
	*stabReplay
}

// buildStabShotSim wires a shotSim for a Clifford witness the way Simulate
// does, for tests that drive the per-shot machinery directly.
func buildStabShotSim(t *testing.T, mo Model, w Witness) *stabShotSim {
	t.Helper()
	p, err := prepare(context.Background(), mo, w, EngineStab, 1, 0, 1, false)
	if err != nil {
		t.Fatal(err)
	}
	sh := p.newShotSim()
	return &stabShotSim{shotSim: sh, stabReplay: sh.rep.(*stabReplay)}
}

// replayStabNaive is the pre-table reference implementation — the frame
// conjugated gate by gate through the witness suffix. Kept for the
// differential test pinning conjTable to it bit for bit.
func (s *stabShotSim) replayStabNaive() float64 {
	sort.Slice(s.events, func(i, j int) bool { return s.events[i].pos < s.events[j].pos })
	f := s.frame
	f.Reset()
	ei := 0
	// Gates before the first event act on an identity frame — skip them.
	for gi := s.events[0].pos; gi <= len(s.w.Gates); gi++ {
		for ei < len(s.events) && s.events[ei].pos == gi {
			s.injectEvent(&s.events[ei])
			ei++
		}
		if gi < len(s.w.Gates) {
			f.Conjugate(s.w.Gates[gi])
		}
	}
	if s.tab.Disturbs(f) {
		return 0
	}
	return 1
}

// injectEvent multiplies one sampled error into the Pauli frame.
func (s *stabShotSim) injectEvent(e *event) {
	inject := func(q, p int) {
		switch p {
		case 1:
			s.frame.InjectX(q)
		case 2:
			s.frame.InjectY(q)
		case 3:
			s.frame.InjectZ(q)
		}
	}
	switch e.kind {
	case Pauli2Q:
		inject(e.q0, e.pauli&3)
		inject(e.q1, e.pauli>>2)
	default: // Pauli1Q, Dephase
		inject(e.q0, e.pauli&3)
	}
}

// TestConjTableMatchesNaiveReplay pins the precomputed conjugation table to
// the pre-table reference (frame conjugated through the whole gate stream):
// identical scores and identical frame bits, shot for shot. The witness
// shapes exercise every accumulation path — gate-attached 1Q/2Q sites,
// free-floating dephase, and the no-sites fallbacks (a witness with no 1Q
// gates sends Pauli1Q events down the arbitrary-(pos,q) path, one with no 2Q
// gates does the same for Pauli2Q) — and the all-ops witnesses run every
// Clifford op at every quarter-turn angle through the table's fold.
func TestConjTableMatchesNaiveReplay(t *testing.T) {
	hot := Model{Channels: []Channel{
		{Label: "1q", Kind: Pauli1Q, Trials: 40, Prob: 0.05},
		{Label: "2q", Kind: Pauli2Q, Trials: 40, Prob: 0.05},
		{Label: "dephase", Kind: Dephase, Trials: 40, Prob: 0.05},
	}}
	witnesses := map[string]Witness{
		"mixed":     cliffordWitness(5, 12, 120),
		"mixed-w":   cliffordWitness(9, 65, 300),
		"all-ops":   allOpsWitness(3, 7, 200),
		"all-ops-w": allOpsWitness(4, 70, 300),
	}
	cxOnly := circuit.New(6)
	for i := 0; i < 30; i++ {
		cxOnly.CX(i%6, (i+1+i%5)%6)
	}
	witnesses["cx-only"] = Witness{NSlots: 6, Gates: cxOnly.Gates}
	hOnly := circuit.New(6)
	for i := 0; i < 24; i++ {
		hOnly.H(i % 6)
	}
	witnesses["h-only"] = Witness{NSlots: 6, Gates: hOnly.Gates}

	for name, w := range witnesses {
		sh := buildStabShotSim(t, hot, w)
		checked := 0
		for shot := int64(0); shot < 4000; shot++ {
			r := shotRNG(42, shot)
			sh.events = sh.events[:0]
			for ci := range hot.Channels {
				sh.sampleChannel(&r, &hot.Channels[ci])
			}
			if len(sh.events) == 0 {
				continue
			}
			checked++
			fast := sh.score(sh.events)
			fx := append([]uint64(nil), sh.frame.X...)
			fz := append([]uint64(nil), sh.frame.Z...)
			naive := sh.replayStabNaive()
			if fast != naive {
				t.Fatalf("%s shot %d: table score %v, naive score %v", name, shot, fast, naive)
			}
			if !reflect.DeepEqual(fx, sh.frame.X) || !reflect.DeepEqual(fz, sh.frame.Z) {
				t.Fatalf("%s shot %d: frames diverge\ntable X=%x Z=%x\nnaive X=%x Z=%x",
					name, shot, fx, fz, sh.frame.X, sh.frame.Z)
			}
		}
		if checked == 0 {
			t.Fatalf("%s: no errored shots exercised", name)
		}
	}
}

// idealProbs renders the dense output distribution of a witness with the
// same bitstring keys sampling uses (character i = slot i, slot 0 leftmost).
func idealProbs(t *testing.T, w Witness) map[string]float64 {
	t.Helper()
	st, err := sim.NewState(w.NSlots)
	if err != nil {
		t.Fatal(err)
	}
	for _, g := range w.Gates {
		st.Apply(g)
	}
	probs := make(map[string]float64)
	for i, a := range st.Amp {
		p := real(a)*real(a) + imag(a)*imag(a)
		if p < 1e-12 {
			continue
		}
		key := make([]byte, w.NSlots)
		for q := 0; q < w.NSlots; q++ {
			key[q] = '0' + byte(i>>uint(q)&1)
		}
		probs[string(key)] = p
	}
	return probs
}

// TestSampleHistogramChiSquare validates the noiseless sampling distribution
// against the exact dense amplitudes at 8 qubits on both engines: every
// sampled outcome must lie in the ideal support, and a Pearson chi-square
// over the support must sit within 5 sigma of its expectation.
func TestSampleHistogramChiSquare(t *testing.T) {
	w := cliffordWitness(17, 8, 60)
	probs := idealProbs(t, w)
	const shots = 40000
	for _, engine := range []string{EngineDense, EngineStab} {
		res, err := Sample(context.Background(), Model{}, w, SampleRun{
			Shots: shots, Seed: 23, Engine: engine,
		})
		if err != nil {
			t.Fatal(err)
		}
		if res.Engine != engine {
			t.Fatalf("engine recorded as %q, want %q", res.Engine, engine)
		}
		if res.Survived != shots || res.LostShots != 0 || res.ErrorShots != 0 {
			t.Fatalf("%s: noiseless run tallied %d/%d/%d", engine, res.Survived, res.LostShots, res.ErrorShots)
		}
		total := int64(0)
		for k, c := range res.Counts {
			if _, ok := probs[k]; !ok {
				t.Fatalf("%s: outcome %q sampled outside the ideal support", engine, k)
			}
			total += c
		}
		if total != shots {
			t.Fatalf("%s: histogram totals %d, want %d", engine, total, shots)
		}
		chi2 := 0.0
		for k, p := range probs {
			exp := p * shots
			diff := float64(res.Counts[k]) - exp
			chi2 += diff * diff / exp
		}
		dof := float64(len(probs) - 1)
		if limit := dof + 5*math.Sqrt(2*dof) + 1; chi2 > limit {
			t.Errorf("%s: chi-square %.1f exceeds %.1f (dof %.0f)", engine, chi2, limit, dof)
		}
	}
}

// noisySampleModel adds loss so the lost-shot path is exercised too.
func noisySampleModel() Model {
	return Model{Channels: []Channel{
		{Label: "1q-gate", Kind: Pauli1Q, Trials: 60, Prob: 2e-3},
		{Label: "2q-gate", Kind: Pauli2Q, Trials: 40, Prob: 8e-3},
		{Label: "decoherence", Kind: Dephase, Trials: 80, Prob: 1e-3},
		{Label: "transfer", Kind: Loss, Trials: 80, Prob: 5e-4},
	}}
}

// TestSampleShardMergeDeterminism is the acceptance bar: K disjoint
// shot-range requests, each at a different worker count, merge bit-for-bit
// into the single-request histogram — on both engines.
func TestSampleShardMergeDeterminism(t *testing.T) {
	w := cliffordWitness(21, 10, 80)
	mo := noisySampleModel()
	const shots = 4096
	shards := []struct {
		off     int64
		n       int
		workers int
	}{{0, 1000, 1}, {1000, 24, 3}, {1024, 1976, 8}, {3000, 1096, 2}}
	for _, engine := range []string{EngineDense, EngineStab} {
		full, err := Sample(context.Background(), mo, w, SampleRun{
			Shots: shots, Seed: 9, Engine: engine, Workers: 5,
		})
		if err != nil {
			t.Fatal(err)
		}
		single, err := Sample(context.Background(), mo, w, SampleRun{
			Shots: shots, Seed: 9, Engine: engine, Workers: 1,
		})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(full, single) {
			t.Fatalf("%s: worker count changed the result", engine)
		}
		var parts []*SampleResult
		for _, s := range shards {
			p, err := Sample(context.Background(), mo, w, SampleRun{
				Shots: s.n, Offset: s.off, Seed: 9, Engine: engine, Workers: s.workers,
			})
			if err != nil {
				t.Fatal(err)
			}
			parts = append(parts, p)
		}
		merged, err := MergeSamples(parts...)
		if err != nil {
			t.Fatal(err)
		}
		fullJS, _ := json.Marshal(full)
		mergedJS, _ := json.Marshal(merged)
		if string(fullJS) != string(mergedJS) {
			t.Fatalf("%s: merged shards differ from the full run\nfull:   %s\nmerged: %s", engine, fullJS, mergedJS)
		}
	}
}

// TestSampleMatchesSimulateTallies checks the event stream is byte-identical
// to Simulate's: same (seed, shots) must produce the same survived/lost/
// errored split, so an Estimate and a SampleResult of one job never disagree.
func TestSampleMatchesSimulateTallies(t *testing.T) {
	w := cliffordWitness(33, 9, 70)
	mo := noisySampleModel()
	const shots = 6000
	for _, engine := range []string{EngineDense, EngineStab} {
		est, err := Simulate(context.Background(), mo, w, Run{Shots: shots, Seed: 4, Engine: engine})
		if err != nil {
			t.Fatal(err)
		}
		res, err := Sample(context.Background(), mo, w, SampleRun{Shots: shots, Seed: 4, Engine: engine})
		if err != nil {
			t.Fatal(err)
		}
		if res.LostShots != est.LostShots || res.ErrorShots != est.ErrorShots ||
			res.Survived != shots-est.ErrorShots {
			t.Errorf("%s: sample tallies %d/%d/%d vs estimate %d/%d/%d", engine,
				res.Survived, res.LostShots, res.ErrorShots,
				shots-est.ErrorShots, est.LostShots, est.ErrorShots)
		}
	}
}

// TestSampleEmitStream checks streamed records arrive in global shot order,
// agree with the histogram, and that an emit error aborts the run.
func TestSampleEmitStream(t *testing.T) {
	w := cliffordWitness(11, 8, 50)
	mo := noisySampleModel()
	const shots = 700
	const offset = 512
	var got []ShotRecord
	res, err := Sample(context.Background(), mo, w, SampleRun{
		Shots: shots, Offset: offset, Seed: 2, Workers: 4,
		Emit: func(batch []ShotRecord) error {
			got = append(got, batch...)
			return nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != shots {
		t.Fatalf("streamed %d records, want %d", len(got), shots)
	}
	counts := make(map[string]int64)
	for i, rec := range got {
		if rec.Shot != offset+int64(i) {
			t.Fatalf("record %d carries shot %d, want %d", i, rec.Shot, offset+int64(i))
		}
		if rec.Lost != (rec.Bits == "") {
			t.Fatalf("record %d: lost=%v with bits %q", i, rec.Lost, rec.Bits)
		}
		if !rec.Lost {
			counts[rec.Bits]++
		}
	}
	if !reflect.DeepEqual(counts, res.Counts) {
		t.Fatalf("streamed histogram differs from the result histogram")
	}

	batches := 0
	_, err = Sample(context.Background(), mo, w, SampleRun{
		Shots: shots, Seed: 2, Workers: 4,
		Emit: func(batch []ShotRecord) error {
			batches++
			if batches == 2 {
				return fmt.Errorf("client went away")
			}
			return nil
		},
	})
	if err == nil || !strings.Contains(err.Error(), "stream aborted") {
		t.Fatalf("aborted stream returned %v, want a stream-aborted error", err)
	}
}

// TestMergeSamplesValidation rejects overlapping or mismatched shards.
func TestMergeSamplesValidation(t *testing.T) {
	a := &SampleResult{Shots: 100, Offset: 0, Seed: 1, Engine: EngineStab, NSlots: 4, Counts: map[string]int64{}}
	b := &SampleResult{Shots: 100, Offset: 50, Seed: 1, Engine: EngineStab, NSlots: 4, Counts: map[string]int64{}}
	if _, err := MergeSamples(a, b); err == nil {
		t.Fatal("overlapping shards merged without error")
	}
	c := &SampleResult{Shots: 100, Offset: 100, Seed: 1, Engine: EngineDense, NSlots: 4, Counts: map[string]int64{}}
	if _, err := MergeSamples(a, c); err == nil {
		t.Fatal("engine-mismatched shards merged without error")
	}
}

// TestIntnUnbiased sanity-checks the Lemire rejection sampler: exact range
// and a flat distribution.
func TestIntnUnbiased(t *testing.T) {
	r := rng{s: 0xfeedface}
	const n = 10
	const draws = 200000
	var buckets [n]int
	for i := 0; i < draws; i++ {
		v := r.intn(n)
		if v < 0 || v >= n {
			t.Fatalf("intn(%d) returned %d", n, v)
		}
		buckets[v]++
	}
	exp := float64(draws) / n
	for i, c := range buckets {
		if math.Abs(float64(c)-exp) > 6*math.Sqrt(exp) {
			t.Errorf("bucket %d holds %d draws, expected %.0f±%.0f", i, c, exp, 6*math.Sqrt(exp))
		}
	}
	for i := 0; i < 100; i++ {
		if v := r.intn(1); v != 0 {
			t.Fatalf("intn(1) returned %d", v)
		}
	}
}
