package noise

import (
	"context"
	"fmt"
	"sort"
)

// MaxSampleKeys caps the distinct bitstrings one sampling run will aggregate.
// Beyond it the histogram stops being a useful (or cacheable) summary — the
// run fails with advice to narrow the shot range or stream per-shot records.
const MaxSampleKeys = 1 << 16

// MaxShotIndex bounds Offset+Shots: global shot indices stay well inside the
// int64 range the per-shot RNG derivation mixes over.
const MaxShotIndex = int64(1) << 40

// ShotRecord is one shot's outcome in a streamed sample. Bits is the
// measurement bitstring — character i is slot i's outcome, slot 0 leftmost —
// and is empty for shots destroyed by atom loss.
type ShotRecord struct {
	Shot int64  `json:"shot"`
	Bits string `json:"bits,omitempty"`
	Lost bool   `json:"lost,omitempty"`
}

// SampleRun configures one sampling run — a trajectory run that keeps the
// measured bitstrings instead of discarding them.
type SampleRun struct {
	// Shots is the trajectory count of this request (required, > 0).
	Shots int
	// Offset is the global index of the first shot. Shot i of this run draws
	// from the RNG stream of global shot Offset+i, so disjoint shot ranges of
	// the same seed tile into exactly the histogram a single full-range run
	// produces — sampling jobs shard across workers and resume across
	// requests.
	Offset int64
	// Seed drives every random draw, exactly as in Run.
	Seed int64
	// Workers is the parallel shot-executor count (0 = GOMAXPROCS).
	Workers int
	// Engine selects the replay engine, as in Run.
	Engine string
	// Emit, when non-nil, receives every shot outcome in global shot order,
	// batched by chunk. An error return aborts the run. Emit is called from
	// the Sample goroutine, never concurrently.
	Emit func(batch []ShotRecord) error
}

// SampleResult is the aggregated outcome of a sampling run. Like Estimate it
// is deterministic per (model, witness, seed, shot range, engine) regardless
// of worker count, which is what makes shard results cacheable and mergeable.
type SampleResult struct {
	Shots  int    `json:"shots"`
	Offset int64  `json:"offset"`
	Seed   int64  `json:"seed"`
	Engine string `json:"engine"`
	NSlots int    `json:"nSlots"`
	// Counts is the histogram: bitstring (character i = slot i's outcome,
	// slot 0 leftmost) → occurrences. Lost shots carry no bitstring, so the
	// counts total Shots - LostShots.
	Counts   map[string]int64 `json:"counts"`
	Distinct int              `json:"distinct"`
	// Survived/LostShots/ErrorShots tally exactly as in Estimate: the event
	// stream per shot is identical to Simulate's, sampling draws append
	// after it.
	Survived   int `json:"survived"`
	LostShots  int `json:"lostShots"`
	ErrorShots int `json:"errorShots"`
}

// samplePartial is one chunk's outcome buffer.
type samplePartial struct {
	counts                  map[string]*int64
	records                 []ShotRecord
	survived, lost, errored int
}

// Sample runs the Monte-Carlo sampling trajectories: Shots independent
// replays of the witness under the model's sampled error events, each
// measured in the computational basis.
//
// Per shot, the event stream is drawn exactly as Simulate draws it (the
// measurement draws append after it), so Survived/LostShots/ErrorShots agree
// with the Estimate of the same (seed, range). Error-free shots sample the
// ideal output directly — a CDF binary search on the dense engine, an
// affine-subspace draw (stab.Sampler) on the stabilizer engine. Errored
// dense shots replay and sample the errored state; errored stab shots XOR
// the shot's Pauli-frame X bits into the ideal draw. Lost shots produce no
// bitstring.
func Sample(ctx context.Context, mo Model, w Witness, run SampleRun) (*SampleResult, error) {
	p, err := prepare(ctx, mo, w, run.Engine, run.Shots, run.Offset, run.Workers, true)
	if err != nil {
		return nil, err
	}
	partials := make([]samplePartial, p.chunks())
	var flush func(c int) error
	if run.Emit != nil {
		flush = func(c int) error {
			err := run.Emit(partials[c].records)
			partials[c].records = nil
			return err
		}
	}
	err = p.drive(ctx, func(sh *shotSim, c, lo, hi int) {
		sp := &partials[c]
		sp.counts = make(map[string]*int64)
		for shot := lo; shot < hi; shot++ {
			g := run.Offset + int64(shot)
			lost, errored := sh.runSample(run.Seed, g)
			switch {
			case lost:
				sp.lost++
				sp.errored++
			case errored:
				sp.errored++
			default:
				sp.survived++
			}
			var bitsStr string
			if !lost {
				// Alloc-free lookup on the hot path; the key string
				// materialises once per distinct outcome.
				if n, ok := sp.counts[string(sh.keyBuf)]; ok {
					*n++
				} else {
					bitsStr = string(sh.keyBuf)
					one := int64(1)
					sp.counts[bitsStr] = &one
				}
			}
			if run.Emit != nil {
				if bitsStr == "" && !lost {
					bitsStr = string(sh.keyBuf)
				}
				sp.records = append(sp.records, ShotRecord{Shot: g, Bits: bitsStr, Lost: lost})
			}
		}
	}, flush)
	if err != nil {
		return nil, err
	}

	// Deterministic reduction in chunk order (map content is order-free, the
	// tallies reduce like Simulate's).
	res := &SampleResult{
		Shots:  run.Shots,
		Offset: run.Offset,
		Seed:   run.Seed,
		Engine: p.engine,
		NSlots: w.NSlots,
		Counts: make(map[string]int64),
	}
	for i := range partials {
		sp := &partials[i]
		res.Survived += sp.survived
		res.LostShots += sp.lost
		res.ErrorShots += sp.errored
		for k, v := range sp.counts {
			res.Counts[k] += *v
		}
		if len(res.Counts) > MaxSampleKeys {
			return nil, fmt.Errorf("noise: histogram exceeds %d distinct outcomes; narrow the shot range or stream per-shot records", MaxSampleKeys)
		}
	}
	res.Distinct = len(res.Counts)
	return res, nil
}

// runSample executes one trajectory and, unless an atom-loss event destroyed
// the register, leaves its measured bitstring in s.keyBuf.
func (s *shotSim) runSample(seed, shot int64) (lost, errored bool) {
	r, lost := s.draw(seed, shot, nil)
	if !lost {
		s.rep.measure(s.events, r, s.keyBuf)
	}
	return lost, lost || len(s.events) > 0
}

// MergeSamples combines shard results from disjoint shot ranges of the same
// sampling job. When the shards tile a contiguous range, the merged histogram
// is bit-for-bit the single-request histogram over that range — per-shot RNG
// streams depend only on (seed, global shot index).
func MergeSamples(parts ...*SampleResult) (*SampleResult, error) {
	if len(parts) == 0 {
		return nil, fmt.Errorf("noise: nothing to merge")
	}
	sorted := make([]*SampleResult, len(parts))
	copy(sorted, parts)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Offset < sorted[j].Offset })
	first := sorted[0]
	out := &SampleResult{
		Offset: first.Offset,
		Seed:   first.Seed,
		Engine: first.Engine,
		NSlots: first.NSlots,
		Counts: make(map[string]int64),
	}
	prevEnd := first.Offset
	for _, p := range sorted {
		if p.Seed != first.Seed || p.Engine != first.Engine || p.NSlots != first.NSlots {
			return nil, fmt.Errorf("noise: shards disagree on (seed, engine, slots): (%d,%s,%d) vs (%d,%s,%d)",
				first.Seed, first.Engine, first.NSlots, p.Seed, p.Engine, p.NSlots)
		}
		if p.Offset < prevEnd {
			return nil, fmt.Errorf("noise: shard ranges overlap at shot %d", p.Offset)
		}
		prevEnd = p.Offset + int64(p.Shots)
		out.Shots += p.Shots
		out.Survived += p.Survived
		out.LostShots += p.LostShots
		out.ErrorShots += p.ErrorShots
		for k, v := range p.Counts {
			out.Counts[k] += v
		}
		if len(out.Counts) > MaxSampleKeys {
			return nil, fmt.Errorf("noise: merged histogram exceeds %d distinct outcomes", MaxSampleKeys)
		}
	}
	out.Distinct = len(out.Counts)
	return out, nil
}
