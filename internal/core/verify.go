package core

import (
	"fmt"
	"sort"

	"atomique/internal/pipeline"
)

// VerifySchedule checks the structural invariants of a compiled result
// against the hardware constraints the router enforces:
//
//   - every stage's two-qubit gates are pairwise qubit-disjoint,
//   - every two-qubit gate is cross-array (no intra-array interaction),
//   - within each stage and array, moved rows (and columns) keep strictly
//     increasing targets in index order — constraints 2 and 3 — unless the
//     corresponding relaxation was enabled,
//   - executed gate counts match the metrics.
//
// It returns the first violation found, or nil. Compile always produces
// schedules that verify; the function exists so downstream users mutating or
// replaying schedules can check their own.
func VerifySchedule(res *Result, opts Options) error {
	total2Q, total1Q := 0, 0
	for si, stage := range res.Schedule.Stages {
		used := map[int]bool{}
		for _, g := range stage.Gates {
			total2Q++
			if used[g.SlotA] || used[g.SlotB] {
				return fmt.Errorf("stage %d: slot reused within stage", si)
			}
			used[g.SlotA], used[g.SlotB] = true, true
			if g.SlotA == g.SlotB {
				return fmt.Errorf("stage %d: gate on identical slots", si)
			}
			aa := res.SiteOf[g.SlotA].Array
			ab := res.SiteOf[g.SlotB].Array
			if aa == ab {
				return fmt.Errorf("stage %d: intra-array gate (array %d)", si, aa)
			}
		}
		total1Q += len(stage.OneQ)
		if err := verifyMoves(stage, si, opts); err != nil {
			return err
		}
	}
	if total2Q != res.Metrics.N2Q {
		return fmt.Errorf("executed 2Q %d != metrics %d", total2Q, res.Metrics.N2Q)
	}
	if total1Q != res.Metrics.N1Q {
		return fmt.Errorf("executed 1Q %d != metrics %d", total1Q, res.Metrics.N1Q)
	}
	return nil
}

func verifyMoves(stage pipeline.Stage, si int, opts Options) error {
	type axis struct {
		array int
		isRow bool
	}
	byAxis := map[axis]map[int]float64{}
	for _, m := range stage.Moves {
		k := axis{m.Array, m.IsRow}
		if byAxis[k] == nil {
			byAxis[k] = map[int]float64{}
		}
		if prev, ok := byAxis[k][m.Index]; ok && prev != m.To {
			return fmt.Errorf("stage %d: array %d %s %d bound to two targets",
				si, m.Array, axisName(m.IsRow), m.Index)
		}
		byAxis[k][m.Index] = m.To
	}
	for k, targets := range byAxis {
		idxs := make([]int, 0, len(targets))
		for i := range targets {
			idxs = append(idxs, i)
		}
		sort.Ints(idxs)
		for i := 1; i < len(idxs); i++ {
			prev, cur := targets[idxs[i-1]], targets[idxs[i]]
			if prev == cur && !opts.RelaxOverlap {
				return fmt.Errorf("stage %d: array %d %ss %d and %d overlap",
					si, k.array, axisName(k.isRow), idxs[i-1], idxs[i])
			}
			if prev > cur && !opts.RelaxOrder {
				return fmt.Errorf("stage %d: array %d %s order violated (%d > %d)",
					si, k.array, axisName(k.isRow), idxs[i-1], idxs[i])
			}
		}
	}
	return nil
}

func axisName(isRow bool) string {
	if isRow {
		return "row"
	}
	return "col"
}
