package solverref

import (
	"math"
	"math/rand"
	"sort"
	"time"

	"atomique/internal/circuit"
	"atomique/internal/fidelity"
	"atomique/internal/hardware"
	"atomique/internal/move"
	"atomique/internal/pipeline"
)

// placement assigns SLM slots to grid cells in broken-diagonal order and
// aligns each AOD slot with its most frequent partner's cell.
func placement(routed *circuit.Circuit, sizes []int, size int) (row, col []int) {
	n := sizes[0] + sizes[1]
	row = make([]int, n)
	col = make([]int, n)
	cellOf := func(i int) (int, int) {
		band, r := i/size, i%size
		return r, (r + band) % size
	}
	for i := 0; i < sizes[0]; i++ {
		row[i], col[i] = cellOf(i)
	}
	// AOD alignment: strongest partner wins the shared cell; conflicts fall
	// back to the next free diagonal cell.
	weights := routed.InteractionWeights()
	type pw struct {
		aod, slm, w int
	}
	var pairs []pw
	for p, w := range weights {
		a, b := p[0], p[1]
		if (a < sizes[0]) == (b < sizes[0]) {
			continue // same array
		}
		if a < sizes[0] {
			a, b = b, a
		}
		pairs = append(pairs, pw{aod: a, slm: b, w: w})
	}
	sort.Slice(pairs, func(i, j int) bool {
		if pairs[i].w != pairs[j].w {
			return pairs[i].w > pairs[j].w
		}
		if pairs[i].aod != pairs[j].aod {
			return pairs[i].aod < pairs[j].aod
		}
		return pairs[i].slm < pairs[j].slm
	})
	taken := map[[2]int]bool{}
	placed := make([]bool, n)
	for _, p := range pairs {
		if placed[p.aod] {
			continue
		}
		cell := [2]int{row[p.slm], col[p.slm]}
		if !taken[cell] {
			row[p.aod], col[p.aod] = cell[0], cell[1]
			taken[cell] = true
			placed[p.aod] = true
		}
	}
	nextFree := 0
	for s := sizes[0]; s < n; s++ {
		if placed[s] {
			continue
		}
		for ; ; nextFree++ {
			r, c := cellOf(nextFree)
			if !taken[[2]int{r, c}] {
				row[s], col[s] = r, c
				taken[[2]int{r, c}] = true
				placed[s] = true
				nextFree++
				break
			}
		}
	}
	return row, col
}

// schedule runs the stage scheduler. Solver mode packs each stage with an
// exact maximum compatible subset (exponential branch-and-bound) and spends
// the remaining budget on randomised restarts, keeping the best schedule —
// an anytime-optimal loop standing in for the SMT solver. IterP packs
// greedily in frontier order. The stats' Stages is the two-qubit depth.
func schedule(routed *circuit.Circuit, sizes []int, opts Options,
	deadline time.Time) (fidelity.MovementTrace, pipeline.RouterStats, bool) {

	rowOf, colOf := placement(routed, sizes, opts.ArraySize)
	params := hardware.NeutralAtom()

	type outcome struct {
		trace fidelity.MovementTrace
		stats pipeline.RouterStats
	}
	run := func(rng *rand.Rand) (outcome, bool) {
		sim := &simulator{
			routed: routed, sizes: sizes, rowOf: rowOf, colOf: colOf,
			params: params, exact: opts.Mode == Solver,
			deadline: deadline, rng: rng,
		}
		trace, stats, timedOut := sim.run()
		return outcome{trace, stats}, timedOut
	}

	// First pass is deterministic (program order); Solver mode then spends
	// its remaining budget on randomised restarts.
	best, timedOut := run(nil)
	if timedOut {
		return fidelity.MovementTrace{}, pipeline.RouterStats{}, true
	}
	if opts.Mode == Solver {
		// Consume the remaining budget like an anytime SMT optimiser: keep
		// exploring randomised schedules until the deadline, retaining the
		// best. This is what makes Solver-mode compile times track the
		// budget (Fig 14's 1000x gap) rather than the circuit size alone.
		rng := rand.New(rand.NewSource(opts.Seed))
		for time.Now().Before(deadline) {
			cand, to := run(rng)
			if to {
				break
			}
			if cand.stats.Stages < best.stats.Stages {
				best = cand
			}
		}
	}
	return best.trace, best.stats, false
}

// simulator executes one scheduling pass over the frontier.
type simulator struct {
	routed   *circuit.Circuit
	sizes    []int
	rowOf    []int
	colOf    []int
	params   hardware.Params
	exact    bool
	deadline time.Time
	rng      *rand.Rand

	trace fidelity.MovementTrace
	stats pipeline.RouterStats
	nvib  []float64
	// AOD row/column positions in grid units (parked half a pitch off).
	rowPos []float64
	colPos []float64
}

func (s *simulator) isAOD(slot int) bool { return slot >= s.sizes[0] }

func (s *simulator) run() (fidelity.MovementTrace, pipeline.RouterStats, bool) {
	n := s.sizes[0] + s.sizes[1]
	s.nvib = make([]float64, n)
	size := 0
	for _, r := range s.rowOf {
		if r+1 > size {
			size = r + 1
		}
	}
	s.rowPos = make([]float64, size+1)
	s.colPos = make([]float64, size+1)
	for i := range s.rowPos {
		s.rowPos[i] = float64(i) + 0.5
		s.colPos[i] = float64(i) + 0.5
	}

	front := circuit.NewFrontier(circuit.NewDAG(s.routed))
	for !front.Done() {
		if time.Now().After(s.deadline) {
			return fidelity.MovementTrace{}, pipeline.RouterStats{}, true
		}
		s.stats.AddOneQLayers(front.DrainOneQubit(nil), s.params.Time1Q)
		if front.Done() {
			break
		}
		var cand []int
		for _, gi := range front.Front() {
			if front.Gate(gi).IsTwoQubit() {
				cand = append(cand, gi)
			}
		}
		if s.rng != nil && len(cand) > 1 {
			s.rng.Shuffle(len(cand), func(i, j int) { cand[i], cand[j] = cand[j], cand[i] })
		}
		var stage []int
		if s.exact {
			stage = s.maxCompatible(cand, front)
		} else {
			stage = s.greedyCompatible(cand, front)
		}
		if len(stage) == 0 {
			panic("solverref: no schedulable gate (intra-array pair?)")
		}
		s.executeStage(stage, front)
	}
	return s.trace, s.stats, false
}

// gateBinding returns the AOD slot and its (targetRow, targetCol) for a
// cross-array gate.
func (s *simulator) gateBinding(g circuit.Gate) (aod int, tr, tc int) {
	a, b := g.Q0, g.Q1
	if s.isAOD(a) {
		return a, s.rowOf[b], s.colOf[b]
	}
	return b, s.rowOf[a], s.colOf[a]
}

// compatible checks whether the gate set (indices into the routed circuit)
// satisfies the single-AOD legality rules: functional row/column bindings,
// strictly increasing row and column order, and no unintended landings on
// occupied SLM cells.
func (s *simulator) compatible(gates []int, front *circuit.Frontier) bool {
	rowT := map[int]int{}
	colT := map[int]int{}
	inSet := map[[2]int]bool{}
	for _, gi := range gates {
		g := front.Gate(gi)
		aod, tr, tc := s.gateBinding(g)
		r, c := s.rowOf[aod], s.colOf[aod]
		if t, ok := rowT[r]; ok && t != tr {
			return false
		}
		if t, ok := colT[c]; ok && t != tc {
			return false
		}
		rowT[r] = tr
		colT[c] = tc
		inSet[cellKey(tr, tc)] = true
	}
	if !increasing(rowT) || !increasing(colT) {
		return false
	}
	// Unintended landings: an AOD atom at (r,c) with both axes bound lands
	// on cell (rowT[r], colT[c]); if an SLM atom occupies that cell the pair
	// must be one of the scheduled gates.
	slmAt := s.slmCells()
	aodAt := map[[2]int]int{}
	for slot := s.sizes[0]; slot < s.sizes[0]+s.sizes[1]; slot++ {
		aodAt[[2]int{s.rowOf[slot], s.colOf[slot]}] = slot
	}
	for r, tr := range rowT {
		for c, tc := range colT {
			if _, atomHere := aodAt[[2]int{r, c}]; !atomHere {
				continue
			}
			if _, occupied := slmAt[[2]int{tr, tc}]; !occupied {
				continue
			}
			if !inSet[cellKey(tr, tc)] {
				return false
			}
		}
	}
	return true
}

func (s *simulator) slmCells() map[[2]int]int {
	m := make(map[[2]int]int, s.sizes[0])
	for slot := 0; slot < s.sizes[0]; slot++ {
		m[[2]int{s.rowOf[slot], s.colOf[slot]}] = slot
	}
	return m
}

func cellKey(r, c int) [2]int { return [2]int{r, c} }

func increasing(binds map[int]int) bool {
	idxs := make([]int, 0, len(binds))
	for i := range binds {
		idxs = append(idxs, i)
	}
	sort.Ints(idxs)
	for i := 1; i < len(idxs); i++ {
		if binds[idxs[i]] <= binds[idxs[i-1]] {
			return false
		}
	}
	return true
}

// greedyCompatible packs gates first-fit (the iterative-peeling heuristic).
func (s *simulator) greedyCompatible(cand []int, front *circuit.Frontier) []int {
	var stage []int
	for _, gi := range cand {
		trial := append(append([]int(nil), stage...), gi)
		if s.compatible(trial, front) {
			stage = trial
		}
	}
	return stage
}

// maxCompatible finds a maximum compatible subset by include/exclude
// branch-and-bound — exponential in the frontier size, as an exact solver is.
func (s *simulator) maxCompatible(cand []int, front *circuit.Frontier) []int {
	best := s.greedyCompatible(cand, front)
	var cur []int
	nodes := 0
	var dfs func(pos int) bool
	dfs = func(pos int) bool {
		nodes++
		if nodes%2048 == 0 && time.Now().After(s.deadline) {
			return true
		}
		if len(cur)+len(cand)-pos <= len(best) {
			return false // cannot beat the incumbent
		}
		if pos == len(cand) {
			if len(cur) > len(best) {
				best = append([]int(nil), cur...)
			}
			return false
		}
		// Include.
		cur = append(cur, cand[pos])
		if s.compatible(cur, front) {
			if dfs(pos + 1) {
				return true
			}
		}
		cur = cur[:len(cur)-1]
		// Exclude.
		return dfs(pos + 1)
	}
	dfs(0)
	return best
}

// executeStage applies movement, heating, cooling, and retires the gates.
func (s *simulator) executeStage(stage []int, front *circuit.Frontier) {
	pitch := s.params.AtomDistance
	rowD := map[int]float64{}
	colD := map[int]float64{}
	for _, gi := range stage {
		g := front.Gate(gi)
		aod, tr, tc := s.gateBinding(g)
		r, c := s.rowOf[aod], s.colOf[aod]
		if _, ok := rowD[r]; !ok {
			d := math.Abs(float64(tr)-s.rowPos[r]) + 0.5 // travel + retreat
			rowD[r] = d
			s.rowPos[r] = float64(tr) + 0.5
		}
		if _, ok := colD[c]; !ok {
			d := math.Abs(float64(tc)-s.colPos[c]) + 0.5
			colD[c] = d
			s.colPos[c] = float64(tc) + 0.5
		}
	}
	for slot := s.sizes[0]; slot < s.sizes[0]+s.sizes[1]; slot++ {
		dr, dc := rowD[s.rowOf[slot]], colD[s.colOf[slot]]
		d := math.Hypot(dr, dc) * pitch
		if d > 0 {
			s.nvib[slot] += move.DeltaNvib(d, s.params.TimePerMove, s.params)
			s.trace.MoveNvib = append(s.trace.MoveNvib, s.nvib[slot])
			s.stats.TotalDist += d
		}
	}
	for _, gi := range stage {
		g := front.Gate(gi)
		aod, _, _ := s.gateBinding(g)
		s.trace.GateNvib = append(s.trace.GateNvib, s.nvib[aod])
		front.Execute(gi)
	}
	s.trace.StageQubits = append(s.trace.StageQubits, s.sizes[0]+s.sizes[1])
	s.trace.StageMoveTime = append(s.trace.StageMoveTime, s.params.TimePerMove)
	s.stats.ExecTime += s.params.TimePerMove + s.params.Time2Q
	s.stats.Stages++

	hot := false
	for slot := s.sizes[0]; slot < s.sizes[0]+s.sizes[1]; slot++ {
		if s.nvib[slot] > s.params.NvibCool {
			hot = true
			break
		}
	}
	if hot {
		s.trace.CoolingAtomCounts = append(s.trace.CoolingAtomCounts, s.sizes[1])
		for slot := s.sizes[0]; slot < s.sizes[0]+s.sizes[1]; slot++ {
			s.nvib[slot] = 0
		}
		s.stats.Coolings++
		s.stats.ExecTime += 2 * s.params.Time2Q
	}
}
