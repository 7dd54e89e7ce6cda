package core

import (
	"context"
	"fmt"
	"math"

	"atomique/internal/circuit"
	"atomique/internal/fidelity"
	"atomique/internal/hardware"
	"atomique/internal/move"
	"atomique/internal/pipeline"
)

// route is the high-parallelism AOD router (Fig 8). It iterates over the
// dependency frontier of the transpiled circuit: one-qubit gates execute
// immediately under the Raman laser; two-qubit gates are greedily batched
// into the largest stage satisfying the three hardware constraints
// (Figs 9-11), after which the AOD rows/columns move and the global Rydberg
// pulse fires. Heating (n_vib), cooling swaps, movement distance, and
// execution time are tracked throughout.
//
// Movement model: parked AOD rows/columns always rest at interstitial
// coordinates (grid target plus the array's park offset), so idle atoms
// never sit within the Rydberg range of a grid site. A row/column that moves
// travels to its grid-aligned target and retreats to the interstitial park
// position afterwards; both legs count toward distance and heating. For
// AOD-AOD gates the lower-indexed array stays pinned at its (interstitial)
// position and the other array meets it there. Constraint checks operate on
// actively bound rows/columns, matching the abstraction level of Figs 9-11.
func route(ctx context.Context, cfg hardware.Config, routed *circuit.Circuit, siteOf []hardware.Site,
	sizes []int, opts Options) (*pipeline.Schedule, fidelity.MovementTrace, pipeline.RouterStats, error) {

	st := newRouterState(cfg, siteOf, opts)
	front := circuit.NewFrontier(circuit.NewDAG(routed))
	sched := &pipeline.Schedule{}
	var trace fidelity.MovementTrace
	var stats pipeline.RouterStats

	for !front.Done() {
		// Cancellation hook: one check per stage keeps the overhead
		// negligible while bounding abort latency to a single stage.
		if err := ctx.Err(); err != nil {
			return nil, fidelity.MovementTrace{}, pipeline.RouterStats{}, fmt.Errorf("core: compilation cancelled: %w", err)
		}
		stage := pipeline.Stage{}

		// Phase 1: drain one-qubit gates layer by layer (each layer is one
		// parallel Raman pulse).
		stats.AddOneQLayers(front.DrainOneQubit(func(g circuit.Gate) {
			stage.OneQ = append(stage.OneQ, pipeline.GateExec{Op: g.Op, SlotA: g.Q0, SlotB: -1, Param: g.Param})
		}), cfg.Params.Time1Q)
		if front.Done() {
			if len(stage.OneQ) > 0 {
				sched.Stages = append(sched.Stages, stage)
			}
			break
		}

		// Phase 2: greedily batch legal parallel two-qubit gates. Phase 1
		// left only two-qubit gates in the frontier, and tryAdd executes
		// none, so the frontier is read in place.
		var batch []int
		plan := st.stagePlanFor()
		for _, gi := range front.Front() {
			g := front.Gate(gi)
			if opts.SerialRouter && len(batch) >= 1 {
				break
			}
			reason := plan.tryAdd(g.Q0, g.Q1)
			if reason == addOK {
				batch = append(batch, gi)
			} else if reason == addOverlap {
				stats.Overlaps++
			}
		}
		if len(batch) == 0 {
			for _, gi := range front.Front() {
				g := front.Gate(gi)
				if g.IsTwoQubit() {
					reason := newStagePlan(st).tryAdd(g.Q0, g.Q1)
					panicMsg := fmt.Sprintf("core: router stuck: gate %v sites %v %v reason %d",
						g, siteOf[g.Q0], siteOf[g.Q1], reason)
					panic(panicMsg)
				}
			}
			panic("core: router made no progress (intra-SLM gate?)")
		}

		// Commit: movements, heating, gates.
		stage.Moves = plan.commitMoves()
		stageDist := 0.0
		for a := 1; a < cfg.NumArrays(); a++ {
			rd, cd := st.rowDisp[a], st.colDisp[a]
			for _, slot := range st.atomsOf[a] {
				s := siteOf[slot]
				d := math.Hypot(rd[s.Row], cd[s.Col])
				if d > 0 {
					st.nvib[slot] += move.DeltaNvib(d, cfg.Params.TimePerMove, cfg.Params)
					trace.MoveNvib = append(trace.MoveNvib, st.nvib[slot])
					stageDist += d
				}
			}
		}
		stats.TotalDist += stageDist

		for _, gi := range batch {
			g := front.Gate(gi)
			stage.Gates = append(stage.Gates, pipeline.GateExec{Op: g.Op, SlotA: g.Q0, SlotB: g.Q1, Param: g.Param})
			front.Execute(gi)
			trace.GateNvib = append(trace.GateNvib, st.gateNvib(g.Q0, g.Q1))
		}

		trace.StageQubits = append(trace.StageQubits, len(siteOf))
		trace.StageMoveTime = append(trace.StageMoveTime, cfg.Params.TimePerMove)
		stats.ExecTime += cfg.Params.TimePerMove + cfg.Params.Time2Q
		stats.Stages++
		sched.Stages = append(sched.Stages, stage)

		// Cooling: any AOD array whose hottest atom exceeds the threshold is
		// swapped wholesale into a pre-cooled array (two CZ per atom).
		for a := 1; a < cfg.NumArrays(); a++ {
			hot := false
			for _, slot := range st.atomsOf[a] {
				if st.nvib[slot] > cfg.Params.NvibCool {
					hot = true
					break
				}
			}
			if hot {
				trace.CoolingAtomCounts = append(trace.CoolingAtomCounts, len(st.atomsOf[a]))
				for _, slot := range st.atomsOf[a] {
					st.nvib[slot] = 0
				}
				stats.Coolings++
				stats.ExecTime += 2 * cfg.Params.Time2Q
			}
		}
	}
	return sched, trace, stats, nil
}

// routerState holds the mutable execution state: AOD row/column coordinates,
// per-atom n_vib, and per-array atom indexes.
type routerState struct {
	cfg      hardware.Config
	opts     Options
	siteOf   []hardware.Site
	atomsOf  [][]int     // array -> slots
	colsOf   []int       // array -> column count (occupancy stride)
	occ      [][]int     // array -> r*colsOf+c -> slot, or -1 for empty traps
	rowCoord [][]float64 // array -> row index -> current y (parked)
	colCoord [][]float64 // array -> col index -> current x (parked)
	rowDisp  [][]float64 // scratch: per-row displacement this stage
	colDisp  [][]float64
	nvib     []float64
	parkOff  []float64 // per-array interstitial park offset
	// bindCache memoises per-pair routing invariants (row/column targets and
	// the heating classification), keyed on pairKey. Sites never change
	// during routing, so the entry computed when a gate is first tried is
	// reused every time the gate is re-tried in a later stage and for every
	// gateNvib lookup.
	bindCache map[[2]int]*bindEntry
	// plan is the reusable stage plan; route resets it per stage instead of
	// reallocating its per-array tables.
	plan *stagePlan
}

func newRouterState(cfg hardware.Config, siteOf []hardware.Site, opts Options) *routerState {
	k := cfg.NumArrays()
	st := &routerState{
		cfg:       cfg,
		opts:      opts,
		siteOf:    siteOf,
		atomsOf:   make([][]int, k),
		colsOf:    make([]int, k),
		occ:       make([][]int, k),
		rowCoord:  make([][]float64, k),
		colCoord:  make([][]float64, k),
		rowDisp:   make([][]float64, k),
		colDisp:   make([][]float64, k),
		nvib:      make([]float64, len(siteOf)),
		parkOff:   make([]float64, k),
		bindCache: make(map[[2]int]*bindEntry),
	}
	for a := 0; a < k; a++ {
		spec := cfg.Array(a)
		st.colsOf[a] = spec.Cols
		st.occ[a] = make([]int, spec.Rows*spec.Cols)
		for i := range st.occ[a] {
			st.occ[a][i] = -1
		}
		st.rowCoord[a] = make([]float64, spec.Rows)
		st.colCoord[a] = make([]float64, spec.Cols)
		st.rowDisp[a] = make([]float64, spec.Rows)
		st.colDisp[a] = make([]float64, spec.Cols)
		st.parkOff[a] = cfg.HomeY(hardware.Site{Array: a}) - cfg.SiteY(0)
		for r := 0; r < spec.Rows; r++ {
			st.rowCoord[a][r] = cfg.HomeY(hardware.Site{Array: a, Row: r})
		}
		for c := 0; c < spec.Cols; c++ {
			st.colCoord[a][c] = cfg.HomeX(hardware.Site{Array: a, Col: c})
		}
	}
	for slot, s := range siteOf {
		st.atomsOf[s.Array] = append(st.atomsOf[s.Array], slot)
		st.occ[s.Array][s.Row*st.colsOf[s.Array]+s.Col] = slot
	}
	return st
}

// slotAt returns the slot parked at (array, row, col), if any.
func (st *routerState) slotAt(array, row, col int) (int, bool) {
	slot := st.occ[array][row*st.colsOf[array]+col]
	return slot, slot >= 0
}

// Heating classification of a pair (Sec. IV): whose n_vib a two-qubit gate
// accumulates.
const (
	nvibUseHi int8 = iota // AOD-SLM with the lower slot in the SLM
	nvibUseLo             // AOD-SLM with the higher slot in the SLM
	nvibSum               // AOD-AOD: both atoms move
)

// gateNvib returns the effective n_vib for a two-qubit gate: the AOD atom's
// value for AOD-SLM pairs, the sum for AOD-AOD pairs (Sec. IV).
func (st *routerState) gateNvib(a, b int) float64 {
	e := st.bindsFor(a, b)
	lo, hi := a, b
	if lo > hi {
		lo, hi = hi, lo
	}
	switch e.nvibKind {
	case nvibUseHi:
		return st.nvib[hi]
	case nvibUseLo:
		return st.nvib[lo]
	default:
		return st.nvib[lo] + st.nvib[hi]
	}
}

// addReason classifies tryAdd outcomes.
type addReason int

const (
	addOK          addReason = iota
	addRowConflict           // a row/column is already bound to a different target
	addOrder                 // constraint 2: would invert row/column order
	addOverlap               // constraint 3: two rows/columns would coincide
	addAddressing            // constraint 1: would create an unintended interaction
	addIllegal               // intra-SLM gate (compiler invariant violation)
)

// bindEntry is the cached per-pair routing invariant: the row/column
// bindings the gate requires and the heating classification of the pair.
type bindEntry struct {
	rows, cols [][3]float64
	nvibKind   int8
}

// bindsFor returns the (memoised) row and column bindings a gate requires.
// For AOD-SLM gates the AOD atom targets the SLM grid site; for AOD-AOD
// gates both arrays meet at a canonical interstitial point — the
// lower-indexed atom's home grid cell plus that array's park offset, which
// is never grid-aligned, so the meeting can never collide with an SLM atom
// regardless of movement history. The bindings depend only on the immutable
// site assignment, so they are cached per pair: the result is identical for
// both argument orders.
func (st *routerState) bindsFor(a, b int) *bindEntry {
	key := pairKey(a, b)
	if e, ok := st.bindCache[key]; ok {
		return e
	}
	lo, hi := key[0], key[1]
	sa, sb := st.siteOf[lo], st.siteOf[hi]
	e := &bindEntry{}
	mk := func(array, idx int, target float64) [3]float64 {
		return [3]float64{float64(array), float64(idx), target}
	}
	switch {
	case sa.Array == 0 || sb.Array == 0:
		slm, aod := sa, sb
		e.nvibKind = nvibUseHi
		if sb.Array == 0 {
			slm, aod = sb, sa
			e.nvibKind = nvibUseLo
		}
		e.rows = append(e.rows, mk(aod.Array, aod.Row, st.cfg.SiteY(slm.Row)))
		e.cols = append(e.cols, mk(aod.Array, aod.Col, st.cfg.SiteX(slm.Col)))
	default:
		pin, mov := sa, sb
		if sb.Array < sa.Array {
			pin, mov = sb, sa
		}
		e.nvibKind = nvibSum
		meetY := st.cfg.SiteY(pin.Row) + st.parkOff[pin.Array]
		meetX := st.cfg.SiteX(pin.Col) + st.parkOff[pin.Array]
		e.rows = append(e.rows, mk(pin.Array, pin.Row, meetY), mk(mov.Array, mov.Row, meetY))
		e.cols = append(e.cols, mk(pin.Array, pin.Col, meetX), mk(mov.Array, mov.Col, meetX))
	}
	st.bindCache[key] = e
	return e
}

// bindUndo records one binding mutation of a tryAdd attempt so a rejection
// can restore the exact prior plan in O(1) per binding.
type bindUndo struct {
	isRow      bool
	array, idx int
	prev       float64
	existed    bool
}

// unbound marks an unbound row/column target in the dense binding tables.
var unbound = math.NaN()

// stagePlan accumulates the row/column targets of a candidate stage and
// checks the three hardware constraints incrementally. Bindings live in
// dense per-array tables (NaN = unbound) with explicit bound-index lists, so
// lookups are array indexing rather than map hashing, and the plan is
// reused across stages via reset. A rejected tryAdd is rolled back through
// the undo journal of just that attempt — the plan never recomputes the
// surviving gates' bindings.
type stagePlan struct {
	st       *routerState
	rowT     [][]float64 // array -> row index -> target y (NaN unbound)
	colT     [][]float64 // array -> col index -> target x (NaN unbound)
	rowBound [][]int     // array -> bound row indices, in bind order
	colBound [][]int
	gates    [][2]int // accepted gates (ordered slot pairs)
	pairs    map[[2]int]bool
	undo     []bindUndo              // journal of the most recent tryAdd attempt
	points   map[[2]int64]pointGroup // scratch for checkAddressing
}

func newStagePlan(st *routerState) *stagePlan {
	k := st.cfg.NumArrays()
	p := &stagePlan{
		st:       st,
		pairs:    make(map[[2]int]bool),
		points:   make(map[[2]int64]pointGroup),
		rowT:     make([][]float64, k),
		colT:     make([][]float64, k),
		rowBound: make([][]int, k),
		colBound: make([][]int, k),
	}
	for a := 0; a < k; a++ {
		spec := st.cfg.Array(a)
		p.rowT[a] = make([]float64, spec.Rows)
		p.colT[a] = make([]float64, spec.Cols)
		for i := range p.rowT[a] {
			p.rowT[a][i] = unbound
		}
		for i := range p.colT[a] {
			p.colT[a][i] = unbound
		}
	}
	return p
}

// reset clears the plan for a new stage, touching only the entries the
// previous stage bound.
func (p *stagePlan) reset() {
	for a := range p.rowBound {
		for _, i := range p.rowBound[a] {
			p.rowT[a][i] = unbound
		}
		p.rowBound[a] = p.rowBound[a][:0]
		for _, i := range p.colBound[a] {
			p.colT[a][i] = unbound
		}
		p.colBound[a] = p.colBound[a][:0]
	}
	p.gates = p.gates[:0]
	clear(p.pairs)
	p.undo = p.undo[:0]
}

// stagePlanFor returns the router's reusable plan, reset for a new stage.
func (st *routerState) stagePlanFor() *stagePlan {
	if st.plan == nil {
		st.plan = newStagePlan(st)
	}
	st.plan.reset()
	return st.plan
}

func bound(t float64) bool { return t == t } // NaN check without math.IsNaN

// tryAdd attempts to add the gate (slotA, slotB) to the stage. On success
// the plan is updated; on failure it is left exactly as it was.
func (p *stagePlan) tryAdd(a, b int) addReason {
	st := p.st
	sa, sb := st.siteOf[a], st.siteOf[b]
	if sa.Array == 0 && sb.Array == 0 {
		return addIllegal
	}
	e := st.bindsFor(a, b)

	// A row/column already bound to a different target cannot be split.
	for _, rb := range e.rows {
		if t := p.rowT[int(rb[0])][int(rb[1])]; bound(t) && !approxEq(t, rb[2]) {
			return addRowConflict
		}
	}
	for _, cb := range e.cols {
		if t := p.colT[int(cb[0])][int(cb[1])]; bound(t) && !approxEq(t, cb[2]) {
			return addRowConflict
		}
	}

	// Tentatively apply, journaling every binding (including the previous
	// value of overwritten ones) so a rejection undoes exactly this attempt.
	p.undo = p.undo[:0]
	for _, rb := range e.rows {
		ar, idx := int(rb[0]), int(rb[1])
		prev := p.rowT[ar][idx]
		p.undo = append(p.undo, bindUndo{isRow: true, array: ar, idx: idx, prev: prev, existed: bound(prev)})
		if !bound(prev) {
			p.rowBound[ar] = append(p.rowBound[ar], idx)
		}
		p.rowT[ar][idx] = rb[2]
	}
	for _, cb := range e.cols {
		ar, idx := int(cb[0]), int(cb[1])
		prev := p.colT[ar][idx]
		p.undo = append(p.undo, bindUndo{isRow: false, array: ar, idx: idx, prev: prev, existed: bound(prev)})
		if !bound(prev) {
			p.colBound[ar] = append(p.colBound[ar], idx)
		}
		p.colT[ar][idx] = cb[2]
	}
	key := pairKey(a, b)
	p.pairs[key] = true
	p.gates = append(p.gates, key)

	reason := p.checkChangedBindings()
	if reason == addOK && !st.opts.RelaxAddressing && !p.checkAddressing() {
		reason = addAddressing
	}
	if reason != addOK {
		p.undoLast()
	}
	return reason
}

// undoLast rolls back the most recent tryAdd attempt: the journal entries
// are replayed in reverse (restoring overwritten targets bit-for-bit,
// popping freshly bound indices off their bound lists) and the gate/pair
// bookkeeping is popped. The resulting plan is indistinguishable from one
// that never saw the attempt.
func (p *stagePlan) undoLast() {
	last := p.gates[len(p.gates)-1]
	p.gates = p.gates[:len(p.gates)-1]
	delete(p.pairs, last)
	for i := len(p.undo) - 1; i >= 0; i-- {
		u := p.undo[i]
		if u.isRow {
			p.rowT[u.array][u.idx] = u.prev
			if !u.existed {
				p.rowBound[u.array] = p.rowBound[u.array][:len(p.rowBound[u.array])-1]
			}
		} else {
			p.colT[u.array][u.idx] = u.prev
			if !u.existed {
				p.colBound[u.array] = p.colBound[u.array][:len(p.colBound[u.array])-1]
			}
		}
	}
	p.undo = p.undo[:0]
}

// checkChangedBindings enforces constraints 2 and 3 incrementally: only the
// bindings the current attempt touched can introduce a violation (the rest
// of the plan was legal by induction), and a changed binding can only
// conflict with its nearest bound neighbours in index order. Axes are
// visited in the order the full rescan uses (array ascending, rows before
// columns) so the rejection reason — which feeds the overlap counter —
// matches checkOrderAndOverlap exactly.
func (p *stagePlan) checkChangedBindings() addReason {
	n := len(p.undo)
	var order [4]int
	for i := 0; i < n; i++ {
		order[i] = i
	}
	// Insertion sort by (array, rows-before-cols); n <= 4 and at most one
	// entry per (array, axis).
	for i := 1; i < n; i++ {
		for j := i; j > 0 && bindBefore(p.undo[order[j]], p.undo[order[j-1]]); j-- {
			order[j], order[j-1] = order[j-1], order[j]
		}
	}
	for i := 0; i < n; i++ {
		u := p.undo[order[i]]
		binds := p.rowT[u.array]
		if !u.isRow {
			binds = p.colT[u.array]
		}
		if r := checkNeighbors(binds, u.idx, p.st.opts); r != addOK {
			return r
		}
	}
	return addOK
}

// checkNeighbors validates the binding at idx against its nearest bound
// neighbours: targets must keep strictly increasing with index (constraint
// 2), without coinciding (constraint 3), unless relaxed. The lower pair is
// checked first, matching the ascending scan of the full recheck.
func checkNeighbors(binds []float64, idx int, opts Options) addReason {
	target := binds[idx]
	for lo := idx - 1; lo >= 0; lo-- {
		if bound(binds[lo]) {
			if r := checkAdjacent(binds[lo], target, opts); r != addOK {
				return r
			}
			break
		}
	}
	for hi := idx + 1; hi < len(binds); hi++ {
		if bound(binds[hi]) {
			if r := checkAdjacent(target, binds[hi], opts); r != addOK {
				return r
			}
			break
		}
	}
	return addOK
}

func bindBefore(a, b bindUndo) bool {
	if a.array != b.array {
		return a.array < b.array
	}
	return a.isRow && !b.isRow
}

func checkAdjacent(prev, cur float64, opts Options) addReason {
	if approxEq(prev, cur) {
		if !opts.RelaxOverlap {
			return addOverlap
		}
		return addOK
	}
	if prev > cur && !opts.RelaxOrder {
		return addOrder
	}
	return addOK
}

// pointGroup tracks the atoms brought to one quantised point; only the
// first two matter (a third is already a violation).
type pointGroup struct {
	n      int
	s0, s1 int
}

func (g pointGroup) add(slot int) pointGroup {
	switch g.n {
	case 0:
		g.s0 = slot
	case 1:
		g.s1 = slot
	}
	g.n++
	return g
}

// checkAddressing enforces constraint 1: every pair of atoms brought to the
// same point by the planned moves must be an accepted gate, and no point may
// host more than two atoms (the global Rydberg pulse entangles every pair
// within range).
func (p *stagePlan) checkAddressing() bool {
	st := p.st
	clear(p.points)
	for a := 1; a < st.cfg.NumArrays(); a++ {
		rows, cols := p.rowBound[a], p.colBound[a]
		if len(rows) == 0 || len(cols) == 0 {
			continue
		}
		stride := st.colsOf[a]
		occ := st.occ[a]
		for _, r := range rows {
			y := p.rowT[a][r]
			base := r * stride
			for _, c := range cols {
				slot := occ[base+c]
				if slot < 0 {
					continue // empty trap site
				}
				key := quantize(y, p.colT[a][c])
				p.points[key] = p.points[key].add(slot)
			}
		}
	}
	for key, group := range p.points {
		if slot, ok := st.slmAtomAt(key); ok {
			group = group.add(slot)
		}
		if group.n > 2 {
			return false
		}
		if group.n == 2 && !p.pairs[pairKey(group.s0, group.s1)] {
			return false
		}
	}
	return true
}

// slmAtomAt returns the SLM slot whose grid position quantises to key.
func (st *routerState) slmAtomAt(key [2]int64) (int, bool) {
	d := st.cfg.Params.AtomDistance
	y := float64(key[0]) * 1e-9
	x := float64(key[1]) * 1e-9
	r := int(math.Round(y / d))
	c := int(math.Round(x / d))
	spec := st.cfg.Array(0)
	if r < 0 || c < 0 || r >= spec.Rows || c >= spec.Cols ||
		!approxEq(float64(r)*d, y) || !approxEq(float64(c)*d, x) {
		return 0, false // interstitial or off-grid point
	}
	return st.slotAt(0, r, c)
}

// commitMoves translates the plan's bindings into Move records, updates the
// row/column coordinates (target plus park retreat), and fills the per-axis
// displacement scratch used for heating. Bindings are committed in sorted
// index order so the emitted move list is deterministic (the schedule is
// part of the per-seed-reproducible contract the service cache relies on).
func (p *stagePlan) commitMoves() []pipeline.Move {
	st := p.st
	var moves []pipeline.Move
	var idxs []int
	for a := 1; a < st.cfg.NumArrays(); a++ {
		for i := range st.rowDisp[a] {
			st.rowDisp[a][i] = 0
		}
		for i := range st.colDisp[a] {
			st.colDisp[a][i] = 0
		}
		off := st.parkOff[a]
		park := func(target float64) (parked, retreat float64) {
			// Grid-aligned targets (AOD-SLM gates) retreat to an interstitial
			// park position after the pulse; interstitial meeting points
			// (AOD-AOD gates) are already safe to rest at.
			if st.gridAligned(target) {
				return target + off, off
			}
			return target, 0
		}
		idxs = append(idxs[:0], p.rowBound[a]...)
		sortInts(idxs)
		for _, r := range idxs {
			y := p.rowT[a][r]
			cur := st.rowCoord[a][r]
			if approxEq(cur, y) {
				continue // pinned in place
			}
			parked, retreat := park(y)
			moves = append(moves, pipeline.Move{Array: a, IsRow: true, Index: r, From: cur, To: y})
			st.rowDisp[a][r] = math.Abs(y-cur) + retreat // travel + retreat
			st.rowCoord[a][r] = parked
		}
		idxs = append(idxs[:0], p.colBound[a]...)
		sortInts(idxs)
		for _, c := range idxs {
			x := p.colT[a][c]
			cur := st.colCoord[a][c]
			if approxEq(cur, x) {
				continue
			}
			parked, retreat := park(x)
			moves = append(moves, pipeline.Move{Array: a, IsRow: false, Index: c, From: cur, To: x})
			st.colDisp[a][c] = math.Abs(x-cur) + retreat
			st.colCoord[a][c] = parked
		}
	}
	return moves
}

func pairKey(a, b int) [2]int {
	if a > b {
		a, b = b, a
	}
	return [2]int{a, b}
}

func quantize(y, x float64) [2]int64 {
	return [2]int64{int64(math.Round(y * 1e9)), int64(math.Round(x * 1e9))}
}

func approxEq(a, b float64) bool { return math.Abs(a-b) < 1e-10 }

// gridAligned reports whether a coordinate sits on an SLM grid line.
func (st *routerState) gridAligned(v float64) bool {
	d := st.cfg.Params.AtomDistance
	return approxEq(math.Round(v/d)*d, v)
}

func sortInts(s []int) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}
