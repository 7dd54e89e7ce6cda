// Package metrics defines the result record every compiler in this
// repository produces, mirroring the quantities the paper's evaluation
// reports: two-qubit gate count, two-qubit depth, fidelity breakdown,
// SWAP-inserted CNOTs (Fig 25), execution time and movement distance
// (Figs 20/22-24), and compile time (Fig 14).
package metrics

import (
	"math"
	"time"

	"atomique/internal/fidelity"
	"atomique/internal/hardware"
)

// Compiled summarises one compilation outcome. The JSON field names are the
// stable wire format of the compile service's result envelope
// (internal/report.Envelope); CompileTime serialises as integer nanoseconds.
type Compiled struct {
	Name string `json:"name,omitempty"` // benchmark name
	Arch string `json:"arch"`           // architecture/compiler label

	// Counts are the qubit, gate and layer counts the fidelity model
	// takes; Depth2Q is the router's stage count on RAA.
	fidelity.Counts

	SwapCount  int `json:"swapCount"`  // SWAPs inserted during routing
	AddedCNOTs int `json:"addedCNOTs"` // CNOT overhead of SWAP insertion (3 per SWAP)

	ExecutionTime float64 `json:"executionTime"` // wall-clock schedule length in seconds
	MoveStages    int     `json:"moveStages"`    // movement stages (RAA only)
	TotalMoveDist float64 `json:"totalMoveDist"` // total atom movement in meters (RAA only)
	AvgMoveDist   float64 `json:"avgMoveDist"`   // average movement distance per stage in meters
	CoolingEvents int     `json:"coolingEvents"` // AOD cooling swaps performed
	Overlaps      int     `json:"overlaps"`      // gates rejected from a stage by the overlap rule

	CompileTime time.Duration      `json:"compileTimeNs"`
	Fidelity    fidelity.Breakdown `json:"fidelity"`

	// Passes is the per-pass instrumentation of the compile pipeline, in
	// execution order. Empty for compilers that do not run as a pass
	// pipeline (the fixed-array baselines in internal/arch).
	Passes []PassTiming `json:"passes,omitempty"`
}

// PassTiming is one pipeline pass's instrumentation record: wall time plus
// the gate/move totals materialised once the pass finished. Gates counts the
// gates of the most concrete circuit representation produced so far (source,
// routed, or scheduled), so the delta between consecutive entries shows what
// each pass added.
type PassTiming struct {
	Name    string  `json:"name"`
	Seconds float64 `json:"seconds"`
	Gates   int     `json:"gates"`
	Moves   int     `json:"moves"`
}

// Evaluate sets the fields derived from the rest of the record: Fidelity,
// the Sec. IV model of the counts and trace on hardware p; AddedCNOTs, three
// per SWAP; and AvgMoveDist, the mean distance per movement stage.
func (c *Compiled) Evaluate(p hardware.Params, trace fidelity.MovementTrace) {
	c.Fidelity = fidelity.Evaluate(p, c.Counts, trace)
	c.AddedCNOTs = 3 * c.SwapCount
	c.AvgMoveDist = 0
	if c.MoveStages > 0 {
		c.AvgMoveDist = c.TotalMoveDist / float64(c.MoveStages)
	}
}

// FidelityTotal is shorthand for the total fidelity product.
func (c Compiled) FidelityTotal() float64 { return c.Fidelity.Total() }

// GeoMean returns the geometric mean of vals, skipping non-positive entries
// (the paper's GMean columns clamp zeros the same way).
func GeoMean(vals []float64) float64 {
	prod := 1.0
	n := 0
	for _, v := range vals {
		if v > 0 {
			prod *= v
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return math.Pow(prod, 1/float64(n))
}
