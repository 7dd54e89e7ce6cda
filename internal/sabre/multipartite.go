package sabre

import (
	"atomique/internal/circuit"
	"atomique/internal/graphs"
)

// PackSlots lays qubits out on the complete multipartite coupling over
// nparts parts: part p owns the contiguous slot range that starts after
// parts 0..p-1, and qubits keep their index order within a part. It returns
// each part's size and each qubit's slot. Atomique packs its arrays this way
// and the solver references their SLM/AOD split.
func PackSlots(partOf []int, nparts int) (sizes, slotOf []int) {
	sizes = make([]int, nparts)
	for _, p := range partOf {
		sizes[p]++
	}
	next := make([]int, nparts)
	for p := 1; p < nparts; p++ {
		next[p] = next[p-1] + sizes[p-1]
	}
	slotOf = make([]int, len(partOf))
	for q, p := range partOf {
		slotOf[q] = next[p]
		next[p]++
	}
	return sizes, slotOf
}

// RouteMultipartite inserts the SWAPs that make every two-qubit gate of c act
// across parts of the complete multipartite coupling over sizes, starting
// from the slots PackSlots assigned. A circuit without two-qubit gates is
// only relabelled onto its slots.
func RouteMultipartite(c *circuit.Circuit, sizes, slotOf []int, seed int64) Result {
	if c.Num2Q() == 0 {
		return Result{Routed: c.Remap(len(slotOf), slotOf), InitialMapping: slotOf, FinalMapping: slotOf}
	}
	return Route(c, graphs.CompleteMultipartite(sizes), Options{InitialMapping: slotOf, Seed: seed})
}
