package graphs

import "fmt"

// Coupling is a hardware coupling graph: physical qubits are vertices and an
// edge permits a native two-qubit gate. Distances are all-pairs shortest
// paths (BFS), the cost metric SABRE minimises.
type Coupling struct {
	N    int
	adj  [][]int
	dist [][]int16
}

// NewCoupling builds a coupling graph from an undirected edge list.
func NewCoupling(n int, edges []Edge) *Coupling {
	c := &Coupling{N: n, adj: make([][]int, n)}
	seen := make(map[Edge]bool)
	for _, e := range edges {
		a, b := e.A, e.B
		if a > b {
			a, b = b, a
		}
		if a < 0 || b >= n || a == b {
			panic(fmt.Sprintf("graphs: bad coupling edge (%d,%d) for n=%d", e.A, e.B, n))
		}
		if seen[Edge{a, b}] {
			continue
		}
		seen[Edge{a, b}] = true
		c.adj[a] = append(c.adj[a], b)
		c.adj[b] = append(c.adj[b], a)
	}
	c.computeDistances()
	return c
}

func (c *Coupling) computeDistances() {
	c.dist = make([][]int16, c.N)
	for s := 0; s < c.N; s++ {
		d := make([]int16, c.N)
		for i := range d {
			d[i] = -1
		}
		d[s] = 0
		queue := []int{s}
		for len(queue) > 0 {
			v := queue[0]
			queue = queue[1:]
			for _, u := range c.adj[v] {
				if d[u] < 0 {
					d[u] = d[v] + 1
					queue = append(queue, u)
				}
			}
		}
		c.dist[s] = d
	}
}

// Neighbors returns the qubits adjacent to v. Callers must not mutate it.
func (c *Coupling) Neighbors(v int) []int { return c.adj[v] }

// Adjacent reports whether a native two-qubit gate exists between a and b:
// the graph has no self-loops, so they are adjacent exactly at distance 1.
func (c *Coupling) Adjacent(a, b int) bool { return c.dist[a][b] == 1 }

// Distance returns the hop distance between a and b, or -1 if disconnected.
func (c *Coupling) Distance(a, b int) int { return int(c.dist[a][b]) }

// NumEdges returns the undirected edge count.
func (c *Coupling) NumEdges() int {
	t := 0
	for _, a := range c.adj {
		t += len(a)
	}
	return t / 2
}

// Grid returns a rows x cols rectangular nearest-neighbour lattice
// (the FAA-Rectangular baseline topology).
func Grid(rows, cols int) *Coupling {
	var edges []Edge
	id := func(r, c int) int { return r*cols + c }
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			if c+1 < cols {
				edges = append(edges, Edge{id(r, c), id(r, c+1)})
			}
			if r+1 < rows {
				edges = append(edges, Edge{id(r, c), id(r+1, c)})
			}
		}
	}
	return NewCoupling(rows*cols, edges)
}

// Triangular returns a rows x cols triangular lattice: the rectangular grid
// plus one diagonal per cell, giving interior vertices degree 6 (the
// FAA-Triangular baseline of Geyser).
func Triangular(rows, cols int) *Coupling {
	var edges []Edge
	id := func(r, c int) int { return r*cols + c }
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			if c+1 < cols {
				edges = append(edges, Edge{id(r, c), id(r, c+1)})
			}
			if r+1 < rows {
				edges = append(edges, Edge{id(r, c), id(r+1, c)})
			}
			if r+1 < rows && c+1 < cols {
				// Alternate diagonal direction per row to approximate the
				// triangular tiling.
				if r%2 == 0 {
					edges = append(edges, Edge{id(r, c), id(r+1, c+1)})
				} else {
					edges = append(edges, Edge{id(r, c+1), id(r+1, c)})
				}
			}
		}
	}
	return NewCoupling(rows*cols, edges)
}

// LongRange returns a rows x cols grid where any two atoms within Euclidean
// distance maxRange (in lattice units) are coupled. With the Baker et al.
// setting — site spacing 2.5 r_b and interaction reach 4 r_b, i.e. maxRange
// 1.6 — this couples rook and diagonal neighbours (degree 8 interior).
func LongRange(rows, cols int, maxRange float64) *Coupling {
	var edges []Edge
	id := func(r, c int) int { return r*cols + c }
	reach := int(maxRange) + 1
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			for dr := 0; dr <= reach; dr++ {
				for dc := -reach; dc <= reach; dc++ {
					if dr == 0 && dc <= 0 {
						continue
					}
					r2, c2 := r+dr, c+dc
					if r2 < 0 || r2 >= rows || c2 < 0 || c2 >= cols {
						continue
					}
					if float64(dr*dr+dc*dc) <= maxRange*maxRange {
						edges = append(edges, Edge{id(r, c), id(r2, c2)})
					}
				}
			}
		}
	}
	return NewCoupling(rows*cols, edges)
}

// HeavyHex returns an IBM-style heavy-hex coupling graph with at least n
// qubits, truncated to exactly n. The construction follows the Eagle layout:
// long horizontal rows of qubits joined by vertical bridge qubits every four
// columns, with the bridge phase alternating between row pairs. HeavyHex(127)
// is the stand-in for ibm_washington.
func HeavyHex(n int) *Coupling {
	// Choose enough rows of width w to cover n.
	const w = 15 // row width
	rows := 1
	for count := w; count < n; rows++ {
		count += 4 + w // bridges + next row (approximate)
	}
	type node struct{ r, c int } // c == -1 means bridge below row r at col b
	ids := make(map[[3]int]int)  // key: {kind(0 row,1 bridge), r, c}
	var edges []Edge
	next := 0
	getRow := func(r, c int) int {
		k := [3]int{0, r, c}
		if v, ok := ids[k]; ok {
			return v
		}
		ids[k] = next
		next++
		return ids[k]
	}
	getBridge := func(r, c int) int {
		k := [3]int{1, r, c}
		if v, ok := ids[k]; ok {
			return v
		}
		ids[k] = next
		next++
		return ids[k]
	}
	for r := 0; r < rows; r++ {
		for c := 0; c < w; c++ {
			getRow(r, c)
			if c > 0 {
				edges = append(edges, Edge{getRow(r, c-1), getRow(r, c)})
			}
		}
		if r > 0 {
			// Bridges between row r-1 and row r, phase alternates.
			phase := 0
			if r%2 == 0 {
				phase = 2
			}
			for c := phase; c < w; c += 4 {
				b := getBridge(r-1, c)
				edges = append(edges, Edge{getRow(r-1, c), b})
				edges = append(edges, Edge{b, getRow(r, c)})
			}
		}
	}
	total := next
	if total < n {
		panic(fmt.Sprintf("graphs: HeavyHex construction too small (%d < %d)", total, n))
	}
	// Truncate: keep vertices < n, drop edges touching removed vertices.
	var kept []Edge
	for _, e := range edges {
		if e.A < n && e.B < n {
			kept = append(kept, e)
		}
	}
	return NewCoupling(n, kept)
}

// CompleteMultipartite returns the complete multipartite coupling graph over
// parts of the given sizes: vertices in different parts are coupled, vertices
// within a part are not. This is Atomique's abstract RAA coupling model —
// part 0 is the SLM array, parts 1..m the AOD arrays.
//
// The graph is built in closed form, without an edge list or BFS: each
// vertex's neighbours are every vertex of the other parts in ascending order
// (shared by the part), the distance across parts is 1, and within a part it
// is 2 when some other part is non-empty and -1 (disconnected) otherwise.
func CompleteMultipartite(sizes []int) *Coupling {
	n, nonEmpty := 0, 0
	for _, s := range sizes {
		n += s
		if s > 0 {
			nonEmpty++
		}
	}
	within := int16(-1)
	if nonEmpty >= 2 {
		within = 2
	}
	c := &Coupling{N: n, adj: make([][]int, n), dist: make([][]int16, n)}
	cells := make([]int16, n*n)
	start := 0
	for _, s := range sizes {
		end := start + s
		others := make([]int, 0, n-s)
		for v := range n {
			if v < start || v >= end {
				others = append(others, v)
			}
		}
		for v := start; v < end; v++ {
			row := cells[v*n : (v+1)*n]
			for u := range row {
				row[u] = 1
			}
			for u := start; u < end; u++ {
				row[u] = within
			}
			row[v] = 0
			c.adj[v], c.dist[v] = others, row
		}
		start = end
	}
	return c
}
