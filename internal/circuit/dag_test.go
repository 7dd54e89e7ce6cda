package circuit

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

func TestDAGDependencies(t *testing.T) {
	c := New(3)
	c.H(0)     // 0
	c.CX(0, 1) // 1 depends on 0
	c.CX(1, 2) // 2 depends on 1
	c.H(0)     // 3 depends on 1
	d := NewDAG(c)
	if got := d.Successors(0); len(got) != 1 || got[0] != 1 {
		t.Errorf("succ(0) = %v, want [1]", got)
	}
	if got := d.Successors(1); len(got) != 2 {
		t.Errorf("succ(1) = %v, want two entries", got)
	}
	if d.Circuit() != c {
		t.Errorf("Circuit() did not return underlying circuit")
	}
}

func TestFrontierTraversal(t *testing.T) {
	c := New(3)
	c.H(0)     // 0
	c.H(1)     // 1
	c.CX(0, 1) // 2
	c.CX(1, 2) // 3
	f := NewFrontier(NewDAG(c))
	front := f.Front()
	if len(front) != 2 {
		t.Fatalf("initial front = %v, want 2 gates", front)
	}
	f.Execute(0)
	f.Execute(1)
	front = f.Front()
	if len(front) != 1 || front[0] != 2 {
		t.Fatalf("front after 1Q = %v, want [2]", front)
	}
	f.Execute(2)
	f.Execute(3)
	if !f.Done() {
		t.Fatalf("frontier not done after all 4 gates, front = %v", f.Front())
	}
}

// TestFrontierReadyOrder pins the frontier's order, the order in which gates
// became ready, which every router's determinism depends on.
func TestFrontierReadyOrder(t *testing.T) {
	c := New(2)
	c.H(0) // 0
	c.H(0) // 1 depends on 0
	c.H(1) // 2
	f := NewFrontier(NewDAG(c))
	if got := f.Front(); !slices.Equal(got, []int{0, 2}) {
		t.Fatalf("initial front = %v, want [0 2]", got)
	}
	f.Execute(0)
	if got := f.Front(); !slices.Equal(got, []int{2, 1}) {
		t.Fatalf("front after Execute(0) = %v, want [2 1]", got)
	}
}

func TestFrontierExecuteNonFrontPanics(t *testing.T) {
	c := New(2)
	c.H(0)
	c.CX(0, 1)
	f := NewFrontier(NewDAG(c))
	mustPanic(t, func() { f.Execute(1) })
}

// Property: executing the frontier in any greedy order retires every gate
// exactly once and respects per-qubit program order.
func TestFrontierCompletesProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		c := randomCircuit(rng, 2+rng.Intn(6), 1+rng.Intn(80))
		fr := NewFrontier(NewDAG(c))
		executed := 0
		lastExec := make([]int, c.N)
		for i := range lastExec {
			lastExec[i] = -1
		}
		for !fr.Done() {
			front := fr.Front()
			if len(front) == 0 {
				return false // deadlock
			}
			g := front[rng.Intn(len(front))]
			for _, q := range fr.Gate(g).Qubits() {
				// All earlier gates on q must already be retired: their index
				// must be recorded in lastExec in increasing order.
				if lastExec[q] > g {
					return false
				}
				lastExec[q] = g
			}
			fr.Execute(g)
			executed++
		}
		return executed == c.NumGates()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}
