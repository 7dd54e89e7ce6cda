package pipeline

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"

	"atomique/internal/circuit"
)

func namedPass(name string, fn func(st *State) error) Pass {
	return PassFunc{PassName: name, Fn: func(_ context.Context, st *State) error { return fn(st) }}
}

func TestRunExecutesPassesInOrder(t *testing.T) {
	var got []string
	p := New(
		namedPass("a", func(*State) error { got = append(got, "a"); return nil }),
		namedPass("b", func(*State) error { got = append(got, "b"); return nil }),
		namedPass("c", func(*State) error { got = append(got, "c"); return nil }),
	)
	timings, err := p.Run(context.Background(), &State{})
	if err != nil {
		t.Fatal(err)
	}
	if strings.Join(got, ",") != "a,b,c" {
		t.Fatalf("execution order %v", got)
	}
	if len(timings) != 3 {
		t.Fatalf("got %d timings, want 3", len(timings))
	}
	for i, name := range []string{"a", "b", "c"} {
		if timings[i].Name != name {
			t.Errorf("timing %d name = %q, want %q", i, timings[i].Name, name)
		}
		if timings[i].Seconds < 0 {
			t.Errorf("timing %d negative: %v", i, timings[i].Seconds)
		}
	}
	if names := p.Names(); strings.Join(names, ",") != "a,b,c" {
		t.Errorf("Names() = %v", names)
	}
}

func TestRunErrorStopsPipeline(t *testing.T) {
	boom := errors.New("boom")
	ran := false
	p := New(
		namedPass("first", func(*State) error { return nil }),
		namedPass("failing", func(*State) error { return boom }),
		namedPass("after", func(*State) error { ran = true; return nil }),
	)
	timings, err := p.Run(context.Background(), &State{})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want wrapped boom", err)
	}
	if !strings.Contains(err.Error(), "failing") {
		t.Errorf("error does not name the pass: %v", err)
	}
	if ran {
		t.Error("pass after the failure still ran")
	}
	if len(timings) != 1 || timings[0].Name != "first" {
		t.Errorf("timings = %v, want just the completed first pass", timings)
	}
}

func TestRunCancellationCheckpoint(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	ran := false
	p := New(
		namedPass("canceller", func(*State) error { cancel(); return nil }),
		namedPass("after", func(*State) error { ran = true; return nil }),
	)
	_, err := p.Run(ctx, &State{})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if !strings.Contains(err.Error(), "after") {
		t.Errorf("error does not name the pending pass: %v", err)
	}
	if ran {
		t.Error("pass ran after cancellation")
	}
}

func TestGateAndMoveCounts(t *testing.T) {
	c := circuit.New(3)
	c.H(0)
	c.CX(0, 1)
	st := &State{Circ: c}
	if got := st.GateCount(); got != 2 {
		t.Errorf("source GateCount = %d, want 2", got)
	}
	routed := circuit.New(3)
	routed.H(0)
	routed.CX(0, 1)
	routed.CX(1, 2)
	st.Routed = routed
	if got := st.GateCount(); got != 3 {
		t.Errorf("routed GateCount = %d, want 3", got)
	}
	st.Schedule = &Schedule{Stages: []Stage{
		{OneQ: []GateExec{{Op: circuit.OpH, SlotA: 0, SlotB: -1}},
			Moves: []Move{{Array: 1, IsRow: true}},
			Gates: []GateExec{{Op: circuit.OpCX, SlotA: 0, SlotB: 1}}},
		{Moves: []Move{{Array: 1}, {Array: 1, Index: 1}},
			Gates: []GateExec{{Op: circuit.OpCX, SlotA: 1, SlotB: 2}}},
	}}
	if got := st.GateCount(); got != 3 {
		t.Errorf("scheduled GateCount = %d, want 3", got)
	}
	if got := st.MoveCount(); got != 3 {
		t.Errorf("MoveCount = %d, want 3", got)
	}
}

func TestTimingCountsTrackState(t *testing.T) {
	c := circuit.New(2)
	c.CX(0, 1)
	p := New(
		namedPass("noop", func(*State) error { return nil }),
		namedPass("schedule", func(st *State) error {
			st.Schedule = &Schedule{Stages: []Stage{{
				Moves: []Move{{Array: 1}},
				Gates: []GateExec{{Op: circuit.OpCX, SlotA: 0, SlotB: 1}},
			}}}
			return nil
		}),
	)
	timings, err := p.Run(context.Background(), &State{Circ: c})
	if err != nil {
		t.Fatal(err)
	}
	if timings[0].Gates != 1 || timings[0].Moves != 0 {
		t.Errorf("noop pass counts = %+v, want gates 1 moves 0", timings[0])
	}
	if timings[1].Gates != 1 || timings[1].Moves != 1 {
		t.Errorf("schedule pass counts = %+v, want gates 1 moves 1", timings[1])
	}
}

func ExamplePipeline_Run() {
	p := New(namedPass("hello", func(*State) error { return nil }))
	timings, _ := p.Run(context.Background(), &State{})
	fmt.Println(timings[0].Name)
	// Output: hello
}
