package service

import (
	"context"
	"errors"
	"reflect"
	"testing"
	"time"

	"atomique/internal/admission"
	"atomique/internal/circuit"
	"atomique/internal/compiler"
	"atomique/internal/metrics"
)

// TestStatsCounters pins every /v1/stats counter against a known mix of
// jobs: done, failed, cancelled while queued, a queue-full rejection, an
// admission shed, a recovered panic, cache hits, misses and a coalesce, and
// one pipeline compile that reports pass timings. The stub backend's
// behaviour is keyed on the request seed.
func TestStatsCounters(t *testing.T) {
	const (
		seedOwner = 1 // blocks until released; reports pass timings
		seedOther = 2 // blocks until released
		seedFail  = 3 // returns an error
		seedPanic = 4 // panics
		seedPlain = 5 // succeeds at once
	)
	started := make(chan int64, 8)
	releaseOwner, releaseOther := make(chan struct{}), make(chan struct{})
	stub := func(ctx context.Context, _ compiler.Backend, _ compiler.Target, circ *circuit.Circuit, opts compiler.Options) (*compiler.Result, error) {
		res := stubResult(circ)
		switch opts.Seed {
		case seedOwner, seedOther:
			started <- opts.Seed
			release := releaseOther
			if opts.Seed == seedOwner {
				release = releaseOwner
				res.Metrics.Passes = []metrics.PassTiming{{Name: "map-arrays", Seconds: 0.125}, {Name: "route", Seconds: 0.25}}
			}
			select {
			case <-release:
			case <-ctx.Done():
				return nil, ctx.Err()
			}
		case seedFail:
			return nil, errors.New("stub: compile failed")
		case seedPanic:
			panic("stub: backend exploded")
		}
		return res, nil
	}
	// Two fixed workers and one-slot queues. Any batch backlog predicts a
	// wait far past the objective, so the controller sheds batch traffic;
	// interactive traffic never sheds on predicted wait.
	e := newEngine(Config{Workers: 2, WorkersMin: 2, WorkersMax: 2, QueueSize: 1,
		Admission: admission.Config{
			Enabled:               true,
			Interval:              time.Millisecond,
			TargetQueueWait:       time.Millisecond,
			InteractiveSlack:      1e9,
			DefaultServiceSeconds: 1000,
		}}, stub)
	defer e.Close()
	ctx := context.Background()

	// enqueue bypasses the admission gate, so the set-up cannot be shed.
	enqueue := func(seed int64, prio string) *job {
		t.Helper()
		tk, err := e.resolve(Request{Benchmark: "H2-4", Seed: seed, Priority: prio})
		if err != nil {
			t.Fatal(err)
		}
		j, err := e.submitBlocking(ctx, tk)
		if err != nil {
			t.Fatal(err)
		}
		return j
	}
	submit := func(seed int64, prio string) (*Job, error) {
		return e.Submit(ctx, Request{Benchmark: "H2-4", Seed: seed, Priority: prio})
	}
	wait := func(id string, want State) {
		t.Helper()
		j, err := e.Wait(ctx, id)
		if err != nil {
			t.Fatal(err)
		}
		if j.State != want {
			t.Fatalf("job %s: state %s (%s), want %s", id, j.State, j.Error, want)
		}
	}

	// Occupy both workers, then leave one batch job queued behind them.
	owner := enqueue(seedOwner, PriorityInteractive)
	other := enqueue(seedOther, PriorityInteractive)
	<-started
	<-started
	queued := enqueue(seedPlain+100, PriorityBatch)

	// Wait for a tick that saw the stable state (batch backlog, empty
	// interactive queue), then stop the loop so that gate stays in force.
	deadline := time.Now().Add(10 * time.Second)
	for {
		if tk := e.admTick.Load(); tk != nil && tk.ShedBatch && !tk.ShedInteractive {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("controller never shed batch traffic")
		}
		time.Sleep(time.Millisecond)
	}
	e.ctrl.Stop()

	// An admission shed, a cancellation while queued, and a queue-full
	// rejection behind an interactive job that coalesces onto the owner.
	var oe *OverloadedError
	if _, err := submit(seedPlain+200, PriorityBatch); !errors.As(err, &oe) || oe.QueueFull {
		t.Fatalf("batch submission: err = %v, want an admission shed", err)
	}
	if ok, err := e.Cancel(queued.id); !ok || err != nil {
		t.Fatalf("cancel queued: ok=%v err=%v", ok, err)
	}
	coalescer, err := submit(seedOwner, PriorityInteractive)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := submit(seedPlain+300, PriorityInteractive); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("submission to a full queue: err = %v, want ErrQueueFull", err)
	}

	// Freeing the second worker lets it pick up the coalescer, which joins
	// the owner's in-flight compilation; releasing the owner finishes both.
	close(releaseOther)
	wait(other.id, StateDone)
	for e.tel.cacheEvents.With(cacheCoalesce).Value() < 1 {
		if time.Now().After(deadline) {
			t.Fatal("coalescer never joined the owner's compilation")
		}
		time.Sleep(time.Millisecond)
	}
	close(releaseOwner)
	wait(owner.id, StateDone)
	wait(coalescer.ID, StateDone)

	// A failure, a recovered panic, a miss and a plain hit.
	for _, tc := range []struct {
		seed int64
		want State
	}{{seedFail, StateFailed}, {seedPanic, StateFailed}, {seedPlain, StateDone}, {seedPlain, StateDone}} {
		j, err := e.Compile(ctx, Request{Benchmark: "H2-4", Seed: tc.seed})
		if err != nil {
			t.Fatal(err)
		}
		if j.State != tc.want {
			t.Fatalf("seed %d: state %s (%s), want %s", tc.seed, j.State, j.Error, tc.want)
		}
	}

	st := e.Stats()
	for _, c := range []struct {
		name      string
		got, want uint64
	}{
		// Only jobs that entered a queue: owner, other, queued, coalescer,
		// and the four compiles.
		{"submitted", st.Submitted, 8},
		{"completed", st.Completed, 5},
		{"failed", st.Failed, 2},
		{"cancelled", st.Cancelled, 1},
		// The admission shed plus the queue-full rejection.
		{"rejected", st.Rejected, 2},
		{"panics", st.Panics, 1},
		// The coalescer and the repeated plain compile.
		{"cacheHits", st.CacheHits, 2},
		{"cacheMisses", st.CacheMisses, 5},
		{"passRuns", st.PassRuns, 1},
		{"cacheEntries", uint64(st.CacheEntries), 3},
	} {
		if c.got != c.want {
			t.Errorf("%s = %d, want %d", c.name, c.got, c.want)
		}
	}
	if want := map[string]float64{"map-arrays": 0.125, "route": 0.25}; !reflect.DeepEqual(st.PassSeconds, want) {
		t.Errorf("passSeconds = %v, want %v", st.PassSeconds, want)
	}
	if st.Admission == nil {
		t.Fatal("admission stats missing with the controller enabled")
	}
	if st.Admission.ShedBatchTotal != 1 || st.Admission.ShedInteractiveTotal != 0 {
		t.Errorf("shed totals batch/interactive = %d/%d, want 1/0",
			st.Admission.ShedBatchTotal, st.Admission.ShedInteractiveTotal)
	}
}
