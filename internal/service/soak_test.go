package service

import (
	"context"
	"errors"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"atomique/internal/admission"
	"atomique/internal/circuit"
	"atomique/internal/compiler"
)

// TestSoakAdaptiveBurst is the acceptance soak: steady interactive traffic,
// then a 10x interactive+batch burst against a pool that starts at one
// worker. The controller must scale the pool up to absorb the burst, keep
// interactive latency bounded (shedding batch first when it cannot), attach
// retry advice to everything it sheds, and scale back down once the burst
// passes. Durations are kept short enough for ordinary CI runs; the loadgen
// binary covers the longer out-of-process variant.
func TestSoakAdaptiveBurst(t *testing.T) {
	const serviceTime = 2 * time.Millisecond
	e := newEngine(Config{
		Workers: 1, WorkersMin: 1, WorkersMax: 8,
		QueueSize: 64, CacheSize: 16384,
		Admission: admission.Config{
			Enabled:         true,
			Interval:        5 * time.Millisecond,
			TargetQueueWait: 30 * time.Millisecond,
			ScaleDownTicks:  3,
		},
	}, func(ctx context.Context, _ compiler.Backend, _ compiler.Target, circ *circuit.Circuit, _ compiler.Options) (*compiler.Result, error) {
		select {
		case <-time.After(serviceTime):
		case <-ctx.Done():
			return nil, ctx.Err()
		}
		return stubResult(circ), nil
	})
	defer e.Close()

	// Background watcher: record the worker-target trajectory.
	var maxTarget atomic.Int64
	watchDone := make(chan struct{})
	watchStop := make(chan struct{})
	go func() {
		defer close(watchDone)
		tick := time.NewTicker(2 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-watchStop:
				return
			case <-tick.C:
				if cur := int64(e.Stats().WorkersTarget); cur > maxTarget.Load() {
					maxTarget.Store(cur)
				}
			}
		}
	}()

	type sample struct {
		latency time.Duration
		err     error
	}
	var mu sync.Mutex
	interactive := []sample{}
	var shed, shedNoAdvice, batchSent atomic.Int64
	var seed atomic.Int64
	var inflight sync.WaitGroup

	fire := func(prio string) {
		defer inflight.Done()
		t0 := time.Now()
		_, err := e.Compile(context.Background(), Request{
			Benchmark: "H2-4", Seed: seed.Add(1), Priority: prio,
		})
		if errors.Is(err, ErrOverloaded) {
			shed.Add(1)
			var oe *OverloadedError
			if !errors.As(err, &oe) || oe.RetryAfter <= 0 {
				shedNoAdvice.Add(1)
			}
			return
		}
		if err != nil {
			t.Errorf("%s compile: %v", prio, err)
			return
		}
		if prio == PriorityInteractive {
			mu.Lock()
			interactive = append(interactive, sample{latency: time.Since(t0)})
			mu.Unlock()
		}
	}
	// Open-loop arrivals: n requests spaced gap apart, fired without waiting
	// for earlier ones — a saturated pool sees real pressure.
	drive := func(prio string, n int, gap time.Duration) {
		for i := 0; i < n; i++ {
			inflight.Add(1)
			go fire(prio)
			if prio == PriorityBatch {
				batchSent.Add(1)
			}
			time.Sleep(gap)
		}
	}

	// Phase 1 — baseline: ~50/s interactive, comfortably inside one worker.
	drive(PriorityInteractive, 15, 20*time.Millisecond)

	// Phase 2 — burst: 10x interactive plus a batch flood. λ·s ≈
	// (500/s + 250/s) · 2ms ≈ 1.5 busy workers, with queue backlogs pushing
	// the drain term well past that.
	var burst sync.WaitGroup
	burst.Add(2)
	go func() { defer burst.Done(); drive(PriorityInteractive, 150, 2*time.Millisecond) }()
	go func() { defer burst.Done(); drive(PriorityBatch, 75, 4*time.Millisecond) }()
	burst.Wait()
	inflight.Wait()

	// Phase 3 — recovery: with the load gone the target must damp back down.
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) && e.Stats().WorkersTarget > 2 {
		time.Sleep(5 * time.Millisecond)
	}
	close(watchStop)
	<-watchDone

	if got := maxTarget.Load(); got < 3 {
		t.Errorf("max workersTarget during burst = %d, want >= 3 (pool never scaled up)", got)
	}
	if got := e.Stats().WorkersTarget; got > 2 {
		t.Errorf("workersTarget after recovery = %d, want <= 2 (pool never scaled down)", got)
	}
	if n := shedNoAdvice.Load(); n != 0 {
		t.Errorf("%d shed requests carried no retry advice", n)
	}

	mu.Lock()
	lat := append([]sample(nil), interactive...)
	mu.Unlock()
	if len(lat) < 100 {
		t.Fatalf("only %d interactive requests completed; burst did not run", len(lat))
	}
	durs := make([]time.Duration, len(lat))
	for i, s := range lat {
		durs[i] = s.latency
	}
	sort.Slice(durs, func(i, j int) bool { return durs[i] < durs[j] })
	p99 := durs[len(durs)*99/100]
	if p99 > 400*time.Millisecond {
		t.Errorf("interactive p99 = %s under burst, want <= 400ms (admission failed to protect it)", p99)
	}
	t.Logf("soak: interactive n=%d p99=%s, shed=%d of %d batch sent, maxTarget=%d, finalTarget=%d",
		len(durs), p99, shed.Load(), batchSent.Load(), maxTarget.Load(), e.Stats().WorkersTarget)
}
