package service

import (
	"context"
	"errors"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
	"weak"

	"atomique/internal/admission"
	"atomique/internal/circuit"
	"atomique/internal/compiler"
	"atomique/internal/fidelity"
	"atomique/internal/metrics"
	"atomique/internal/obs"
)

// stubResult is the canonical successful stub-backend payload.
func stubResult(circ *circuit.Circuit) *compiler.Result {
	return &compiler.Result{Backend: "stub", Metrics: metrics.Compiled{Arch: "stub", Counts: fidelity.Counts{NQubits: circ.N}}}
}

// TestWorkerPanicRecovery: a panicking backend must fail the job (with the
// panic in its error), count atomique_panics_total, and leave the worker
// alive and the busy gauge clean for the next job.
func TestWorkerPanicRecovery(t *testing.T) {
	var calls atomic.Int64
	e := newEngine(Config{Workers: 1}, func(_ context.Context, _ compiler.Backend, _ compiler.Target, circ *circuit.Circuit, _ compiler.Options) (*compiler.Result, error) {
		if calls.Add(1) == 1 {
			panic("backend exploded")
		}
		return stubResult(circ), nil
	})
	defer e.Close()

	j, err := e.Compile(context.Background(), Request{Benchmark: "H2-4", Seed: 1})
	if err != nil {
		t.Fatalf("Compile returned transport error %v, want failed job", err)
	}
	if j.State != StateFailed || !strings.Contains(j.Error, "panic") {
		t.Fatalf("job after panic: state=%s error=%q, want failed with panic message", j.State, j.Error)
	}
	if st := e.Stats(); st.Panics != 1 {
		t.Errorf("Stats().Panics = %d, want 1", st.Panics)
	}
	if got := e.busy.Load(); got != 0 {
		t.Errorf("busy gauge = %d after panic, want 0", got)
	}
	// The single worker must have survived to run the next job.
	j2, err := e.Compile(context.Background(), Request{Benchmark: "H2-4", Seed: 2})
	if err != nil || j2.State != StateDone {
		t.Fatalf("job after recovery: %+v err=%v, want done", j2, err)
	}
}

// TestFinishedJobReleasesInputs: the job table keeps finished jobs for
// GET /v1/jobs/{id}, but not the circuits they compiled, so retained memory
// does not grow with request size.
func TestFinishedJobReleasesInputs(t *testing.T) {
	var compiled weak.Pointer[circuit.Circuit]
	e := newEngine(Config{Workers: 1}, func(_ context.Context, _ compiler.Backend, _ compiler.Target, circ *circuit.Circuit, _ compiler.Options) (*compiler.Result, error) {
		compiled = weak.Make(circ)
		return stubResult(circ), nil
	})
	defer e.Close()

	j, err := e.Compile(context.Background(), Request{QASM: ghzQASM, Seed: 1})
	if err != nil || j.State != StateDone {
		t.Fatalf("Compile: %+v err=%v, want done", j, err)
	}
	if _, ok := e.JobByID(j.ID); !ok {
		t.Fatalf("finished job %s left the table", j.ID)
	}
	runtime.GC()
	if compiled.Value() != nil {
		t.Error("a finished job still pins its circuit")
	}
}

// findTraceState scans the trace ring for a root span carrying the given
// state attribute.
func findTraceState(e *Engine, state string) bool {
	for _, tr := range e.tel.traces.Recent(100) {
		snap := tr.Root.Snapshot()
		if snap != nil && snap.Attrs["state"] == state {
			return true
		}
	}
	return false
}

// TestRejectedSubmissionTraceVisible: a queue-full rejection must still end
// and publish the job's trace — rejected traffic is part of the story
// GET /v1/traces tells, not a silent drop.
func TestRejectedSubmissionTraceVisible(t *testing.T) {
	backend := newBlockingBackend()
	e := newEngine(Config{Workers: 1, QueueSize: 1}, backend.compile)
	defer e.Close()
	defer close(backend.release)

	if _, err := e.Submit(context.Background(), Request{Benchmark: "H2-4", Seed: 1}); err != nil {
		t.Fatal(err)
	}
	<-backend.started
	if _, err := e.Submit(context.Background(), Request{Benchmark: "H2-4", Seed: 2}); err != nil {
		t.Fatal(err)
	}
	_, err := e.Submit(context.Background(), Request{Benchmark: "H2-4", Seed: 3})
	if !errors.Is(err, ErrQueueFull) || !errors.Is(err, ErrOverloaded) {
		t.Fatalf("err = %v, want queue-full overload", err)
	}
	var oe *OverloadedError
	if !errors.As(err, &oe) || oe.RetryAfter <= 0 {
		t.Fatalf("err = %#v, want *OverloadedError with positive RetryAfter", err)
	}
	if !findTraceState(e, "rejected") {
		t.Error("no trace with state=rejected in the ring after a queue-full rejection")
	}
}

// orderBackend records the seed of every compilation as it starts, parking
// each until released — the scheduler-order probe.
type orderBackend struct {
	mu      sync.Mutex
	order   []int64
	started chan int64
	release chan struct{}
}

func newOrderBackend() *orderBackend {
	return &orderBackend{started: make(chan int64, 64), release: make(chan struct{})}
}

func (b *orderBackend) compile(ctx context.Context, _ compiler.Backend, _ compiler.Target, circ *circuit.Circuit, opts compiler.Options) (*compiler.Result, error) {
	b.mu.Lock()
	b.order = append(b.order, opts.Seed)
	b.mu.Unlock()
	b.started <- opts.Seed
	select {
	case <-b.release:
		return stubResult(circ), nil
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// TestPriorityScheduling: with batch jobs queued ahead in wall-clock time,
// a later interactive submission must still run first once the worker frees
// up — the batch queue cannot starve interactive.
func TestPriorityScheduling(t *testing.T) {
	backend := newOrderBackend()
	e := newEngine(Config{Workers: 1, QueueSize: 8}, backend.compile)
	defer e.Close()

	ids := make([]string, 0, 4)
	submit := func(seed int64, prio string) {
		j, err := e.Submit(context.Background(), Request{Benchmark: "H2-4", Seed: seed, Priority: prio})
		if err != nil {
			t.Fatalf("submit seed %d: %v", seed, err)
		}
		ids = append(ids, j.ID)
	}
	submit(1, PriorityBatch)
	<-backend.started // worker is parked on seed 1
	submit(2, PriorityBatch)
	submit(3, PriorityBatch)
	submit(4, PriorityInteractive)
	close(backend.release)
	for _, id := range ids {
		waitState(t, e, id, StateDone)
	}

	backend.mu.Lock()
	order := append([]int64(nil), backend.order...)
	backend.mu.Unlock()
	if len(order) != 4 || order[0] != 1 || order[1] != 4 {
		t.Fatalf("execution order = %v, want [1 4 ...] (interactive overtakes queued batch)", order)
	}
}

// TestUnknownPriorityRejected: a bogus priority is a 400-class request error.
func TestUnknownPriorityRejected(t *testing.T) {
	e := New(Config{Workers: 1})
	defer e.Close()
	_, err := e.Submit(context.Background(), Request{Benchmark: "H2-4", Priority: "urgent"})
	var re *RequestError
	if !errors.As(err, &re) {
		t.Fatalf("err = %v, want RequestError for unknown priority", err)
	}
}

// TestPoolResizeUnderLoad drives concurrent submissions while the pool grows
// and shrinks; the live count must converge to each target and no job may be
// lost. Run with -race in CI.
func TestPoolResizeUnderLoad(t *testing.T) {
	e := newEngine(Config{Workers: 2, WorkersMin: 1, WorkersMax: 8, QueueSize: 256, CacheSize: 4096},
		func(ctx context.Context, _ compiler.Backend, _ compiler.Target, circ *circuit.Circuit, _ compiler.Options) (*compiler.Result, error) {
			select {
			case <-time.After(time.Millisecond):
			case <-ctx.Done():
				return nil, ctx.Err()
			}
			return stubResult(circ), nil
		})
	defer e.Close()

	var wg sync.WaitGroup
	var failures atomic.Int64
	stop := make(chan struct{})
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				j, err := e.Compile(context.Background(), Request{Benchmark: "H2-4", Seed: int64(g*100000 + i)})
				if err != nil && !errors.Is(err, ErrOverloaded) {
					failures.Add(1)
					return
				}
				if err == nil && j.State != StateDone {
					failures.Add(1)
					return
				}
			}
		}(g)
	}

	waitLive := func(want int) {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for time.Now().Before(deadline) {
			if e.Stats().Workers == want {
				return
			}
			time.Sleep(2 * time.Millisecond)
		}
		t.Fatalf("Stats().Workers = %d, want %d", e.Stats().Workers, want)
	}
	for _, target := range []int{8, 1, 6, 2} {
		if applied := e.Resize(target); applied != target {
			t.Fatalf("Resize(%d) applied %d", target, applied)
		}
		waitLive(target)
	}
	// Clamping: targets outside [min, max] saturate.
	if applied := e.Resize(100); applied != 8 {
		t.Errorf("Resize(100) applied %d, want clamp to 8", applied)
	}
	if applied := e.Resize(0); applied != 1 {
		t.Errorf("Resize(0) applied %d, want clamp to 1", applied)
	}
	close(stop)
	wg.Wait()
	if n := failures.Load(); n != 0 {
		t.Fatalf("%d submissions failed during resizes", n)
	}
	if st := e.Stats(); st.WorkersMin != 1 || st.WorkersMax != 8 || st.WorkersTarget != 1 {
		t.Errorf("stats pool bounds = [%d,%d] target %d, want [1,8] target 1",
			st.WorkersMin, st.WorkersMax, st.WorkersTarget)
	}
}

// TestShrinkRetiresWorkersBetweenJobs: shrinking a busy pool retires no
// worker mid-job; the surplus worker leaves once its job is done.
func TestShrinkRetiresWorkersBetweenJobs(t *testing.T) {
	backend := newBlockingBackend()
	e := newEngine(Config{Workers: 2, WorkersMin: 1, WorkersMax: 2}, backend.compile)
	defer e.Close()

	var ids []string
	for seed := int64(1); seed <= 2; seed++ {
		j, err := e.Submit(context.Background(), Request{Benchmark: "H2-4", Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, j.ID)
		<-backend.started
	}
	e.Resize(1)
	if st := e.Stats(); st.Workers != 2 || st.WorkersTarget != 1 {
		t.Fatalf("workers = %d (target %d) with both busy, want 2 (target 1)", st.Workers, st.WorkersTarget)
	}
	close(backend.release)
	for _, id := range ids {
		waitState(t, e, id, StateDone)
	}
	deadline := time.Now().Add(5 * time.Second)
	for e.Stats().Workers != 1 {
		if time.Now().After(deadline) {
			t.Fatalf("workers = %d once idle, want 1", e.Stats().Workers)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestResizeRacingCloseLeavesNoWorker: a Resize racing Close either lands
// first, and Close waits for the workers it started, or lands after, and
// starts none. No worker outlives Close. Run with -race.
func TestResizeRacingCloseLeavesNoWorker(t *testing.T) {
	for round := 0; round < 50; round++ {
		e := newEngine(Config{Workers: 1, WorkersMin: 1, WorkersMax: 8}, defaultCompile)
		var resizers sync.WaitGroup
		for g := 0; g < 4; g++ {
			resizers.Add(1)
			go func() {
				defer resizers.Done()
				for i := 0; i < 20; i++ {
					e.Resize(1 + 7*(i%2))
				}
			}()
		}
		e.Close()
		if n := e.Stats().Workers; n != 0 {
			t.Fatalf("round %d: %d workers live after Close returned, want 0", round, n)
		}
		resizers.Wait()
		if n := e.Stats().Workers; n != 0 {
			t.Fatalf("round %d: %d workers live after Resize calls that lost to Close, want 0", round, n)
		}
	}
}

// TestCloseFailsQueuedAndBlockedJobs: Close fails the job still queued with
// ErrClosed rather than running it, and a blocking batch enqueue waiting on
// the full queue returns ErrClosed. Run with -race.
func TestCloseFailsQueuedAndBlockedJobs(t *testing.T) {
	for round := 0; round < 20; round++ {
		backend := newBlockingBackend()
		e := newEngine(Config{Workers: 1, QueueSize: 1}, backend.compile)
		ctx := context.Background()
		if _, err := e.Submit(ctx, Request{Benchmark: "H2-4", Seed: 1}); err != nil {
			t.Fatal(err)
		}
		<-backend.started
		queued, err := e.Submit(ctx, Request{Benchmark: "H2-4", Seed: 2, Priority: PriorityBatch})
		if err != nil {
			t.Fatal(err)
		}
		tk, err := e.resolve(Request{Benchmark: "H2-4", Seed: 3, Priority: PriorityBatch})
		if err != nil {
			t.Fatal(err)
		}
		blocked := make(chan error, 1)
		go func() {
			_, err := e.enqueue(obs.ContextWithTraceID(ctx, "blocked"), tk, true)
			blocked <- err
		}()
		for len(jobsByTrace(e, "blocked")) == 0 {
			time.Sleep(time.Millisecond)
		}
		e.Close()
		if err := <-blocked; !errors.Is(err, ErrClosed) {
			t.Fatalf("round %d: blocked batch enqueue returned %v, want ErrClosed", round, err)
		}
		if j, _ := e.JobByID(queued.ID); j.State != StateFailed || !strings.Contains(j.Error, ErrClosed.Error()) {
			t.Fatalf("round %d: queued job after Close: %s %q, want failed with %q", round, j.State, j.Error, ErrClosed)
		}
		if n := len(backend.started); n != 0 {
			t.Fatalf("round %d: %d queued jobs started, want 0", round, n)
		}
		close(backend.release)
	}
}

// TestGivenUpBlockedEnqueueReturns: a blocking batch enqueue waiting on the
// full queue returns context.Canceled as soon as its caller gives up, not
// when a slot frees, and its job leaves the job table. Run with -race.
func TestGivenUpBlockedEnqueueReturns(t *testing.T) {
	backend := newBlockingBackend()
	e := newEngine(Config{Workers: 1, QueueSize: 1}, backend.compile)
	defer e.Close()
	defer close(backend.release)
	ctx := context.Background()
	if _, err := e.Submit(ctx, Request{Benchmark: "H2-4", Seed: 1}); err != nil {
		t.Fatal(err)
	}
	<-backend.started
	if _, err := e.Submit(ctx, Request{Benchmark: "H2-4", Seed: 2, Priority: PriorityBatch}); err != nil {
		t.Fatal(err)
	}
	tk, err := e.resolve(Request{Benchmark: "H2-4", Seed: 3, Priority: PriorityBatch})
	if err != nil {
		t.Fatal(err)
	}
	waitCtx, giveUp := context.WithCancel(obs.ContextWithTraceID(ctx, "given-up"))
	blocked := make(chan error, 1)
	go func() {
		_, err := e.enqueue(waitCtx, tk, true)
		blocked <- err
	}()
	for len(jobsByTrace(e, "given-up")) == 0 {
		time.Sleep(time.Millisecond)
	}
	giveUp()
	select {
	case err := <-blocked:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("given-up batch enqueue returned %v, want context.Canceled", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("given-up batch enqueue still blocked on the full queue")
	}
	if js := jobsByTrace(e, "given-up"); len(js) != 0 {
		t.Fatalf("given-up job still in the job table: %+v", js[0])
	}
}

// TestCancelVsFinishRace hammers the Cancel-while-finishing window: every
// job must land in exactly done or cancelled, never wedge. Run with -race.
func TestCancelVsFinishRace(t *testing.T) {
	e := newEngine(Config{Workers: 4, QueueSize: 64, CacheSize: 4096},
		func(ctx context.Context, _ compiler.Backend, _ compiler.Target, circ *circuit.Circuit, _ compiler.Options) (*compiler.Result, error) {
			select {
			case <-time.After(100 * time.Microsecond):
			case <-ctx.Done():
				return nil, ctx.Err()
			}
			return stubResult(circ), nil
		})
	defer e.Close()

	for i := 0; i < 200; i++ {
		j, err := e.Submit(context.Background(), Request{Benchmark: "H2-4", Seed: int64(i)})
		if err != nil {
			t.Fatal(err)
		}
		if i%2 == 0 {
			e.Cancel(j.ID) //nolint:errcheck // racing cancel may lose to finish
		}
		waitState(t, e, j.ID, StateDone, StateCancelled, StateFailed)
	}
}

// TestCoalescedWaiterTakeover: cancel the job that owns an in-flight cache
// entry while an identical job waits on it — the waiter must take over the
// computation and finish, not hang on the dead owner. Run with -race.
func TestCoalescedWaiterTakeover(t *testing.T) {
	backend := newBlockingBackend()
	e := newEngine(Config{Workers: 2, QueueSize: 8}, backend.compile)
	defer e.Close()

	owner, err := e.Submit(context.Background(), Request{Benchmark: "H2-4", Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	<-backend.started // owner holds the in-flight cache entry
	waiter, err := e.Submit(context.Background(), Request{Benchmark: "H2-4", Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if ok, err := e.Cancel(owner.ID); !ok || err != nil {
		t.Fatalf("cancel owner: ok=%v err=%v", ok, err)
	}
	waitState(t, e, owner.ID, StateCancelled)
	// The waiter must re-enter the backend (second started event) and finish
	// once released.
	select {
	case <-backend.started:
	case <-time.After(5 * time.Second):
		t.Fatal("waiter never took over the computation")
	}
	close(backend.release)
	if j := waitState(t, e, waiter.ID, StateDone); j.Error != "" {
		t.Fatalf("waiter error: %s", j.Error)
	}
}

// TestAdmissionShedIsObservable wires a real controller at a tight objective
// and verifies a shed submission surfaces the whole contract: typed error
// with retry advice, per-class counters, and stats fields.
func TestAdmissionShedIsObservable(t *testing.T) {
	backend := newBlockingBackend()
	e := newEngine(Config{Workers: 1, WorkersMin: 1, WorkersMax: 1, QueueSize: 64,
		Admission: admission.Config{
			Enabled:         true,
			Interval:        2 * time.Millisecond,
			TargetQueueWait: 5 * time.Millisecond,
			// One slow synthetic service-time estimate so a small backlog
			// already predicts objective-busting waits.
			DefaultServiceSeconds: 0.5,
		}}, backend.compile)
	defer e.Close()
	defer close(backend.release)

	if _, err := e.Submit(context.Background(), Request{Benchmark: "H2-4", Seed: 1, Priority: PriorityBatch}); err != nil {
		t.Fatal(err)
	}
	<-backend.started
	// Build a batch backlog, then wait for the controller to flip shedding.
	for i := int64(2); i < 10; i++ {
		e.Submit(context.Background(), Request{Benchmark: "H2-4", Seed: i, Priority: PriorityBatch}) //nolint:errcheck // may shed once flipped
	}
	var shedErr error
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		_, err := e.Submit(context.Background(), Request{Benchmark: "H2-4", Seed: time.Now().UnixNano(), Priority: PriorityBatch})
		if err != nil && !errors.Is(err, ErrQueueFull) {
			shedErr = err
			break
		}
		time.Sleep(2 * time.Millisecond)
	}
	if shedErr == nil {
		t.Fatal("controller never shed batch traffic over a saturated worker")
	}
	var oe *OverloadedError
	if !errors.As(shedErr, &oe) || oe.QueueFull || oe.RetryAfter <= 0 || oe.Reason == "" {
		t.Fatalf("shed error = %#v, want non-queue-full overload with retry advice", shedErr)
	}
	if !errors.Is(shedErr, ErrOverloaded) || errors.Is(shedErr, ErrQueueFull) {
		t.Fatalf("shed error identity wrong: %v", shedErr)
	}
	st := e.Stats()
	if st.Admission == nil {
		t.Fatal("Stats().Admission nil with controller enabled")
	}
	if !st.Admission.ShedBatch || st.Admission.ShedBatchTotal == 0 {
		t.Errorf("admission stats = %+v, want batch shedding recorded", st.Admission)
	}
	if st.Admission.ShedInteractive {
		t.Errorf("interactive shedding with an empty interactive queue: %+v", st.Admission)
	}
	// The decision trace ring must carry an admission tick trace.
	found := false
	for _, tr := range e.tel.traces.Recent(100) {
		if snap := tr.Root.Snapshot(); snap != nil && snap.Name == "admission" {
			found = true
			break
		}
	}
	if !found {
		t.Error("no admission tick trace in the ring while shedding")
	}
	var buf strings.Builder
	if err := e.tel.registry.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		`atomique_admission_decisions_total{priority="batch",decision="shed"}`,
		"atomique_admission_shed_batch 1",
	} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("exposition missing %q", want)
		}
	}
}
