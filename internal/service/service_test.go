package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"atomique/internal/bench"
	"atomique/internal/circuit"
	"atomique/internal/compiler"
	"atomique/internal/core"
	"atomique/internal/fidelity"
	"atomique/internal/hardware"
	"atomique/internal/metrics"
	"atomique/internal/report"
)

// stripTrace removes the request-scoped trace fields from result bytes:
// cache-identity assertions compare the content-addressed payload, which by
// design excludes the per-job traceId/trace splice.
func stripTrace(t *testing.T, raw json.RawMessage) []byte {
	t.Helper()
	out, err := report.WithTrace([]byte(raw), "", nil)
	if err != nil {
		t.Fatalf("strip trace: %v", err)
	}
	return out
}

// waitState polls until the job reaches a state in want or the deadline hits.
func waitState(t *testing.T, e *Engine, id string, want ...State) *Job {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		j, ok := e.JobByID(id)
		if !ok {
			t.Fatalf("job %s disappeared", id)
		}
		for _, s := range want {
			if j.State == s {
				return j
			}
		}
		time.Sleep(2 * time.Millisecond)
	}
	j, _ := e.JobByID(id)
	t.Fatalf("job %s stuck in state %s, want one of %v", id, j.State, want)
	return nil
}

func TestCompileNamedBenchmark(t *testing.T) {
	e := New(Config{Workers: 2})
	defer e.Close()
	j, err := e.Compile(context.Background(), Request{Benchmark: "H2-4", Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if j.State != StateDone {
		t.Fatalf("state = %s, want done (err %q)", j.State, j.Error)
	}
	if len(j.Result) == 0 {
		t.Fatal("no result envelope")
	}
	if j.CircuitHash == "" {
		t.Fatal("no circuit hash")
	}
	if !j.FinishedAt.After(j.SubmittedAt) {
		t.Fatalf("finishedAt %v not after submittedAt %v", j.FinishedAt, j.SubmittedAt)
	}
}

// TestBenchmarkFingerprint: a named-benchmark request carries the registry
// circuit's fingerprint, on its first request, on a repeat (under another
// spelling of the name) and on a second engine. Each engine hashes a registry
// circuit once, on first use, and New hashes none.
func TestBenchmarkFingerprint(t *testing.T) {
	b, ok := bench.ByName("H2-4")
	if !ok {
		t.Fatal("H2-4 not registered")
	}
	want := b.Circ.Fingerprint()
	for i := 0; i < 2; i++ {
		e := New(Config{Workers: 1})
		if n := len(e.benchFP); n != 0 {
			t.Errorf("engine %d: New stored %d fingerprints, want 0", i, n)
		}
		for _, name := range []string{"H2-4", "h2-4"} {
			j, err := e.Compile(context.Background(), Request{Benchmark: name, Seed: 1})
			if err != nil {
				t.Fatal(err)
			}
			if j.CircuitHash != want {
				t.Errorf("engine %d, %q: circuitHash = %s, want %s", i, name, j.CircuitHash, want)
			}
		}
		if len(e.benchFP) != 1 || e.benchFP[b.Name] != want {
			t.Errorf("engine %d: %d fingerprints stored, %s = %q; want 1 and %s", i, len(e.benchFP), b.Name, e.benchFP[b.Name], want)
		}
		e.Close()
	}
}

// TestPassTimingsInStatsAndEnvelope covers the pipeline instrumentation
// end to end: a real compilation surfaces per-pass timings both in the
// result envelope (metrics.passes) and in the engine-wide Stats aggregate,
// while cache hits leave the aggregate untouched.
func TestPassTimingsInStatsAndEnvelope(t *testing.T) {
	e := New(Config{Workers: 2})
	defer e.Close()
	j, err := e.Compile(context.Background(), Request{Benchmark: "H2-4", Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	var env struct {
		Metrics struct {
			Passes []struct {
				Name    string  `json:"name"`
				Seconds float64 `json:"seconds"`
			} `json:"passes"`
		} `json:"metrics"`
	}
	if err := json.Unmarshal(j.Result, &env); err != nil {
		t.Fatal(err)
	}
	names := core.PassNames()
	if len(env.Metrics.Passes) != len(names) {
		t.Fatalf("envelope has %d passes, want %d", len(env.Metrics.Passes), len(names))
	}
	for i, p := range env.Metrics.Passes {
		if p.Name != names[i] {
			t.Errorf("envelope pass %d = %q, want %q", i, p.Name, names[i])
		}
	}

	st := e.Stats()
	if st.PassRuns != 1 {
		t.Fatalf("passRuns = %d, want 1", st.PassRuns)
	}
	for _, name := range names {
		if _, ok := st.PassSeconds[name]; !ok {
			t.Errorf("stats missing pass %q: %v", name, st.PassSeconds)
		}
	}

	// A cache hit performs no passes: the aggregate must not move.
	if _, err := e.Compile(context.Background(), Request{Benchmark: "H2-4", Seed: 1}); err != nil {
		t.Fatal(err)
	}
	if st := e.Stats(); st.PassRuns != 1 {
		t.Errorf("passRuns after cache hit = %d, want 1", st.PassRuns)
	}
}

func TestResolveErrors(t *testing.T) {
	e := New(Config{Workers: 1})
	defer e.Close()
	cases := []struct {
		name string
		req  Request
	}{
		{"empty", Request{}},
		{"both", Request{Benchmark: "H2-4", QASM: "qreg q[2];"}},
		{"unknown benchmark", Request{Benchmark: "no-such-bench"}},
		{"bad relax", Request{Benchmark: "H2-4", Relax: "1,9"}},
		{"too many qubits", Request{Benchmark: "QAOA-regu6-100", SLM: 4, AODs: 2, AODSize: 4}},
		{"negative override", Request{Benchmark: "H2-4", AODs: -1}},
		{"bad qasm", Request{QASM: "OPENQASM 2.0;\nqreg q[2];\nfrobnicate q[0];"}},
		// Machine overrides past the hardware caps (256 per axis, 16 AODs).
		{"huge aod side", Request{Benchmark: "H2-4", AODSize: 4000}},
		{"huge aod count", Request{Benchmark: "H2-4", AODs: 16777216}},
		{"many aods", Request{Benchmark: "H2-4", AODs: 100000}},
		{"huge slm side", Request{Benchmark: "H2-4", SLM: 4000}},
		// A qreg past qasm.MaxQubits fails the parse, and one past the
		// backend's MaxQubits fails its width check, before any work
		// proportional to the width.
		{"4096 qubits on the largest machine", Request{QASM: cxChain(4096), SLM: 256, AODs: 16, AODSize: 256}},
	}
	for _, name := range compiler.Names() {
		cases = append(cases, struct {
			name string
			req  Request
		}{name + " 100000 qubits", Request{Backend: name, QASM: "qreg q[100000]; h q[0]; cx q[0],q[1];"}})
	}
	for _, tc := range cases {
		_, err := e.Submit(context.Background(), tc.req)
		var re *RequestError
		if !errors.As(err, &re) {
			t.Errorf("%s: err = %v, want *RequestError", tc.name, err)
		}
	}
	// Parse errors carry the source line.
	_, err := e.Submit(context.Background(), Request{QASM: "OPENQASM 2.0;\nqreg q[2];\nfrobnicate q[0];"})
	var re *RequestError
	if !errors.As(err, &re) || re.Line != 3 {
		t.Fatalf("qasm error = %#v, want line 3", err)
	}
}

// cxChain is an n-qubit CX chain in OpenQASM.
func cxChain(n int) string {
	var b strings.Builder
	fmt.Fprintf(&b, "qreg q[%d];\n", n)
	for q := 0; q+1 < n; q++ {
		fmt.Fprintf(&b, "cx q[%d],q[%d];\n", q, q+1)
	}
	return b.String()
}

// TestConcurrentIdenticalRequests is the cache acceptance check: N identical
// requests issued concurrently compile exactly once (1 miss, N-1 coalesced
// hits) and every response carries byte-identical envelope JSON.
func TestConcurrentIdenticalRequests(t *testing.T) {
	const n = 8
	e := New(Config{Workers: 4})
	defer e.Close()
	req := Request{Benchmark: "H2-4", Seed: 7}

	var wg sync.WaitGroup
	results := make([]*Job, n)
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], errs[i] = e.Compile(context.Background(), req)
		}(i)
	}
	wg.Wait()

	for i := 0; i < n; i++ {
		if errs[i] != nil {
			t.Fatalf("request %d: %v", i, errs[i])
		}
		if results[i].State != StateDone {
			t.Fatalf("request %d: state %s (%s)", i, results[i].State, results[i].Error)
		}
		if !bytes.Equal(stripTrace(t, results[i].Result), stripTrace(t, results[0].Result)) {
			t.Fatalf("request %d: result bytes differ from request 0", i)
		}
	}
	st := e.Stats()
	if st.CacheMisses != 1 {
		t.Errorf("cache misses = %d, want 1", st.CacheMisses)
	}
	if st.CacheHits != n-1 {
		t.Errorf("cache hits = %d, want %d", st.CacheHits, n-1)
	}
	if st.CacheEntries != 1 {
		t.Errorf("cache entries = %d, want 1", st.CacheEntries)
	}

	// A later identical request is also a pure hit with identical bytes.
	again, err := e.Compile(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if !again.Cached {
		t.Error("repeat request not marked cached")
	}
	if !bytes.Equal(stripTrace(t, again.Result), stripTrace(t, results[0].Result)) {
		t.Error("repeat request result bytes differ")
	}
	// A different seed is a different key.
	other, err := e.Compile(context.Background(), Request{Benchmark: "H2-4", Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	if other.Cached {
		t.Error("different-seed request unexpectedly cached")
	}
}

// TestCacheKeyIncludesBackend pins the no-aliasing property: the same
// circuit, seed, and device compiled by two different backends must occupy
// two cache entries, and every key component perturbs the key.
func TestCacheKeyIncludesBackend(t *testing.T) {
	e := New(Config{Workers: 2})
	defer e.Close()

	atom, err := e.resolve(Request{Benchmark: "H2-4", Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	qp, err := e.resolve(Request{Benchmark: "H2-4", Seed: 1, Backend: "qpilot"})
	if err != nil {
		t.Fatal(err)
	}
	if atom.key == qp.key {
		t.Fatal("atomique and qpilot resolve to the same cache key")
	}
	// Both backends see FPQA targets here, so the only difference is the
	// backend name component.
	if atom.hash != qp.hash {
		t.Fatal("same circuit produced different fingerprints")
	}

	// End to end: compiling the same request on two backends yields two
	// misses and two cache entries, never a cross-backend hit.
	for _, backend := range []string{"", "qpilot"} {
		if _, err := e.Compile(context.Background(), Request{Benchmark: "H2-4", Seed: 1, Backend: backend}); err != nil {
			t.Fatal(err)
		}
	}
	st := e.Stats()
	if st.CacheMisses != 2 || st.CacheHits != 0 || st.CacheEntries != 2 {
		t.Errorf("misses/hits/entries = %d/%d/%d, want 2/0/2", st.CacheMisses, st.CacheHits, st.CacheEntries)
	}
}

// TestResolveBudgetAndCapacity pins two resolve behaviours: the budget
// field reaches the backend options (negative rejected), and the machine
// capacity check applies only to backends that place qubits on the machine
// (qpilot lays out its own geometry, so over-capacity circuits are fine).
func TestResolveBudgetAndCapacity(t *testing.T) {
	e := New(Config{Workers: 1})
	defer e.Close()

	tk, err := e.resolve(Request{Benchmark: "H2-4", Backend: "solverref", Exact: true, Budget: 1.5})
	if err != nil {
		t.Fatal(err)
	}
	if !tk.opts.Exact || tk.opts.BudgetSeconds != 1.5 {
		t.Errorf("opts = %+v, want Exact with 1.5s budget", tk.opts)
	}
	var re *RequestError
	if _, err := e.resolve(Request{Benchmark: "H2-4", Budget: -1}); !errors.As(err, &re) {
		t.Errorf("negative budget err = %v, want *RequestError", err)
	}

	big := "OPENQASM 2.0;\nqreg q[350];\ncx q[0],q[1];\n" // over the 300-site default machine
	if _, err := e.resolve(Request{QASM: big, Backend: "qpilot"}); err != nil {
		t.Errorf("qpilot over-capacity resolve rejected: %v", err)
	}
	if _, err := e.resolve(Request{QASM: big}); !errors.As(err, &re) {
		t.Errorf("atomique over-capacity err = %v, want *RequestError", err)
	}
}

// TestTimedOutResultsNotCached: a budget-bounded solver run that times out
// reflects wall-clock load, not the inputs, so it must never poison the
// cache — an identical later request recompiles.
func TestTimedOutResultsNotCached(t *testing.T) {
	calls := 0
	e := newEngine(Config{Workers: 1}, func(_ context.Context, _ compiler.Backend, _ compiler.Target, circ *circuit.Circuit, _ compiler.Options) (*compiler.Result, error) {
		calls++
		return &compiler.Result{Backend: "stub", TimedOut: true,
			Metrics: metrics.Compiled{Arch: "stub", Counts: fidelity.Counts{NQubits: circ.N}}}, nil
	})
	defer e.Close()
	for i := 0; i < 2; i++ {
		j, err := e.Compile(context.Background(), Request{Benchmark: "H2-4", Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		if j.State != StateDone {
			t.Fatalf("attempt %d state = %s", i, j.State)
		}
	}
	if calls != 2 {
		t.Errorf("backend ran %d times, want 2 (timed-out outcome must not be cached)", calls)
	}
	if st := e.Stats(); st.CacheEntries != 0 {
		t.Errorf("cache entries = %d, want 0", st.CacheEntries)
	}
}

// TestResolveDefaultBackend: an empty backend field selects atomique.
func TestResolveDefaultBackend(t *testing.T) {
	e := New(Config{Workers: 1})
	defer e.Close()
	tk, err := e.resolve(Request{Benchmark: "H2-4"})
	if err != nil {
		t.Fatal(err)
	}
	if tk.backend.Name() != DefaultBackend {
		t.Errorf("default backend = %q, want %q", tk.backend.Name(), DefaultBackend)
	}
	if tk.target.Kind != compiler.KindFPQA {
		t.Errorf("default target kind = %q, want fpqa", tk.target.Kind)
	}
}

// blockingBackend is a compile stub that parks until released (or its
// context is cancelled), for queue and cancellation tests.
type blockingBackend struct {
	started chan string // job labels as they enter the backend
	release chan struct{}
}

func newBlockingBackend() *blockingBackend {
	return &blockingBackend{started: make(chan string, 16), release: make(chan struct{})}
}

func (b *blockingBackend) compile(ctx context.Context, _ compiler.Backend, _ compiler.Target, circ *circuit.Circuit, _ compiler.Options) (*compiler.Result, error) {
	b.started <- "started"
	select {
	case <-b.release:
		return &compiler.Result{Backend: "stub", Metrics: metrics.Compiled{Arch: "stub", Counts: fidelity.Counts{NQubits: circ.N}}}, nil
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

func TestQueueBackpressure(t *testing.T) {
	backend := newBlockingBackend()
	e := newEngine(Config{Workers: 1, QueueSize: 1}, backend.compile)
	defer e.Close()

	// First job occupies the single worker.
	if _, err := e.Submit(context.Background(), Request{Benchmark: "H2-4", Seed: 1}); err != nil {
		t.Fatal(err)
	}
	<-backend.started
	// Second job fills the queue.
	if _, err := e.Submit(context.Background(), Request{Benchmark: "H2-4", Seed: 2}); err != nil {
		t.Fatal(err)
	}
	// Third submission must be rejected.
	if _, err := e.Submit(context.Background(), Request{Benchmark: "H2-4", Seed: 3}); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("err = %v, want ErrQueueFull", err)
	}
	if st := e.Stats(); st.Rejected != 1 {
		t.Errorf("rejected = %d, want 1", st.Rejected)
	}
	close(backend.release)
}

func TestJobCancellation(t *testing.T) {
	backend := newBlockingBackend()
	e := newEngine(Config{Workers: 1, QueueSize: 4}, backend.compile)
	defer e.Close()

	running, err := e.Submit(context.Background(), Request{Benchmark: "H2-4", Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	<-backend.started
	queued, err := e.Submit(context.Background(), Request{Benchmark: "H2-4", Seed: 2})
	if err != nil {
		t.Fatal(err)
	}

	// Cancel the queued job first: the worker must skip it.
	if ok, err := e.Cancel(queued.ID); !ok || err != nil {
		t.Fatalf("cancel queued: ok=%v err=%v", ok, err)
	}
	// Cancel the running job: the backend observes ctx and aborts.
	if ok, err := e.Cancel(running.ID); !ok || err != nil {
		t.Fatalf("cancel running: ok=%v err=%v", ok, err)
	}
	r := waitState(t, e, running.ID, StateCancelled)
	if r.Error == "" {
		t.Error("cancelled job has no error message")
	}
	waitState(t, e, queued.ID, StateCancelled)

	if st := e.Stats(); st.Cancelled != 2 {
		t.Errorf("cancelled = %d, want 2", st.Cancelled)
	}
	// Cancelling a finished job is a conflict; unknown jobs are not found.
	if ok, err := e.Cancel(running.ID); !ok || err == nil {
		t.Errorf("re-cancel finished: ok=%v err=%v, want conflict", ok, err)
	}
	if ok, _ := e.Cancel("job-999999"); ok {
		t.Error("cancel of unknown job reported found")
	}
}

// TestCancelledQueuedJobFreesSlot: cancelling the only queued job takes it
// out of the queue, so the next fail-fast submission of its class gets the
// slot, and the cancelled job never starts.
func TestCancelledQueuedJobFreesSlot(t *testing.T) {
	backend := newBlockingBackend()
	e := newEngine(Config{Workers: 1, QueueSize: 1}, backend.compile)
	defer e.Close()

	running, err := e.Submit(context.Background(), Request{Benchmark: "H2-4", Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	<-backend.started
	queued, err := e.Submit(context.Background(), Request{Benchmark: "H2-4", Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if ok, err := e.Cancel(queued.ID); !ok || err != nil {
		t.Fatalf("cancel queued: ok=%v err=%v", ok, err)
	}
	if st := e.Stats(); st.QueueDepth != 0 {
		t.Errorf("queue depth = %d after cancelling the only queued job, want 0", st.QueueDepth)
	}
	next, err := e.Submit(context.Background(), Request{Benchmark: "H2-4", Seed: 3})
	if err != nil {
		t.Fatalf("submit after the cancel: %v, want the freed slot", err)
	}
	close(backend.release)
	waitState(t, e, running.ID, StateDone)
	waitState(t, e, next.ID, StateDone)
	if n := len(backend.started); n != 1 {
		t.Errorf("%d compilations started after the first, want 1 (the cancelled job must not run)", n)
	}
}

func TestCacheEviction(t *testing.T) {
	e := New(Config{Workers: 2, CacheSize: 2})
	defer e.Close()
	for seed := int64(1); seed <= 3; seed++ {
		if _, err := e.Compile(context.Background(), Request{Benchmark: "H2-4", Seed: seed}); err != nil {
			t.Fatal(err)
		}
	}
	if st := e.Stats(); st.CacheEntries != 2 {
		t.Errorf("cache entries = %d, want 2 after eviction", st.CacheEntries)
	}
	// Seed 1 was evicted (LRU), so it recompiles: a miss, not a hit.
	before := e.Stats().CacheMisses
	if _, err := e.Compile(context.Background(), Request{Benchmark: "H2-4", Seed: 1}); err != nil {
		t.Fatal(err)
	}
	if after := e.Stats().CacheMisses; after != before+1 {
		t.Errorf("misses = %d, want %d (evicted key must recompile)", after, before+1)
	}
}

// TestCompileContextCancellation checks the router-loop cancellation hook
// end to end: a cancelled context aborts core.CompileContext.
func TestCompileContextCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	b, ok := bench.ByName("QAOA-regu5-40")
	if !ok {
		t.Fatal("benchmark missing")
	}
	_, err := core.CompileContext(ctx, hardware.DefaultConfig(), b.Circ, core.Options{Seed: 1})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}
