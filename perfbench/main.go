// Command perfbench is the repository's end-to-end benchmark. It runs the
// compile service (service.New with atomiqued's flag defaults) behind
// httptest.NewServer in its own process and drives it from that process
// over loopback HTTP with a closed loop of two clients, then checks every
// reply.
//
// Usage, from the repository root (one workload per run; loop over the
// four for the whole table):
//
//	bash perfbench/run.sh --workload compile-cold --seed 1 --seconds 20 --trace 0
//	for w in compile-cold compile-hot shots baselines; do
//		bash perfbench/run.sh --workload $w --seed 1 --seconds 20 --trace 0
//	done
//
// Workloads (see BENCHMARK.json for why each exists): compile-cold,
// compile-hot, shots, baselines. Every request is generated from --seed
// before the engine starts. With --trace 0 the run measures the
// end-to-end metrics over --seconds. With --trace 1 it splits --seconds
// between an untraced window and a traced repeat of it with a client and a
// handler span per request, then replays a seeded sample of those requests
// on one goroutine, timing the public entry point of each layer
// (internal/service down to internal/core, internal/noise and
// internal/report), and reports the per-layer metrics, each layer's share
// of self time, and the tracing overhead. The last line of standard output
// is one JSON object: {"correct", "attempted", "failed", "metrics"}.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
	"unsafe"
)

// config is one run's settings.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	// requests caps each timed window's requests (0: no cap); the
	// benchmark's own test uses it for short runs.
	requests int
	spansDir string
	out      io.Writer
}

// setups is how many times a run constructs and warms the engine; setup_s
// is their median and the last one serves the timed windows.
const setups = 5

// metric is one printed number.
type metric struct {
	value float64
	unit  string
	n     int    // samples behind it
	note  string // how it was taken
}

// result is a run's outcome.
type result struct {
	Correct   bool                       `json:"correct"`
	Attempted int                        `json:"attempted"`
	Failed    int                        `json:"failed"`
	Metrics   map[string]json.RawMessage `json:"metrics"`
}

func main() {
	var c config
	flag.StringVar(&c.workload, "workload", "", "workload: "+strings.Join(workloadNames, ", "))
	flag.Int64Var(&c.seed, "seed", 1, "seed for every generated input")
	flag.Float64Var(&c.seconds, "seconds", 10, "length of the timed window in seconds")
	trace := flag.Int("trace", 0, "1: add the traced run and print per-layer metrics instead of end-to-end ones")
	flag.Parse()
	c.trace = *trace == 1
	c.spansDir, c.out = ".bench_build/perfbench", os.Stdout
	res, err := run(c)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// capacity bounds the requests one window can send, far above any rate
// seen: compile-hot's indices are a few bytes each, the others' requests
// a few dozen.
func capacity(workload string, seconds float64) int {
	perSecond := 4000.0
	if workload == wlHot {
		perSecond = 60000
	}
	return int(perSecond*seconds) + 1000
}

// runState is one run's state once the engine is up.
type runState struct {
	c    config
	in   *inputs
	srv  *server
	loop *loop
	chk  *checker
	// warm holds the last set-up's warm-up replies.
	warm     [][]byte
	heapBase uint64
	d        time.Duration
}

func run(c config) (*result, error) {
	if c.seconds <= 0 {
		return nil, errors.New("--seconds must be positive")
	}
	out := c.out
	origin := time.Now()
	fmt.Fprintf(out, "perfbench: workload=%s seed=%d seconds=%g trace=%v\n", c.workload, c.seed, c.seconds, c.trace)
	fmt.Fprintf(out, "machine: nproc=%d gomaxprocs=%d go=%s os=%s/%s clients=%d\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), runtime.GOOS, runtime.GOARCH, clients)
	in, err := generate(c.workload, c.seed, capacity(c.workload, c.seconds))
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(out, "inputs: circuits=%d distinct=%d stream=%d warmup=%d request_digest=%s\n",
		len(in.circuits), len(in.reqs), in.len(), len(in.warm), in.digest())

	// A traced run splits --seconds between its untraced and its traced
	// window, so it costs about as much as an untraced run.
	d := time.Duration(c.seconds * float64(time.Second))
	if c.trace {
		d /= 2
	}
	b := &runState{c: c, in: in, heapBase: liveHeap(), d: d}
	var setupTimes []float64
	for i := 0; i < setups; i++ {
		if b.srv != nil {
			b.srv.close()
			b.srv.eng.Close()
		}
		var dt float64
		if b.srv, b.warm, dt, err = setup(in); err != nil {
			return nil, err
		}
		setupTimes = append(setupTimes, dt)
	}
	defer func() {
		b.srv.close()
		b.srv.eng.Close()
	}()
	b.chk = newChecker(in)
	if err := b.chk.setWarm(b.warm); err != nil {
		return nil, err
	}
	b.loop = &loop{in: in, chk: b.chk, origin: origin, limit: c.requests}

	w := b.loop.run(b.srv, 0, b.d, false, func(pos int) bool { return in.check[pos] })
	e2e := summarize(w, b.heapBase)
	e2e["setup_s"] = metric{value: median(setupTimes), unit: "s", n: len(setupTimes), note: "median of engine set-ups incl. warm-up"}
	// compile-hot's timed replies are byte-checked against the warm-up
	// replies, so those are the ones recompiled.
	var kept []checked
	if in.workload == wlHot {
		for i := range in.warm {
			kept = append(kept, checked{&in.warm[i], b.warm[i]})
		}
	}
	kept = append(kept, keptReplies(in, w)...)
	envs, fullFail := b.chk.runFull(kept)
	failures := append(windowFailures(w), fullFail...)
	e2e["ok_ratio"] = okRatio(len(failures), len(w.replies))
	fmt.Fprintf(out, "window: attempted=%d seconds=%.3f next=%d overflow=%v\n", len(w.replies), w.seconds, w.next, w.overflow)
	printChecks(out, b.chk, kept, envs, failures)
	res := &result{Correct: len(failures) == 0 && !w.overflow, Attempted: len(w.replies), Failed: len(failures), Metrics: map[string]json.RawMessage{}}
	for _, name := range e2eNames {
		printMetric(out, "metric", in.workload, name, e2e[name])
	}
	fail := e2e["ok_ratio"]
	fail.value = 1 - fail.value
	printMetric(out, "metric", in.workload, "fail_ratio", fail)
	if c.trace {
		return res, b.traced(res, e2e, w.next, len(w.replies), origin)
	}
	for _, name := range e2eNames {
		res.Metrics[name] = jsonMetric(e2e[name])
	}
	return res, nil
}

// traced is the traced run after the untraced window, which sent sent
// requests and stopped at stream position next. Phase 1 repeats the
// window, continuing the stream, with a client span and a handler span per
// request; phase 2 replays a seeded sample of those requests on this
// goroutine, timing each layer's entry point. It adds the per-layer
// metrics and the traced window's checks to res.
func (b *runState) traced(res *result, e2e map[string]metric, next, sent int, origin time.Time) error {
	in, out := b.in, b.c.out
	th := &timingHandler{next: b.srv.eng.Handler(), start: origin}
	ts := newServer(b.srv.eng, th)
	defer ts.close()
	p := 1.0
	if sent > replayTarget {
		p = float64(replayTarget) / float64(sent)
	}
	sample := rand.New(rand.NewSource(b.c.seed + 1))
	replaySet := map[int]bool{}
	for pos := next; pos < in.len() && pos < next+2*sent+replayTarget; pos++ {
		if sample.Float64() < p {
			replaySet[pos] = true
		}
	}
	w1 := b.loop.run(ts, next, b.d, true, func(pos int) bool { return in.check[pos] || replaySet[pos] })
	traced := summarize(w1, b.heapBase)
	_, fullFail := b.chk.runFull(keptReplies(in, w1))
	failures := append(windowFailures(w1), fullFail...)
	if len(failures) > 0 {
		fmt.Fprintf(out, "traced window: %d failed, first: %s\n", len(failures), failures[0])
	}
	traced["ok_ratio"] = okRatio(len(failures), len(w1.replies))
	res.Attempted += len(w1.replies)
	res.Failed += len(failures)
	res.Correct = res.Correct && len(failures) == 0 && !w1.overflow
	for _, name := range e2eNames[1:] { // one set-up serves both windows
		u, t := e2e[name], traced[name]
		note := ""
		if name == "heap_live_mb" {
			note = " (includes the job table filling further in the second window)"
		}
		fmt.Fprintf(out, "overhead %s untraced=%.6g traced=%.6g diff=%.6g %s%s\n", name, u.value, t.value, t.value-u.value, u.unit, note)
	}

	tr := newTracer(in, origin)
	if err := tr.prepare(b.warm); err != nil {
		return err
	}
	handlers := map[int]span{}
	th.mu.Lock()
	for _, h := range th.spans {
		handlers[h.req] = h
	}
	th.mu.Unlock()
	budget := time.Now().Add(min(max(time.Second, b.d/2), 5*time.Second))
	replayed := map[int]bool{}
	for i := range w1.replies {
		rep := &w1.replies[i]
		h, ok := handlers[rep.pos]
		if !ok {
			return fmt.Errorf("no handler span for request %d", rep.pos)
		}
		hi := tr.addHTTP(rep, h)
		if !replaySet[rep.pos] || rep.bad != "" || time.Now().After(budget) {
			continue
		}
		if err := tr.replay(hi, rep); err != nil {
			return fmt.Errorf("replay of request %d: %w", rep.pos, err)
		}
		replayed[rep.pos] = true
	}
	layers := layerValues(tr, w1, replayed)
	fmt.Fprintf(out, "traced: phase1_requests=%d replayed=%d spans=%d\n", len(w1.replies), len(replayed), len(tr.spans))
	for _, lm := range layerMetrics {
		m := layers[lm.name]
		m.note = "moves " + lm.moves
		printMetric(out, "layer", in.workload, lm.name, m)
		res.Metrics[lm.name] = jsonMetric(m)
	}
	var parts []string
	for _, ls := range shares(tr.spans, replayed) {
		parts = append(parts, fmt.Sprintf("%s=%.1f%%", ls.layer, 100*ls.share))
	}
	fmt.Fprintf(out, "self-time shares (%d replayed requests): %s\n", len(replayed), strings.Join(parts, " "))
	res.Correct = confirmReason(out, in.workload, tr) && res.Correct
	path := filepath.Join(b.c.spansDir, "spans-"+in.workload+".ndjson")
	if err := writeSpans(path, tr.spans); err != nil {
		return err
	}
	fmt.Fprintf(out, "spans: %d written to %s\n", len(tr.spans), path)
	return nil
}

// replayTarget is about how many requests the second traced phase
// replays; it also stops after half the window or five seconds.
const replayTarget = 600

// e2eNames are the end-to-end metrics, in print order.
var e2eNames = []string{"setup_s", "req_per_s", "p50_ms", "p99_ms", "ok_ratio", "cpu_ms_per_req", "alloc_kb_per_req", "heap_live_mb"}

// summarize computes a window's end-to-end metrics over the whole window.
// heapBase is the live heap before the engine started.
//
// Whole-window totals, not medians over sub-windows: on the shared 2-vCPU
// machine the benchmark was built on, the CPU speed switches between a fast
// and a slow regime every few seconds, and a median of sub-windows jumps
// with whichever regime held most of them, while a total moves smoothly
// with the share of time spent in each.
func summarize(w *window, heapBase uint64) map[string]metric {
	var lats []float64
	ok := 0
	for _, r := range w.replies {
		lats = append(lats, float64(r.lat)/float64(time.Millisecond))
		if r.bad == "" {
			ok++
		}
	}
	sort.Float64s(lats)
	n := len(lats)
	perOK := float64(max(ok, 1))
	beyond := n - int(math.Ceil(0.99*float64(n)))
	p99note := fmt.Sprintf("%d samples beyond it", beyond)
	if beyond < 10 {
		p99note += ", INVALID: fewer than 10"
	}
	m := map[string]metric{
		"req_per_s":        {value: float64(ok) / w.seconds, unit: "req/s", n: ok, note: fmt.Sprintf("completed in %.3f s", w.seconds)},
		"p50_ms":           {value: quantile(lats, 0.5), unit: "ms", n: n},
		"p99_ms":           {value: quantile(lats, 0.99), unit: "ms", n: n, note: p99note},
		"cpu_ms_per_req":   {value: float64(w.cpu) / float64(time.Millisecond) / perOK, unit: "ms", n: ok, note: "getrusage user+sys"},
		"alloc_kb_per_req": {value: float64(w.alloc) / 1024 / perOK, unit: "KB", n: ok, note: "MemStats.TotalAlloc growth"},
	}
	// The benchmark's own records and kept replies are not the engine's.
	heap := liveHeap()
	m["heap_live_mb"] = metric{value: (float64(heap) - float64(heapBase) - float64(keptBytes(w)) - float64(recordBytes(w))) / (1 << 20),
		unit: "MB", n: 1, note: "live heap after GC minus the reading before engine start"}
	return m
}

// okRatio is the share of attempted requests that passed every check:
// 1 - fail_ratio, where fail_ratio counts non-2xx replies, transport errors
// and failed output checks.
func okRatio(failed, attempted int) metric {
	fail := float64(failed) / float64(max(attempted, 1))
	return metric{value: 1 - fail, unit: "ratio", n: attempted,
		note: fmt.Sprintf("%d failed of %d attempted; ok_ratio = 1 - fail_ratio", failed, attempted)}
}

// liveHeap forces a collection and returns the live heap.
func liveHeap() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

func keptBytes(w *window) uint64 {
	var b uint64
	for _, r := range w.replies {
		b += uint64(cap(r.body))
	}
	return b
}

func recordBytes(w *window) uint64 {
	return uint64(cap(w.replies)) * uint64(unsafe.Sizeof(reply{}))
}

// quantile is the nearest-rank quantile of sorted values.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	return sorted[max(i, 0)]
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return quantile(s, 0.5)
}

// windowFailures lists the replies that failed a per-reply check.
func windowFailures(w *window) []string {
	var out []string
	for _, r := range w.replies {
		if r.bad != "" {
			out = append(out, fmt.Sprintf("request %d: %s", r.pos, r.bad))
		}
	}
	return out
}

// checked is a kept reply with its request.
type checked struct {
	r    *request
	body []byte
}

func keptReplies(in *inputs, w *window) []checked {
	var out []checked
	for _, r := range w.replies {
		if in.check[r.pos] && r.bad == "" {
			out = append(out, checked{in.at(r.pos), r.body})
		}
	}
	return out
}

// runFull runs the full checks and returns the canonical envelopes of the
// replies that passed, and the failures.
func (c *checker) runFull(kept []checked) ([][]byte, []string) {
	var envs [][]byte
	var fails []string
	for _, k := range kept {
		env, err := c.full(k.r, k.body)
		if err != nil {
			fails = append(fails, fmt.Sprintf("%s %s: %v", c.in.circuits[k.r.circ].name, k.r.kind.path(), err))
			continue
		}
		envs = append(envs, env)
	}
	return envs, fails
}

func printChecks(out io.Writer, c *checker, kept []checked, envs [][]byte, failures []string) {
	fmt.Fprintf(out, "checks: recompiled=%d canonical_equal=%d verified_dense=%d verified_stab=%d wide_unverified=%d served_digest=%s (canonical envelopes of the recompiled replies)\n",
		len(kept), len(envs), c.verified["dense"], c.verified["stab"], c.wideSkip, digestOf(envs))
	for i, f := range failures {
		if i == 5 {
			fmt.Fprintf(out, "check: ... %d more failures\n", len(failures)-5)
			break
		}
		fmt.Fprintf(out, "check FAILED: %s\n", f)
	}
}

func printMetric(out io.Writer, prefix, workload, name string, m metric) {
	fmt.Fprintf(out, "%s %s = %.6g %s (%s, n=%d", prefix, name, m.value, m.unit, workload, m.n)
	if m.note != "" {
		fmt.Fprintf(out, "; %s", m.note)
	}
	fmt.Fprintln(out, ")")
}

func jsonMetric(m metric) json.RawMessage {
	b, err := json.Marshal(struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}{m.value, m.unit})
	if err != nil {
		panic(err) // finite floats and strings always marshal
	}
	return b
}
