package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"atomique/internal/bench"
	"atomique/internal/compiler"
	"atomique/internal/core"
	"atomique/internal/noise"
	"atomique/internal/pipeline"
	"atomique/internal/qasm"
	"atomique/internal/report"
	"atomique/internal/service"
	"atomique/internal/sim"
	"atomique/internal/stab"
)

// span is one timed call, recorded by benchmark code around a layer's
// public entry point. Spans stay in memory until the run writes them out.
type span struct {
	req    int // stream position of the request the call served
	name   string
	parent int // index of the parent span, -1 for a root
	start  time.Duration
	dur    time.Duration
	// alloc is the bytes allocated during the call (runtime.MemStats
	// TotalAlloc delta), where the layer's metric asks for it.
	alloc  uint64
	hasMem bool
	// rerun marks a second run of work its parent did internally (the
	// pass list inside the atomique backend, the ideal-witness replay
	// inside a trajectory run). Its interval lies after the parent's, and
	// it counts as covering that much of the parent.
	rerun bool
}

// tracer holds a traced run's spans and the counts recorded beside them.
type tracer struct {
	in     *inputs
	origin time.Time
	spans  []span
	// counts holds per-call counts by metric name (core.swaps, ...).
	counts map[string][]float64
	// shots and seconds accumulate per trajectory kind and engine, for
	// the shot rates; errShots and allShots give the error-shot ratio.
	shots, seconds     map[string]float64
	errShots, allShots float64
	// cachedEnv holds compile-hot's cached envelopes by distinct request,
	// and benchHash the registry fingerprints the service memoises.
	cachedEnv [][]byte
	benchHash map[string]string
}

func newTracer(in *inputs, origin time.Time) *tracer {
	return &tracer{in: in, origin: origin, counts: map[string][]float64{},
		shots: map[string]float64{}, seconds: map[string]float64{}, benchHash: map[string]string{}}
}

// call times fn as a span named name under parent. With mem set it also
// measures fn's allocation; runtime.ReadMemStats runs outside the timed
// interval.
func (t *tracer) call(parent, req int, name string, mem bool, fn func() error) (int, error) {
	idx := len(t.spans)
	t.spans = append(t.spans, span{req: req, name: name, parent: parent, hasMem: mem})
	var m0, m1 runtime.MemStats
	if mem {
		runtime.ReadMemStats(&m0)
	}
	start := time.Now()
	err := fn()
	d := time.Since(start)
	if mem {
		runtime.ReadMemStats(&m1)
		t.spans[idx].alloc = m1.TotalAlloc - m0.TotalAlloc
	}
	t.spans[idx].start, t.spans[idx].dur = start.Sub(t.origin), d
	if err != nil {
		err = fmt.Errorf("%s: %w", name, err)
	}
	return idx, err
}

// addHTTP records the first phase's two spans for one reply: client
// around the round trip and handler around ServeHTTP.
func (t *tracer) addHTTP(rep *reply, h span) int {
	t.spans = append(t.spans, span{req: rep.pos, name: "client", parent: -1, start: rep.at, dur: rep.lat})
	h.parent = len(t.spans) - 1
	t.spans = append(t.spans, h)
	return len(t.spans) - 1
}

// prepare computes, untimed, what the service already holds before a
// timed request arrives: compile-hot's cached envelopes and the registry
// fingerprints.
func (t *tracer) prepare(warm [][]byte) error {
	for _, name := range bench.Names() {
		b, _ := bench.ByName(name)
		t.benchHash[b.Name] = b.Circ.Fingerprint()
	}
	if t.in.workload != wlHot {
		return nil
	}
	t.cachedEnv = make([][]byte, len(warm))
	for i, b := range warm {
		env, err := served(&t.in.warm[i], b)
		if err != nil {
			return err
		}
		var e report.Envelope
		if err := json.Unmarshal(env, &e); err != nil {
			return err
		}
		e.TraceID, e.Trace = "", nil
		if t.cachedEnv[i], err = e.EncodeJSON(); err != nil {
			return err
		}
	}
	return nil
}

// replay makes, on this goroutine, the calls the service made for the
// request behind rep, nested under its handler span. A cache hit compiles
// nothing, and the splice gets the trace the service served.
func (t *tracer) replay(handler int, rep *reply) error {
	pos := rep.pos
	r := t.in.at(pos)
	body := t.in.body(nil, r)
	var req service.Request
	if _, err := t.call(handler, pos, "service.decode", false, func() error {
		dec := json.NewDecoder(bytes.NewReader(body))
		dec.DisallowUnknownFields()
		return dec.Decode(&req)
	}); err != nil {
		return err
	}
	var rs resolved
	if req.QASM != "" {
		if _, err := t.call(handler, pos, "qasm.parse", true, func() (err error) {
			rs.circ, err = qasm.ParseString(req.QASM)
			return err
		}); err != nil {
			return err
		}
		t.call(handler, pos, "circuit.fingerprint", false, func() error {
			rs.hash = rs.circ.Fingerprint()
			return nil
		})
	} else {
		var b bench.Benchmark
		if _, err := t.call(handler, pos, "bench.lookup", false, func() error {
			var ok bool
			if b, ok = bench.ByName(req.Benchmark); !ok {
				return fmt.Errorf("no benchmark %s", req.Benchmark)
			}
			return nil
		}); err != nil {
			return err
		}
		rs.circ, rs.hash = b.Circ, t.benchHash[b.Name]
	}
	if err := t.in.target(r, &rs); err != nil {
		return err
	}

	envBytes, err := served(r, rep.body)
	if err != nil {
		return err
	}
	var servedEnv report.Envelope
	if err := json.Unmarshal(envBytes, &servedEnv); err != nil {
		return err
	}
	var raw []byte
	if rep.cached {
		if t.cachedEnv == nil {
			return fmt.Errorf("unexpected cache hit at %d", pos)
		}
		raw = t.cachedEnv[t.in.seq[pos]]
	} else if raw, err = t.compute(handler, pos, &rs); err != nil {
		return err
	}
	var spliced []byte
	if _, err := t.call(handler, pos, "report.splice", false, func() (err error) {
		spliced, err = report.WithTrace(raw, servedEnv.TraceID, servedEnv.Trace)
		return err
	}); err != nil {
		return err
	}
	if r.kind == kindStream {
		return nil // the stream's trailer is the spliced envelope, written raw
	}
	var job service.Job
	if err := json.Unmarshal(rep.body, &job); err != nil {
		return err
	}
	job.Result = spliced
	_, err = t.call(handler, pos, "service.encode", false, func() error {
		enc := json.NewEncoder(io.Discard)
		enc.SetIndent("", "  ")
		return enc.Encode(&job)
	})
	return err
}

// compute is a cache miss: the backend compile, the trajectory run for
// shots, and the result envelope.
func (t *tracer) compute(handler, pos int, rs *resolved) ([]byte, error) {
	ctx := context.Background()
	var res *compiler.Result
	ci, err := t.call(handler, pos, "compiler."+rs.backend.Name(), true, func() (err error) {
		res, err = rs.backend.Compile(ctx, rs.target, rs.circ, rs.opts)
		return err
	})
	if err != nil {
		return nil, err
	}
	if rs.backend.Name() == service.DefaultBackend {
		if err := t.passes(ci, pos, rs); err != nil {
			return nil, err
		}
	}
	if rs.opts.NoisyShots > 0 {
		if err := t.trajectories(handler, pos, rs, res); err != nil {
			return nil, err
		}
	}
	var raw []byte
	_, err = t.call(handler, pos, "report.envelope", false, func() (err error) {
		raw, err = envelope(rs.hash, res).EncodeJSON()
		return err
	})
	t.counts["report.envelope_kb"] = append(t.counts["report.envelope_kb"], float64(len(raw))/1024)
	return raw, err
}

// passes reruns the atomique pass list with each pass wrapped in a timing
// pipeline.PassFunc, on a pipeline.State seeded the way
// core.CompileContext seeds it.
func (t *tracer) passes(parent, pos int, rs *resolved) error {
	cfg, err := rs.target.Hardware(rs.circ.N)
	if err != nil {
		return err
	}
	opts := core.Options{Seed: rs.opts.Seed}
	var wrapped []pipeline.Pass
	for _, p := range core.Passes(opts) {
		wrapped = append(wrapped, pipeline.PassFunc{PassName: p.Name(), Fn: func(ctx context.Context, st *pipeline.State) error {
			i, err := t.call(parent, pos, "core."+p.Name(), true, func() error { return p.Run(ctx, st) })
			t.spans[i].rerun = true
			return err
		}})
	}
	st := &pipeline.State{Cfg: cfg, Circ: rs.circ, Seed: opts.Seed, Rng: rand.New(rand.NewSource(opts.Seed))}
	if _, err := pipeline.New(wrapped...).Run(context.Background(), st); err != nil {
		return err
	}
	t.counts["core.swaps"] = append(t.counts["core.swaps"], float64(st.SwapCount))
	t.counts["core.stages"] = append(t.counts["core.stages"], float64(st.Router.Stages))
	t.counts["core.overlap_rejects"] = append(t.counts["core.overlap_rejects"], float64(st.Router.Overlaps))
	return nil
}

// trajectories times compiler.AttachNoise or compiler.AttachSample and,
// under it, a rerun of the ideal-witness replay the trajectory engine
// starts with.
func (t *tracer) trajectories(handler, pos int, rs *resolved, res *compiler.Result) error {
	ctx := context.Background()
	product := "simulate"
	if rs.opts.SampleBits {
		product = "sample"
	}
	engine := rs.opts.Engine
	var emit func([]noise.ShotRecord) error
	if t.in.at(pos).kind == kindStream {
		enc := json.NewEncoder(io.Discard)
		emit = func(batch []noise.ShotRecord) error {
			for i := range batch {
				if err := enc.Encode(&batch[i]); err != nil {
					return err
				}
			}
			return nil
		}
	}
	ni, err := t.call(handler, pos, "noise."+product+"_"+engine, true, func() error {
		if emit != nil {
			return compiler.AttachSample(ctx, rs.target, res, rs.opts, emit)
		}
		return compiler.AttachNoise(ctx, rs.target, res, rs.opts)
	})
	if err != nil {
		return err
	}
	key := product + "_" + engine
	t.shots[key] += float64(rs.opts.NoisyShots)
	t.seconds[key] += t.spans[ni].dur.Seconds()
	t.allShots += float64(rs.opts.NoisyShots)
	if res.Noise != nil {
		t.errShots += float64(res.Noise.ErrorShots)
	}
	if res.Sample != nil {
		t.errShots += float64(res.Sample.ErrorShots)
		t.counts["noise.distinct"] = append(t.counts["noise.distinct"], float64(res.Sample.Distinct))
	}
	w := res.Program
	ri, err := t.call(ni, pos, "noise.replay_"+engine, false, func() error {
		if engine == noise.EngineStab {
			tab, err := stab.New(w.NSlots)
			if err != nil {
				return err
			}
			return tab.Run(w.Gates)
		}
		st, err := sim.NewState(w.NSlots)
		if err != nil {
			return err
		}
		for _, g := range w.Gates {
			st.Apply(g)
		}
		return nil
	})
	t.spans[ri].rerun = true
	return err
}

// layerOf names the module a span's self time is charged to.
func layerOf(name string) string {
	switch name {
	case "client":
		return "transport"
	case "handler":
		return "service"
	}
	l, _, _ := strings.Cut(name, ".")
	return l
}

// selfTimes returns each span's duration minus the time its children
// cover (children of one parent never overlap: the replay is sequential).
func selfTimes(spans []span) []time.Duration {
	self := make([]time.Duration, len(spans))
	for i, s := range spans {
		self[i] += s.dur
		if s.parent >= 0 {
			self[s.parent] -= s.dur
		}
	}
	return self
}

// shares returns each layer's share of the total self time over the spans
// of fully replayed requests, largest first.
func shares(spans []span, replayed map[int]bool) []layerShare {
	self := selfTimes(spans)
	by := map[string]time.Duration{}
	var total time.Duration
	for i, s := range spans {
		if !replayed[s.req] || self[i] <= 0 {
			continue
		}
		by[layerOf(s.name)] += self[i]
		total += self[i]
	}
	var out []layerShare
	for l, d := range by {
		out = append(out, layerShare{l, float64(d) / float64(total)})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].share > out[j].share })
	return out
}

type layerShare struct {
	layer string
	share float64
}

// writeSpans writes every span as one JSON line.
func writeSpans(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	type line struct {
		ID      int     `json:"id"`
		Parent  int     `json:"parent"`
		Req     int     `json:"req"`
		Name    string  `json:"name"`
		StartUS float64 `json:"startUs"`
		DurUS   float64 `json:"durUs"`
		AllocKB float64 `json:"allocKb,omitempty"`
		Rerun   bool    `json:"rerun,omitempty"`
	}
	for i, s := range spans {
		l := line{ID: i, Parent: s.parent, Req: s.req, Name: s.name,
			StartUS: float64(s.start) / 1e3, DurUS: float64(s.dur) / 1e3, Rerun: s.rerun}
		if s.hasMem {
			l.AllocKB = float64(s.alloc) / 1024
		}
		if err := enc.Encode(&l); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
