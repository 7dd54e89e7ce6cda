package main

import (
	"fmt"
	"io"
	"strings"
	"time"
)

// layerMetric is one per-layer metric and the end-to-end metric and
// workload it should move, written down before measuring.
type layerMetric struct {
	name, unit, better string
	moves              string
}

var layerMetrics = func() []layerMetric {
	ms := []layerMetric{
		{"service.handler_us", "us", "lower", "p50_ms on every workload"},
		{"service.transport_us", "us", "lower", "p50_ms on compile-hot"},
		{"service.decode_us", "us", "lower", "p99_ms on compile-hot"},
		{"service.encode_us", "us", "lower", "p50_ms on shots"},
		{"service.self_us", "us", "lower", "req_per_s on compile-hot"},
		{"service.resp_kb", "KB", "lower", "p50_ms on shots"},
		{"service.cache_hit_ratio", "ratio", "higher", "req_per_s on compile-hot; reads 1 there, 0 on compile-cold and shots"},
		{"service.stream_shots_per_s", "shots/s", "higher", "p50_ms on shots"},
		{"qasm.parse_us", "us", "lower", "p99_ms and req_per_s on compile-hot; p50_ms on compile-cold"},
		{"qasm.parse_alloc_kb", "KB", "lower", "alloc_kb_per_req on compile-hot"},
		{"circuit.fingerprint_us", "us", "lower", "p99_ms on compile-hot"},
		{"bench.lookup_us", "us", "lower", "p50_ms on compile-hot"},
	}
	for _, b := range []string{"atomique", "sabre", "geyser", "qpilot", "solverref", "zoned"} {
		moves := "req_per_s and p99_ms on baselines"
		if b == "atomique" {
			moves = "req_per_s, cpu_ms_per_req and alloc_kb_per_req on compile-cold; a small share of shots"
		}
		ms = append(ms, layerMetric{"compiler." + b + "_us", "us", "lower", moves},
			layerMetric{"compiler." + b + "_alloc_kb", "KB", "lower", moves})
	}
	for _, p := range []string{"map-arrays", "route-interarray", "map-atoms", "route", "fidelity"} {
		moves := "req_per_s on compile-cold; no change on compile-hot"
		if strings.HasPrefix(p, "route") {
			moves = "p99_ms and req_per_s on compile-cold; no change on compile-hot"
		}
		ms = append(ms, layerMetric{"core." + p + "_us", "us", "lower", moves},
			layerMetric{"core." + p + "_alloc_kb", "KB", "lower", moves})
	}
	for _, c := range []string{"swaps", "stages", "overlap_rejects"} {
		ms = append(ms, layerMetric{"core." + c, "count", "lower", "the work behind the pass times; a pure speed change leaves it unchanged"})
	}
	ms = append(ms,
		layerMetric{"noise.replay_dense_us", "us", "lower", "p50_ms on shots"},
		layerMetric{"noise.replay_stab_us", "us", "lower", "p50_ms on shots"})
	for _, k := range []string{"simulate_dense", "simulate_stab", "sample_dense", "sample_stab"} {
		ms = append(ms, layerMetric{"noise." + k + "_shots_per_s", "shots/s", "higher", "req_per_s and cpu_ms_per_req on shots; no change elsewhere"})
	}
	return append(ms,
		layerMetric{"noise.error_shot_ratio", "ratio", "lower", "the base for the shot rates: only errored shots replay"},
		layerMetric{"noise.distinct", "count", "lower", "service.resp_kb on shots"},
		layerMetric{"noise.alloc_kb", "KB", "lower", "alloc_kb_per_req on shots"},
		layerMetric{"report.envelope_us", "us", "lower", "p50_ms on shots"},
		layerMetric{"report.envelope_kb", "KB", "lower", "p50_ms on shots"},
		layerMetric{"report.splice_us", "us", "lower", "req_per_s on compile-hot; p50_ms on shots"},
	)
}()

func medianOf(v []float64) metric {
	if len(v) == 0 {
		return metric{}
	}
	return metric{value: median(v), n: len(v)}
}

// layerValues computes every per-layer metric from the traced run. Layers
// that did not run on this workload read 0 with n=0.
func layerValues(t *tracer, w1 *window, replayed map[int]bool) map[string]metric {
	durs := map[string][]float64{}
	allocs := map[string][]float64{}
	self := selfTimes(t.spans)
	var transport, handlerSelf []float64
	for i, s := range t.spans {
		durs[s.name] = append(durs[s.name], float64(s.dur)/float64(time.Microsecond))
		if s.hasMem {
			allocs[s.name] = append(allocs[s.name], float64(s.alloc)/1024)
		}
		switch s.name {
		case "client":
			transport = append(transport, float64(self[i])/float64(time.Microsecond))
		case "handler":
			if replayed[s.req] {
				handlerSelf = append(handlerSelf, float64(self[i])/float64(time.Microsecond))
			}
		}
	}
	var noiseAlloc []float64
	for name, v := range allocs {
		if strings.HasPrefix(name, "noise.") {
			noiseAlloc = append(noiseAlloc, v...)
		}
	}
	var resp, streamRate []float64
	for _, r := range w1.replies {
		resp = append(resp, float64(r.size)/1024)
		if req := t.in.at(r.pos); req.kind == kindStream && r.bad == "" {
			streamRate = append(streamRate, float64(req.shots)/r.lat.Seconds())
		}
	}
	m := map[string]metric{
		"service.handler_us":         medianOf(durs["handler"]),
		"service.transport_us":       medianOf(transport),
		"service.decode_us":          medianOf(durs["service.decode"]),
		"service.encode_us":          medianOf(durs["service.encode"]),
		"service.self_us":            medianOf(handlerSelf),
		"service.resp_kb":            medianOf(resp),
		"service.stream_shots_per_s": medianOf(streamRate),
		"qasm.parse_us":              medianOf(durs["qasm.parse"]),
		"qasm.parse_alloc_kb":        medianOf(allocs["qasm.parse"]),
		"circuit.fingerprint_us":     medianOf(durs["circuit.fingerprint"]),
		"bench.lookup_us":            medianOf(durs["bench.lookup"]),
		"noise.alloc_kb":             medianOf(noiseAlloc),
		"report.envelope_us":         medianOf(durs["report.envelope"]),
		"report.splice_us":           medianOf(durs["report.splice"]),
	}
	hit := metric{n: int(w1.lookups), note: fmt.Sprintf("%d hits of %d lookups, Engine.Stats over the traced window", w1.hits, w1.lookups)}
	if w1.lookups > 0 {
		hit.value = float64(w1.hits) / float64(w1.lookups)
	}
	m["service.cache_hit_ratio"] = hit
	for _, name := range []string{"compiler.atomique", "compiler.sabre", "compiler.geyser", "compiler.qpilot", "compiler.solverref", "compiler.zoned",
		"core.map-arrays", "core.route-interarray", "core.map-atoms", "core.route", "core.fidelity"} {
		m[name+"_us"] = medianOf(durs[name])
		m[name+"_alloc_kb"] = medianOf(allocs[name])
	}
	for _, name := range []string{"noise.replay_dense", "noise.replay_stab"} {
		m[name+"_us"] = medianOf(durs[name])
	}
	for _, name := range []string{"core.swaps", "core.stages", "core.overlap_rejects", "noise.distinct", "report.envelope_kb"} {
		m[name] = medianOf(t.counts[name])
	}
	attaches := 0
	for _, k := range []string{"simulate_dense", "simulate_stab", "sample_dense", "sample_stab"} {
		r := metric{n: len(durs["noise."+k]), note: fmt.Sprintf("%.0f shots in %.4f s", t.shots[k], t.seconds[k])}
		if t.seconds[k] > 0 {
			r.value = t.shots[k] / t.seconds[k]
		}
		m["noise."+k+"_shots_per_s"] = r
		attaches += r.n
	}
	er := metric{n: attaches, note: fmt.Sprintf("%.0f errored of %.0f shots", t.errShots, t.allShots)}
	if t.allShots > 0 {
		er.value = t.errShots / t.allShots
	}
	m["noise.error_shot_ratio"] = er
	for _, lm := range layerMetrics {
		v := m[lm.name]
		v.unit = lm.unit
		m[lm.name] = v
	}
	return m
}

// confirmReason checks, from the replayed spans, that the workload
// exercises what it was chosen for, and prints each check.
func confirmReason(out io.Writer, workload string, t *tracer) bool {
	count := map[string]int{}
	sum := map[string]time.Duration{}
	for _, s := range t.spans {
		l := layerOf(s.name)
		count[l]++
		sum[l] += s.dur
		if strings.HasPrefix(s.name, "compiler.") && s.name != "compiler.atomique" {
			count["comparators"]++
		}
		if s.name == "compiler.atomique" {
			sum["atomique"] += s.dur
		}
	}
	var checks []struct {
		what string
		ok   bool
	}
	add := func(what string, ok bool) {
		checks = append(checks, struct {
			what string
			ok   bool
		}{what, ok})
	}
	add(fmt.Sprintf("compiler spans=%d, want 0 only on compile-hot", count["compiler"]), (count["compiler"] == 0) == (workload == wlHot))
	add(fmt.Sprintf("noise spans=%d, want >0 only on shots", count["noise"]), (count["noise"] > 0) == (workload == wlShots))
	add(fmt.Sprintf("comparator spans=%d, want >0 only on baselines", count["comparators"]), (count["comparators"] > 0) == (workload == wlBaselines))
	if workload == wlCold {
		share := 0.0
		if sum["atomique"] > 0 {
			share = float64(sum["core"]) / float64(sum["atomique"])
		}
		add(fmt.Sprintf("core time / compiler.atomique time=%.3f, want > 0.5", share), share > 0.5)
	}
	all := true
	for _, c := range checks {
		verdict := "ok"
		if !c.ok {
			verdict, all = "FAILED", false
		}
		fmt.Fprintf(out, "reason %s: %s\n", verdict, c.what)
	}
	return all
}
