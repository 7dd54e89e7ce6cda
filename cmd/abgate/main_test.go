package main

import (
	"bytes"
	"strings"
	"testing"
)

// e2e mirrors the BENCHMARK.json rules the tests use.
var e2e = []rule{
	{"req_per_s", "higher", 0.24},
	{"ok_ratio", "higher", 0.01},
	{"cpu_ms_per_req", "lower", 0.24},
	{"alloc_kb_per_req", "lower", 0.05},
}

// scaled returns base with each reading multiplied by the matching factor.
func scaled(base []float64, f ...float64) []float64 {
	out := make([]float64, len(base))
	for i := range base {
		out[i] = base[i] * f[i]
	}
	return out
}

func TestJudge(t *testing.T) {
	base := []float64{100, 104, 98, 101, 99, 103, 97, 102, 100, 105}
	nsOp := rule{"ns/op", "lower", 0.24}
	bOp := rule{"B/op", "lower", 0.05}
	reqs := rule{"req_per_s", "higher", 0.24}
	for _, tc := range []struct {
		name      string
		r         rule
		head      []float64
		want      string
		lost, won int
	}{
		{"identical readings tie every pair", nsOp, base, "ok", 0, 0},
		{"noise within the bound", nsOp, scaled(base, 1.1, 0.9, 1.05, 0.95, 1.2, 0.8, 1.1, 0.9, 1.02, 0.98), "ok", 5, 5},
		{"time 50% slower in 10 of 10 pairs", nsOp, scaled(base, 1.5, 1.5, 1.5, 1.5, 1.5, 1.5, 1.5, 1.5, 1.5, 1.5), "regression", 10, 0},
		{"time 30% slower in 9 of 10 pairs", nsOp, scaled(base, 1.3, 1.3, 1.3, 1.3, 1.3, 1.3, 1.3, 1.3, 1.3, 0.9), "regression", 9, 1},
		{"time 30% slower in 7 of 10 pairs", nsOp, scaled(base, 1.3, 1.3, 1.3, 1.3, 1.3, 1.3, 1.3, 0.9, 0.9, 0.9), "unresolved", 7, 3},
		{"allocation 10% up in every pair", bOp, scaled(base, 1.1, 1.1, 1.1, 1.1, 1.1, 1.1, 1.1, 1.1, 1.1, 1.1), "regression", 10, 0},
		{"allocation 4% up stays within its bound", bOp, scaled(base, 1.04, 1.04, 1.04, 1.04, 1.04, 1.04, 1.04, 1.04, 1.04, 1.04), "ok", 10, 0},
		{"throughput 30% down is worse for higher-is-better", reqs, scaled(base, 0.7, 0.7, 0.7, 0.7, 0.7, 0.7, 0.7, 0.7, 0.7, 0.7), "regression", 10, 0},
		{"time 10% faster in every pair beyond the IQR", nsOp, scaled(base, 0.9, 0.9, 0.9, 0.9, 0.9, 0.9, 0.9, 0.9, 0.9, 0.9), "gain", 0, 10},
		{"time 2% faster in every pair within the IQR", nsOp, scaled(base, 0.98, 0.98, 0.98, 0.98, 0.98, 0.98, 0.98, 0.98, 0.98, 0.98), "ok", 0, 10},
		{"time 10% faster in 8 of 10 pairs", nsOp, scaled(base, 0.9, 0.9, 0.9, 0.9, 0.9, 0.9, 0.9, 0.9, 1.01, 1.01), "ok", 2, 8},
	} {
		v, lost, won := judge(tc.r, base, tc.head)
		if v != tc.want || lost != tc.lost || won != tc.won {
			t.Errorf("%s: got %s lost %d won %d, want %s lost %d won %d", tc.name, v, lost, won, tc.want, tc.lost, tc.won)
		}
	}
}

func TestQuantile(t *testing.T) {
	v := []float64{4, 1, 3, 2}
	for _, tc := range []struct{ q, want float64 }{{0, 1}, {0.25, 1.75}, {0.5, 2.5}, {0.75, 3.25}, {1, 4}} {
		if got := quantile(v, tc.q); got != tc.want {
			t.Errorf("quantile(%v) = %v, want %v", tc.q, got, tc.want)
		}
	}
	if got := median([]float64{7}); got != 7 {
		t.Errorf("median of one reading = %v, want 7", got)
	}
}

// goOutput is a recorded `go test -bench -benchmem` run at GOMAXPROCS 2.
const goOutput = `goos: linux
goarch: amd64
pkg: atomique/internal/noise
cpu: Intel(R) Xeon(R) Processor
BenchmarkNoisyShots/workers-1-2         	       2	 580588948 ns/op	     28220 shots/s	  166632 B/op	    1085 allocs/op
BenchmarkStabTrajectory-2               	     188	   5997987 ns/op	   2731593 shots/s	   56059 B/op	     252 allocs/op
PASS
`

func TestGoBenchParsesRecordedLines(t *testing.T) {
	tl := newTally(e2e)
	tl.goBench(1, goOutput, 2)
	want := map[key]float64{
		{"BenchmarkNoisyShots/workers-1", tl.rules[0]}: 580588948,
		{"BenchmarkNoisyShots/workers-1", tl.rules[1]}: 166632,
		{"BenchmarkNoisyShots/workers-1", tl.rules[2]}: 1085,
		{"BenchmarkStabTrajectory", tl.rules[0]}:       5997987,
		{"BenchmarkStabTrajectory", tl.rules[1]}:       56059,
		{"BenchmarkStabTrajectory", tl.rules[2]}:       252,
	}
	if len(tl.vals[1]) != len(want) {
		t.Fatalf("got %d series, want %d (shots/s has no rule): %v", len(tl.vals[1]), len(want), tl.vals[1])
	}
	for k, v := range want {
		if got := tl.vals[1][k]; len(got) != 1 || got[0] != v {
			t.Errorf("%s %s = %v, want [%v]", k.item, k.Name, got, v)
		}
	}
	if r := tl.rules[0]; r.Name != "ns/op" || r.Better != "lower" || r.Bound != 0.24 {
		t.Errorf("ns/op rule = %+v, want cpu_ms_per_req's direction and bound", r)
	}
	if r := tl.rules[2]; r.Name != "allocs/op" || r.Bound != 0.05 {
		t.Errorf("allocs/op rule = %+v, want alloc_kb_per_req's bound", r)
	}

	// With GOMAXPROCS 1 the testing package adds no suffix, so none is cut.
	tl = newTally(e2e)
	tl.goBench(0, "BenchmarkNoisyShots/workers-1 \t 2\t 580588948 ns/op", 1)
	if got := tl.vals[0][key{"BenchmarkNoisyShots/workers-1", tl.rules[0]}]; len(got) != 1 {
		t.Errorf("GOMAXPROCS 1 name was changed: %v", tl.vals[0])
	}
}

// perfOutput is a recorded perfbench run, shortened.
const perfOutput = `perfbench: workload=compile-hot seed=3 seconds=20 trace=false
machine: nproc=2 gomaxprocs=2 go=go1.24.0 os=linux/amd64 clients=2
window: attempted=43120 seconds=20.000 next=43120 overflow=false
checks: recompiled=64 canonical_equal=64 verified_dense=0 verified_stab=0 wide_unverified=0 served_digest=b74d53df4213bc91 (canonical envelopes of the recompiled replies)
metric req_per_s = 2156 req/s (compile-hot, n=43120; completed in 20.000 s)
{"correct":true,"attempted":43120,"failed":0,"metrics":{"req_per_s":{"value":2156,"unit":"req/s"},"ok_ratio":{"value":1,"unit":"ratio"},"alloc_kb_per_req":{"value":659.9,"unit":"KB"},"heap_live_mb":{"value":3.5,"unit":"MB"}}}
`

func TestWorkloadParsesRecordedRun(t *testing.T) {
	tl := newTally(e2e)
	digest, err := tl.workload(1, "compile-hot", 3, perfOutput)
	if err != nil {
		t.Fatal(err)
	}
	if digest != "served_digest=b74d53df4213bc91" {
		t.Errorf("digest = %q", digest)
	}
	rule := func(name string) rule {
		for _, r := range tl.rules {
			if r.Name == name {
				return r
			}
		}
		t.Fatalf("no rule %s", name)
		return rule{}
	}
	for name, want := range map[string]float64{"req_per_s": 2156, "ok_ratio": 1, "alloc_kb_per_req": 659.9} {
		if got := tl.vals[1][key{"compile-hot", rule(name)}]; len(got) != 1 || got[0] != want {
			t.Errorf("%s = %v, want [%v]", name, got, want)
		}
	}
	if len(tl.vals[1]) != 3 {
		t.Errorf("got %d series, want 3 (heap_live_mb has no rule here)", len(tl.vals[1]))
	}
	if len(tl.failures) != 0 {
		t.Errorf("a correct run failed the gate: %v", tl.failures)
	}
	if _, err := tl.workload(1, "compile-hot", 3, "perfbench: build failed\n"); err == nil {
		t.Error("output without a result object was accepted")
	}
}

func TestDigestLine(t *testing.T) {
	other := strings.Replace(perfOutput, "b74d53df4213bc91", "0123456789abcdef", 1)
	// A shorter window: perfbench reached one request fewer.
	shorter := strings.Replace(other, "recompiled=64 canonical_equal=64", "recompiled=63 canonical_equal=63", 1)
	for _, tc := range []struct {
		name, base, head, want string
	}{
		{"same window, same digest", perfOutput, perfOutput,
			"compile-hot seed 3: base recompiled=64 served_digest=b74d53df4213bc91, head recompiled=64 served_digest=b74d53df4213bc91, same=true"},
		{"same window, other digest", perfOutput, other,
			"compile-hot seed 3: base recompiled=64 served_digest=b74d53df4213bc91, head recompiled=64 served_digest=0123456789abcdef, same=false"},
		{"windows differ", perfOutput, shorter,
			"compile-hot seed 3: base recompiled=64 served_digest=b74d53df4213bc91, head recompiled=63 served_digest=0123456789abcdef, windows differ"},
	} {
		tl := newTally(e2e)
		var windows, digests [2]string
		for s, out := range [2]string{tc.base, tc.head} {
			windows[s] = recompiled.FindString(out)
			d, err := tl.workload(s, "compile-hot", 3, out)
			if err != nil {
				t.Fatal(err)
			}
			digests[s] = d
		}
		if got := digestLine("compile-hot", 3, windows, digests); got != tc.want {
			t.Errorf("%s:\n got %s\nwant %s", tc.name, got, tc.want)
		}
	}
}

func TestReport(t *testing.T) {
	base := []float64{100, 104, 98, 101, 99, 103, 97, 102, 100, 105}
	incorrect := strings.Replace(perfOutput, `"correct":true`, `"correct":false`, 1)
	for _, tc := range []struct {
		name  string
		fill  func(tl *tally)
		fail  bool
		lines []string
	}{
		{"unchanged tree", func(tl *tally) {
			for p := 0; p < pairs; p++ {
				tl.add(0, "compile-hot", map[string]value{"alloc_kb_per_req": {base[p]}})
				tl.add(1, "compile-hot", map[string]value{"alloc_kb_per_req": {base[p]}})
			}
		}, false, []string{"compile-hot  alloc_kb_per_req  100.5        3.5%      100.5        +0.0%   0/0            0.05   ok"}},
		{"allocation regression", func(tl *tally) {
			for p := 0; p < pairs; p++ {
				tl.add(0, "compile-hot", map[string]value{"alloc_kb_per_req": {base[p]}})
				tl.add(1, "compile-hot", map[string]value{"alloc_kb_per_req": {base[p] * 1.1}})
			}
		}, true, []string{"abgate: FAIL regression: compile-hot alloc_kb_per_req"}},
		{"time regression", func(tl *tally) {
			for p := 0; p < pairs; p++ {
				tl.add(0, "BenchmarkBackends/sabre", map[string]value{"ns/op": {base[p]}})
				tl.add(1, "BenchmarkBackends/sabre", map[string]value{"ns/op": {base[p] * 1.5}})
			}
		}, true, []string{"abgate: FAIL regression: BenchmarkBackends/sabre ns/op"}},
		{"unresolved does not fail", func(tl *tally) {
			for p := 0; p < pairs; p++ {
				f := 1.3
				if p >= 7 {
					f = 0.9
				}
				tl.add(0, "BenchmarkTab2Compile", map[string]value{"ns/op": {base[p]}})
				tl.add(1, "BenchmarkTab2Compile", map[string]value{"ns/op": {base[p] * f}})
			}
		}, false, []string{"unresolved"}},
		{"items on one side only are listed, not compared", func(tl *tally) {
			for p := 0; p < pairs; p++ {
				tl.add(0, "BenchmarkOld", map[string]value{"ns/op": {base[p]}})
				tl.add(1, "BenchmarkNew", map[string]value{"ns/op": {base[p] * 9}})
			}
		}, false, []string{"BenchmarkOld  ns/op", "base only", "BenchmarkNew  ns/op", "head only"}},
		{`a head run that reports "correct":false`, func(tl *tally) {
			if _, err := tl.workload(0, "compile-hot", 3, perfOutput); err != nil {
				t.Fatal(err)
			}
			if _, err := tl.workload(1, "compile-hot", 3, incorrect); err != nil {
				t.Fatal(err)
			}
		}, true, []string{`abgate: FAIL head printed "correct":false: compile-hot seed 3`}},
		{`a base run that reports "correct":false`, func(tl *tally) {
			if _, err := tl.workload(0, "compile-hot", 3, incorrect); err != nil {
				t.Fatal(err)
			}
		}, false, nil},
	} {
		tl := newTally(e2e)
		tc.fill(tl)
		var out bytes.Buffer
		if fail := tl.report(&out); fail != tc.fail {
			t.Errorf("%s: report failed = %v, want %v\n%s", tc.name, fail, tc.fail, out.String())
		}
		for _, l := range tc.lines {
			if !strings.Contains(out.String(), l) {
				t.Errorf("%s: output lacks %q:\n%s", tc.name, l, out.String())
			}
		}
	}
}
