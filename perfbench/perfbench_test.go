package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"regexp"
	"strconv"
	"testing"
)

// TestWorkloadsShort runs every workload traced with a handful of requests
// per window and checks that each metric prints with its unit and that
// every output check passed.
func TestWorkloadsShort(t *testing.T) {
	for _, wl := range workloadNames {
		t.Run(wl, func(t *testing.T) {
			var out bytes.Buffer
			res, err := run(config{workload: wl, seed: 7, seconds: 5, trace: true, requests: 40,
				spansDir: t.TempDir(), out: &out})
			if err != nil {
				t.Fatalf("run: %v\n%s", err, out.String())
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 40 {
				t.Fatalf("correct=%v failed=%d attempted=%d\n%s", res.Correct, res.Failed, res.Attempted, out.String())
			}
			f := readBenchmarkFile(t)
			values := map[string]float64{}
			for _, m := range f.EndToEnd {
				values[m.Name] = printed(t, out.Bytes(), "metric", wl, m.Name, m.Unit)
			}
			for _, m := range f.PerLayer {
				values[m.Name] = printed(t, out.Bytes(), "layer", wl, m.Name, m.Unit)
				if _, ok := res.Metrics[m.Name]; !ok {
					t.Errorf("result JSON lacks %s", m.Name)
				}
			}
			switch wl {
			case wlHot:
				if v := values["service.cache_hit_ratio"]; v != 1 {
					t.Errorf("compile-hot cache_hit_ratio = %v, want 1", v)
				}
			case wlCold:
				if v := values["service.cache_hit_ratio"]; v != 0 {
					t.Errorf("compile-cold cache_hit_ratio = %v, want 0", v)
				}
			}
			if v := printed(t, out.Bytes(), "metric", wl, "fail_ratio", "ratio"); v != 0 || values["ok_ratio"] != 1 {
				t.Errorf("fail_ratio = %v and ok_ratio = %v, want 0 and 1", v, values["ok_ratio"])
			}
		})
	}
}

// printed finds the value of one printed metric and checks its unit.
func printed(t *testing.T, out []byte, prefix, workload, name, unit string) float64 {
	t.Helper()
	re := regexp.MustCompile(fmt.Sprintf(`(?m)^%s %s = (\S+) (\S+) \(%s, n=\d+`, prefix, regexp.QuoteMeta(name), workload))
	m := re.FindSubmatch(out)
	if m == nil {
		t.Errorf("%s %s not printed", prefix, name)
		return -1
	}
	if string(m[2]) != unit {
		t.Errorf("%s printed in %s, want %s", name, m[2], unit)
	}
	v, err := strconv.ParseFloat(string(m[1]), 64)
	if err != nil {
		t.Errorf("%s: %v", name, err)
	}
	return v
}

// benchmarkFile is the part of BENCHMARK.json this test reads.
type benchmarkFile struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit, Better string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var f benchmarkFile
	if err := json.Unmarshal(b, &f); err != nil {
		t.Fatal(err)
	}
	return f
}

// TestBenchmarkFileMatches keeps BENCHMARK.json and the program in step:
// the same workloads and metrics, in the same order; TestWorkloadsShort
// checks the printed units against the file.
func TestBenchmarkFileMatches(t *testing.T) {
	f := readBenchmarkFile(t)
	var wls []string
	for _, w := range f.Workloads {
		wls = append(wls, w.Name)
	}
	if fmt.Sprint(wls) != fmt.Sprint(workloadNames) {
		t.Errorf("workloads %v, program has %v", wls, workloadNames)
	}
	var e2e []string
	for _, m := range f.EndToEnd {
		e2e = append(e2e, m.Name)
	}
	if fmt.Sprint(e2e) != fmt.Sprint(e2eNames) {
		t.Errorf("end-to-end metrics %v, program prints %v", e2e, e2eNames)
	}
	if len(f.PerLayer) != len(layerMetrics) {
		t.Fatalf("%d per-layer metrics, program prints %d", len(f.PerLayer), len(layerMetrics))
	}
	for i, m := range f.PerLayer {
		lm := layerMetrics[i]
		if m.Name != lm.name || m.Unit != lm.unit || m.Better != lm.better {
			t.Errorf("per-layer %d: file has %s %s %s, program %s %s %s", i, m.Name, m.Unit, m.Better, lm.name, lm.unit, lm.better)
		}
	}
}

// TestSumCounts covers the histogram scanner on both encodings the
// service writes: indented job replies and compact stream trailers.
func TestSumCounts(t *testing.T) {
	for _, b := range []string{
		`{"sample":{"shots":5,"counts":{"01":2,"10":1},"lostShots":2}}`,
		"{\n  \"sample\": {\n    \"shots\": 5,\n    \"counts\": {\n      \"01\": 2,\n      \"10\": 1\n    },\n    \"lostShots\": 2\n  }\n}",
	} {
		if err := checkHistogram(&request{shots: 5}, []byte(b)); err != nil {
			t.Errorf("%q: %v", b, err)
		}
		if err := checkHistogram(&request{shots: 6}, []byte(b)); err == nil {
			t.Errorf("%q: 6 requested shots accepted", b)
		}
	}
}
