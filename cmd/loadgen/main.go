// Command loadgen drives an atomiqued instance with open-loop interactive
// and batch traffic, with an optional mid-run burst window that multiplies
// both arrival rates. It is the admission-control workout: run atomiqued
// with -admission and watch atomique_workers_target track the burst while
// shed requests come back as 429 + Retry-After instead of queueing.
//
// Usage:
//
//	loadgen -addr http://127.0.0.1:8791 [-duration 30s] [-rps 20]
//	        [-batch-rps 5] [-sample-rps 0] [-sample-shots 20000]
//	        [-burst 10] [-burst-start 10s] [-burst-len 10s]
//	        [-benchmark H2-4] [-timeout 30s] [-json] [-scrape]
//
// -sample-rps mixes in POST /v1/sample jobs (batch priority, -sample-shots
// measurement shots each) — the sampling-product workout: trajectory
// sampling throughput under the same admission control as everything else.
//
// Every request carries a unique seed so the content-addressed result cache
// never absorbs the load. Per-class p50/p90/p99 latency, shed counts, and
// the observed worker-target trajectory are printed at the end. The exit
// code is 1 if any request drew a 5xx, a transport error, or a 429 without
// Retry-After — 429s themselves are expected output under overload, not
// failures.
//
// -json replaces the human-readable report with one JSON object on stdout
// ({"classes": {...}, "workersTarget": [...]}) so CI can assert on exact
// counts with jq instead of grepping. -scrape fetches /metrics with the
// OpenMetrics Accept header after the run and fails the process if the
// exposition does not parse strictly or carries no trace-ID exemplars —
// a live-scrape regression check that rides along with every soak.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"atomique/internal/obs"
)

type result struct {
	class      string
	status     int // 0 = transport error
	latency    time.Duration
	retryAfter bool
}

type classSummary struct {
	sent, ok, shed, failed, transport int
	missingRetryAfter                 int
	latencies                         []time.Duration
}

func percentile(sorted []time.Duration, p float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	idx := int(math.Ceil(p/100*float64(len(sorted)))) - 1
	if idx < 0 {
		idx = 0
	}
	return sorted[idx]
}

func main() {
	var (
		addr       = flag.String("addr", "http://127.0.0.1:8791", "atomiqued base URL")
		duration   = flag.Duration("duration", 30*time.Second, "total run length")
		rps        = flag.Float64("rps", 20, "baseline interactive arrivals per second")
		batchRPS   = flag.Float64("batch-rps", 5, "baseline batch arrivals per second")
		sampleRPS  = flag.Float64("sample-rps", 0, "baseline /v1/sample arrivals per second (0 = no sampling traffic)")
		sampleN    = flag.Int("sample-shots", 20000, "measurement shots per sampling request")
		burst      = flag.Float64("burst", 10, "rate multiplier during the burst window (1 = no burst)")
		burstStart = flag.Duration("burst-start", 10*time.Second, "burst window start offset")
		burstLen   = flag.Duration("burst-len", 10*time.Second, "burst window length")
		benchmark  = flag.String("benchmark", "H2-4", "benchmark circuit to compile")
		timeout    = flag.Duration("timeout", 30*time.Second, "per-request timeout")
		jsonOut    = flag.Bool("json", false, "emit one machine-readable JSON summary on stdout instead of the table")
		scrape     = flag.Bool("scrape", false, "after the run, fetch /metrics as OpenMetrics and fail unless it parses strictly with exemplars")
	)
	flag.Parse()

	client := &http.Client{Timeout: *timeout}
	results := make(chan result, 4096)
	var inflight sync.WaitGroup
	var seed atomic.Int64
	start := time.Now()
	stop := time.After(*duration)

	fire := func(class string) {
		defer inflight.Done()
		// Sampling jobs vary the noise seed instead of the compile seed, the
		// shape of a sharded million-shot job. The noise seed and shot range
		// are part of the job's cache key, so every sampling request misses
		// the cache and recompiles before its trajectory run.
		endpoint, payload := "/v1/compile", map[string]any{
			"benchmark": *benchmark,
			"seed":      seed.Add(1),
			"priority":  class,
		}
		if class == "sample" {
			endpoint, payload = "/v1/sample", map[string]any{
				"benchmark": *benchmark,
				"noiseSeed": seed.Add(1),
				"shots":     *sampleN,
			}
		}
		body, _ := json.Marshal(payload)
		t0 := time.Now()
		resp, err := client.Post(*addr+endpoint, "application/json", bytes.NewReader(body))
		if err != nil {
			results <- result{class: class}
			return
		}
		io.Copy(io.Discard, resp.Body) //nolint:errcheck // drained for keep-alive reuse
		resp.Body.Close()
		results <- result{
			class:      class,
			status:     resp.StatusCode,
			latency:    time.Since(t0),
			retryAfter: resp.Header.Get("Retry-After") != "",
		}
	}

	// Open-loop generator: arrivals keep coming at the scheduled rate whether
	// or not earlier requests finished, so a saturated server sees real queue
	// pressure instead of the closed-loop self-throttling artifact.
	generate := func(class string, baseRPS float64, done <-chan struct{}) {
		defer inflight.Done()
		if baseRPS <= 0 {
			return
		}
		for {
			elapsed := time.Since(start)
			rate := baseRPS
			if *burst > 1 && elapsed >= *burstStart && elapsed < *burstStart+*burstLen {
				rate = baseRPS * *burst
			}
			select {
			case <-done:
				return
			case <-time.After(time.Duration(float64(time.Second) / rate)):
				inflight.Add(1)
				go fire(class)
			}
		}
	}

	// Sample the worker target so the report shows the pool tracking load.
	targets := make(chan []int, 1)
	sampleDone := make(chan struct{})
	go func() {
		type stats struct {
			WorkersTarget int `json:"workersTarget"`
		}
		var trajectory []int
		tick := time.NewTicker(500 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-sampleDone:
				targets <- trajectory
				return
			case <-tick.C:
				resp, err := client.Get(*addr + "/v1/stats")
				if err != nil {
					continue
				}
				var st stats
				json.NewDecoder(resp.Body).Decode(&st) //nolint:errcheck // best-effort sample
				resp.Body.Close()
				if n := len(trajectory); n == 0 || trajectory[n-1] != st.WorkersTarget {
					trajectory = append(trajectory, st.WorkersTarget)
				}
			}
		}
	}()

	genDone := make(chan struct{})
	inflight.Add(3)
	go generate("interactive", *rps, genDone)
	go generate("batch", *batchRPS, genDone)
	go generate("sample", *sampleRPS, genDone)

	collected := make(map[string]*classSummary)
	for _, c := range []string{"interactive", "batch", "sample"} {
		collected[c] = &classSummary{}
	}
	collectorDone := make(chan struct{})
	go func() {
		defer close(collectorDone)
		for r := range results {
			s := collected[r.class]
			s.sent++
			switch {
			case r.status == 0:
				s.transport++
			case r.status < 300:
				s.ok++
				s.latencies = append(s.latencies, r.latency)
			case r.status == http.StatusTooManyRequests:
				s.shed++
				if !r.retryAfter {
					s.missingRetryAfter++
				}
			default:
				s.failed++
			}
		}
	}()

	<-stop
	close(genDone)
	inflight.Wait()
	close(results)
	<-collectorDone
	close(sampleDone)

	type classReport struct {
		Sent              int     `json:"sent"`
		OK                int     `json:"ok"`
		Shed              int     `json:"shed"`
		Failed            int     `json:"failed"`
		Transport         int     `json:"transport"`
		MissingRetryAfter int     `json:"missingRetryAfter"`
		P50Ms             float64 `json:"p50Ms"`
		P90Ms             float64 `json:"p90Ms"`
		P99Ms             float64 `json:"p99Ms"`
	}
	report := struct {
		Classes       map[string]classReport `json:"classes"`
		WorkersTarget []int                  `json:"workersTarget"`
	}{Classes: make(map[string]classReport)}

	exit := 0
	for _, class := range []string{"interactive", "batch", "sample"} {
		s := collected[class]
		if class == "sample" && s.sent == 0 {
			continue
		}
		sort.Slice(s.latencies, func(i, j int) bool { return s.latencies[i] < s.latencies[j] })
		p50 := percentile(s.latencies, 50)
		p90 := percentile(s.latencies, 90)
		p99 := percentile(s.latencies, 99)
		report.Classes[class] = classReport{
			Sent: s.sent, OK: s.ok, Shed: s.shed, Failed: s.failed, Transport: s.transport,
			MissingRetryAfter: s.missingRetryAfter,
			P50Ms:             float64(p50) / float64(time.Millisecond),
			P90Ms:             float64(p90) / float64(time.Millisecond),
			P99Ms:             float64(p99) / float64(time.Millisecond),
		}
		if !*jsonOut {
			fmt.Printf("%-12s sent=%d ok=%d shed=%d failed=%d transport=%d p50=%s p90=%s p99=%s\n",
				class, s.sent, s.ok, s.shed, s.failed, s.transport,
				p50.Round(time.Millisecond), p90.Round(time.Millisecond), p99.Round(time.Millisecond))
		}
		if s.failed > 0 || s.transport > 0 {
			fmt.Fprintf(os.Stderr, "loadgen: %s: %d failed, %d transport errors\n", class, s.failed, s.transport)
			exit = 1
		}
		if s.missingRetryAfter > 0 {
			fmt.Fprintf(os.Stderr, "loadgen: %s: %d shed responses lacked Retry-After\n", class, s.missingRetryAfter)
			exit = 1
		}
	}
	report.WorkersTarget = <-targets

	if *scrape {
		if err := scrapeOpenMetrics(client, *addr); err != nil {
			fmt.Fprintf(os.Stderr, "loadgen: scrape: %v\n", err)
			exit = 1
		} else if !*jsonOut {
			fmt.Println("openmetrics scrape: parsed with exemplars")
		}
	}

	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		enc.Encode(&report) //nolint:errcheck // stdout
	} else {
		fmt.Printf("workersTarget trajectory: %v\n", report.WorkersTarget)
	}
	os.Exit(exit)
}

// scrapeOpenMetrics fetches /metrics with the OpenMetrics Accept header and
// verifies the server's live exposition: strict parse, exemplars present,
// terminated by # EOF.
func scrapeOpenMetrics(client *http.Client, addr string) error {
	req, err := http.NewRequest(http.MethodGet, addr+"/metrics", nil)
	if err != nil {
		return err
	}
	req.Header.Set("Accept", "application/openmetrics-text; version=1.0.0")
	resp, err := client.Do(req)
	if err != nil {
		return err
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return err
	}
	if !strings.HasPrefix(resp.Header.Get("Content-Type"), "application/openmetrics-text") {
		return fmt.Errorf("content type %q", resp.Header.Get("Content-Type"))
	}
	if _, err := obs.ParseExposition(bytes.NewReader(raw)); err != nil {
		return fmt.Errorf("exposition invalid: %w", err)
	}
	if !strings.Contains(string(raw), `# {trace_id="`) {
		return fmt.Errorf("no exemplars in exposition")
	}
	if !strings.HasSuffix(strings.TrimRight(string(raw), "\n"), "# EOF") {
		return fmt.Errorf("exposition does not end with # EOF")
	}
	return nil
}
