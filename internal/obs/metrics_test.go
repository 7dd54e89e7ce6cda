package obs

import (
	"bytes"
	"math"
	"math/rand"
	"strings"
	"sync"
	"testing"
)

// TestQuantileUniform feeds a uniform [0,1) sample and checks the estimated
// percentiles against the true quantiles within one bucket's resolution
// (ratio-2 log buckets → the estimate is exact to within a factor of 2, and
// linear interpolation inside the bucket usually does much better).
func TestQuantileUniform(t *testing.T) {
	h := newHistogram(nil)
	rng := rand.New(rand.NewSource(1))
	const n = 200000
	for i := 0; i < n; i++ {
		h.Observe(rng.Float64())
	}
	s := h.Snapshot()
	if s.Count != n {
		t.Fatalf("count = %d, want %d", s.Count, n)
	}
	for _, tc := range []struct{ q, want float64 }{
		{0.50, 0.50}, {0.90, 0.90}, {0.99, 0.99},
	} {
		got := s.Quantile(tc.q)
		if got < tc.want/2 || got > tc.want*2 {
			t.Errorf("uniform q%.2f = %.4f, want within bucket of %.4f", tc.q, got, tc.want)
		}
	}
	if mean := s.Sum / float64(s.Count); math.Abs(mean-0.5) > 0.01 {
		t.Errorf("uniform mean = %.4f, want ~0.5", mean)
	}
}

// TestQuantileExponential checks percentile estimates on an exponential
// distribution (rate 1: true quantile -ln(1-q)), the shape service latencies
// actually take.
func TestQuantileExponential(t *testing.T) {
	h := newHistogram(nil)
	rng := rand.New(rand.NewSource(2))
	const n = 200000
	for i := 0; i < n; i++ {
		h.Observe(rng.ExpFloat64())
	}
	s := h.Snapshot()
	for _, q := range []float64{0.50, 0.90, 0.99} {
		want := -math.Log(1 - q)
		got := s.Quantile(q)
		if got < want/2 || got > want*2 {
			t.Errorf("exponential q%.2f = %.4f, want within bucket of %.4f", q, got, want)
		}
	}
}

// TestQuantilePointMass: every observation identical → every quantile lands
// in that value's bucket.
func TestQuantilePointMass(t *testing.T) {
	h := newHistogram(nil)
	for i := 0; i < 1000; i++ {
		h.Observe(0.037)
	}
	s := h.Snapshot()
	for _, q := range []float64{0, 0.5, 0.99, 1} {
		got := s.Quantile(q)
		if got < 0.037/2 || got > 0.037*2 {
			t.Errorf("point-mass q%.2f = %v, want within bucket of 0.037", q, got)
		}
	}
}

// TestQuantileEdgeCases covers the empty histogram, the +Inf bucket clamp,
// and out-of-range q.
func TestQuantileEdgeCases(t *testing.T) {
	h := newHistogram(nil)
	if got := h.Snapshot().Quantile(0.5); got != 0 {
		t.Errorf("empty histogram quantile = %v, want 0", got)
	}
	top := DefaultLatencyBuckets()[len(DefaultLatencyBuckets())-1]
	h.Observe(top * 10) // lands in +Inf
	s := h.Snapshot()
	if got := s.Quantile(0.99); got != top {
		t.Errorf("+Inf-bucket quantile = %v, want clamp to %v", got, top)
	}
	if got := s.Quantile(-3); got != s.Quantile(0) {
		t.Errorf("q<0 not clamped: %v vs %v", got, s.Quantile(0))
	}
	if got := s.Quantile(7); got != s.Quantile(1) {
		t.Errorf("q>1 not clamped: %v vs %v", got, s.Quantile(1))
	}
}

// TestQuantilesSummary exercises the p50/p90/p99 convenience snapshot.
func TestQuantilesSummary(t *testing.T) {
	h := newHistogram(nil)
	for i := 1; i <= 100; i++ {
		h.Observe(float64(i) / 100)
	}
	q := h.Quantiles()
	if q.Count != 100 {
		t.Fatalf("count = %d, want 100", q.Count)
	}
	if q.P50 > q.P90 || q.P90 > q.P99 {
		t.Errorf("quantiles not monotonic: p50=%v p90=%v p99=%v", q.P50, q.P90, q.P99)
	}
	if q.P50 < 0.25 || q.P50 > 1.0 {
		t.Errorf("p50 = %v, want within bucket of 0.5", q.P50)
	}
}

// TestConcurrentRecording hammers one counter, one histogram, and one
// labelled vec from many goroutines; totals must be exact. Run under
// go test -race this doubles as the data-race check the satellite asks for.
func TestConcurrentRecording(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("test_ops_total", "ops")
	h := r.Histogram("test_latency_seconds", "latency", nil)
	vec := r.CounterVec("test_events_total", "events", "kind")
	hvec := r.HistogramVec("test_req_seconds", "req", nil, "backend", "class")

	const workers = 16
	const perWorker = 5000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			kinds := []string{"hit", "miss", "coalesce"}
			for i := 0; i < perWorker; i++ {
				c.Inc()
				h.Observe(float64(i%100) / 1000)
				vec.With(kinds[i%3]).Inc()
				hvec.With("atomique", "compile").Observe(0.001)
				if w == 0 && i%100 == 0 {
					hvec.With("zoned", "simulate").Observe(0.5)
				}
			}
		}()
	}
	wg.Wait()

	if got := c.Value(); got != workers*perWorker {
		t.Errorf("counter = %v, want %d", got, workers*perWorker)
	}
	if got := h.Snapshot().Count; got != workers*perWorker {
		t.Errorf("histogram count = %d, want %d", got, workers*perWorker)
	}
	var vecTotal float64
	for _, k := range []string{"hit", "miss", "coalesce"} {
		vecTotal += vec.With(k).Value()
	}
	if vecTotal != workers*perWorker {
		t.Errorf("vec total = %v, want %d", vecTotal, workers*perWorker)
	}
	if got := hvec.With("atomique", "compile").Snapshot().Count; got != workers*perWorker {
		t.Errorf("hvec count = %d, want %d", got, workers*perWorker)
	}
}

// TestCounterSum checks float accumulation (pass-seconds style) is exact for
// representable increments.
func TestCounterSum(t *testing.T) {
	var c Counter
	for i := 0; i < 1000; i++ {
		c.Add(0.5)
	}
	if got := c.Value(); got != 500 {
		t.Errorf("counter = %v, want 500", got)
	}
}

// TestRegistryDuplicatePanics: registering a name twice is a programming
// error and must fail loudly.
func TestRegistryDuplicatePanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("dup_total", "x")
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate registration did not panic")
		}
	}()
	r.Counter("dup_total", "y")
}

// TestLabelArityPanics: a With call with the wrong label count must panic.
func TestLabelArityPanics(t *testing.T) {
	r := NewRegistry()
	vec := r.CounterVec("arity_total", "x", "a", "b")
	defer func() {
		if recover() == nil {
			t.Fatal("wrong label arity did not panic")
		}
	}()
	vec.With("only-one")
}

// TestExpositionRoundTrip writes a populated registry and feeds the output
// back through the strict parser — the same check `loadgen -scrape` runs
// against a live /metrics endpoint.
func TestExpositionRoundTrip(t *testing.T) {
	r := NewRegistry()
	r.Counter("atomique_jobs_total", "total jobs").Add(42)
	vec := r.CounterVec("atomique_cache_events_total", "cache events", "event")
	vec.With("hit").Add(10)
	vec.With("miss").Add(3)
	r.GaugeFunc("atomique_queue_depth", "queue depth", func() float64 { return 7 })
	h := r.HistogramVec("atomique_request_duration_seconds", "request latency", nil, "backend", "class")
	for i := 0; i < 100; i++ {
		h.With("atomique", "compile").Observe(float64(i) / 1000)
	}
	h.With("zoned", "simulate").Observe(1.5)
	h.With(`we"ird\back`+"\n"+`end`, "compile").Observe(0.1) // escaping path

	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatalf("WritePrometheus: %v", err)
	}
	out := buf.String()
	for _, want := range []string{
		"# TYPE atomique_jobs_total counter",
		"# TYPE atomique_request_duration_seconds histogram",
		"atomique_request_duration_seconds_bucket{backend=\"atomique\",class=\"compile\",le=\"+Inf\"} 100",
		"# TYPE atomique_request_duration_seconds_p99 gauge",
		"atomique_queue_depth 7",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q\n---\n%s", want, out)
		}
	}
	n, err := ParseExposition(strings.NewReader(out))
	if err != nil {
		t.Fatalf("ParseExposition rejected our own output: %v\n---\n%s", err, out)
	}
	if n < 10 {
		t.Errorf("parsed only %d samples", n)
	}
}

// TestParseExpositionRejects feeds malformed expositions and expects errors.
func TestParseExpositionRejects(t *testing.T) {
	for name, text := range map[string]string{
		"empty":            "",
		"no-type":          "orphan_metric 1\n",
		"bad-name":         "# TYPE 9bad counter\n9bad 1\n",
		"bad-type":         "# TYPE x flurble\nx 1\n",
		"bad-value":        "# TYPE x counter\nx banana\n",
		"unclosed-labels":  "# TYPE x counter\nx{a=\"b 1\n",
		"unquoted-label":   "# TYPE x counter\nx{a=b} 1\n",
		"duplicate-type":   "# TYPE x counter\n# TYPE x counter\nx 1\n",
		"non-cumulative":   "# TYPE h histogram\nh_bucket{le=\"1\"} 5\nh_bucket{le=\"+Inf\"} 3\nh_sum 1\nh_count 5\n",
		"bad-label-escape": "# TYPE x counter\nx{a=\"\\q\"} 1\n",
	} {
		if _, err := ParseExposition(strings.NewReader(text)); err == nil {
			t.Errorf("%s: parser accepted malformed exposition", name)
		}
	}
}

// TestParseExpositionAccepts covers valid corner cases: timestamps, escaped
// label values, +Inf/NaN sample values, interleaved comments.
func TestParseExpositionAccepts(t *testing.T) {
	text := "# random comment\n" +
		"# TYPE x counter\n" +
		"# HELP x something\n" +
		"x{a=\"quote \\\" slash \\\\ nl \\n\"} 1 1712345678\n" +
		"# TYPE g gauge\n" +
		"g +Inf\ng2missing 0\n"
	// g2missing has no TYPE: expect rejection.
	if _, err := ParseExposition(strings.NewReader(text)); err == nil {
		t.Fatal("expected rejection of undeclared family")
	}
	ok := strings.Replace(text, "g2missing 0\n", "", 1)
	n, err := ParseExposition(strings.NewReader(ok))
	if err != nil {
		t.Fatalf("parser rejected valid exposition: %v", err)
	}
	if n != 2 {
		t.Errorf("parsed %d samples, want 2", n)
	}
}
