package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"atomique/internal/admission"
	"atomique/internal/circuit"
	"atomique/internal/compiler"
	"atomique/internal/obs"
	"atomique/internal/obs/slo"
)

// TestSLOEndpointAndStats: every engine serves /v1/slo out of the box — the
// default config declares availability + latency objectives per request
// class — and /v1/stats embeds the same evaluation.
func TestSLOEndpointAndStats(t *testing.T) {
	e, srv := newTestServer(t, Config{Workers: 2})
	if resp, body := postJSON(t, srv.URL+"/v1/compile", Request{Benchmark: "H2-4", Seed: 1}); resp.StatusCode != http.StatusOK {
		t.Fatalf("compile status = %d, body %s", resp.StatusCode, body)
	}
	e.slo.Tick() // fold the finished request into the evaluation now

	var sr sloResponse
	if resp := getJSON(t, srv.URL+"/v1/slo", &sr); resp.StatusCode != http.StatusOK {
		t.Fatalf("slo status = %d", resp.StatusCode)
	}
	if sr.Worst != "ok" {
		t.Errorf("worst = %q, want ok", sr.Worst)
	}
	if len(sr.Objectives) != 6 { // 3 classes x (availability, latency)
		t.Fatalf("objectives = %d, want 6", len(sr.Objectives))
	}
	byName := map[string]slo.ObjectiveStatus{}
	for _, o := range sr.Objectives {
		byName[o.Name] = o
	}
	avail, ok := byName["compile-availability"]
	if !ok {
		t.Fatalf("compile-availability missing: %+v", byName)
	}
	if avail.State != "ok" || avail.Good < 1 || avail.Total < 1 {
		t.Errorf("compile-availability = %+v, want ok with traffic", avail)
	}
	if lat := byName["compile-latency"]; lat.Kind != "latency" || lat.LatencySeconds <= 0 {
		t.Errorf("compile-latency = %+v, want latency kind with threshold", lat)
	}

	st := e.Stats()
	if len(st.SLO) != 6 || st.SLOWorst != "ok" {
		t.Errorf("stats slo block wrong: worst=%q len=%d", st.SLOWorst, len(st.SLO))
	}
	if st.Traces.Adds == 0 || st.Traces.Stored == 0 {
		t.Errorf("stats traces block empty: %+v", st.Traces)
	}
	if st.Bundles != -1 {
		t.Errorf("bundles = %d without a recorder, want -1", st.Bundles)
	}
}

// TestSLOPagesTripRecorder: a storm of failures drives the availability
// objective to page, and the page transition trips the flight recorder.
func TestSLOPagesTripRecorder(t *testing.T) {
	fail := errors.New("backend down")
	e := newEngine(Config{Workers: 2, Bundles: BundleConfig{
		Dir: t.TempDir(), CPUProfile: 20 * time.Millisecond,
	}, SLO: slo.Config{IntervalSeconds: 3600, Objectives: []slo.Objective{{
		// A huge interval keeps the engine's own ticker out of the test;
		// Ticks below drive evaluation deterministically.
		Name: "compile-availability", Class: ClassCompile, Target: 0.99,
	}}}}, func(context.Context, compiler.Backend, compiler.Target, *circuit.Circuit, compiler.Options) (*compiler.Result, error) {
		return nil, fail
	})
	defer e.Close()
	for i := 0; i < 10; i++ {
		j, err := e.Compile(context.Background(), Request{Benchmark: "H2-4", Seed: int64(i)})
		if err != nil || j.State != StateFailed {
			t.Fatalf("job %d: %+v err=%v, want failed", i, j, err)
		}
	}
	e.slo.Tick() // 100% failures against a 1% budget: both page windows fire
	if got := e.slo.WorstState(); got != slo.StatePage {
		t.Fatalf("state after failure storm = %v, want page", got)
	}
	e.recorder.Wait()
	bundles := e.recorder.List()
	if len(bundles) == 0 || bundles[0].Trigger != "slo-page" {
		t.Fatalf("page transition captured no slo-page bundle: %+v", bundles)
	}
	// The failed jobs were pinned, so the bundle's trace snapshot has them.
	if pinned := e.tel.traces.Pinned(); len(pinned) == 0 {
		t.Error("failure storm left no pinned traces")
	}
	if st := e.tel.traces.Stats(); st.Pins != 10 {
		t.Errorf("pins = %d, want 10", st.Pins)
	}
}

// TestBundleEndpoints: manual trigger over HTTP, manifest browsing, file
// download, and the disabled-recorder 404.
func TestBundleEndpoints(t *testing.T) {
	e := New(Config{Workers: 1, Bundles: BundleConfig{
		Dir: t.TempDir(), CPUProfile: 20 * time.Millisecond,
	}})
	srv := httptest.NewServer(e.Handler())
	t.Cleanup(func() { srv.Close(); e.Close() })

	resp, body := postJSON(t, srv.URL+"/v1/debug/bundles?reason=drill", struct{}{})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("trigger status = %d, body %s", resp.StatusCode, body)
	}
	var created struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(body, &created); err != nil || created.ID == "" {
		t.Fatalf("trigger response %s: %v", body, err)
	}
	e.recorder.Wait()

	var list []obs.BundleMeta
	if resp := getJSON(t, srv.URL+"/v1/debug/bundles", &list); resp.StatusCode != http.StatusOK {
		t.Fatalf("list status = %d", resp.StatusCode)
	}
	if len(list) != 1 || list[0].ID != created.ID || !list[0].Complete {
		t.Fatalf("bundle list wrong: %+v", list)
	}
	var meta obs.BundleMeta
	if resp := getJSON(t, srv.URL+"/v1/debug/bundles/"+created.ID, &meta); resp.StatusCode != http.StatusOK {
		t.Fatalf("get status = %d", resp.StatusCode)
	}
	wantFiles := map[string]bool{"cpu.pprof": false, "goroutine.pprof": false,
		"heap.pprof": false, "traces.json": false, "admission.json": false,
		"stats.json": false, "config.json": false, "metrics.prom": false}
	for _, f := range meta.Files {
		if _, want := wantFiles[f.Name]; want {
			wantFiles[f.Name] = f.Bytes > 0 && f.Error == ""
		}
	}
	for name, good := range wantFiles {
		if !good {
			t.Errorf("bundle file %s missing, empty, or errored: %+v", name, meta.Files)
		}
	}
	// The captured metrics dump is itself valid OpenMetrics.
	mresp, err := http.Get(srv.URL + "/v1/debug/bundles/" + created.ID + "/metrics.prom")
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(mresp.Body)
	mresp.Body.Close()
	if mresp.StatusCode != http.StatusOK {
		t.Fatalf("file status = %d", mresp.StatusCode)
	}
	if _, err := obs.ParseExposition(bytes.NewReader(raw)); err != nil {
		t.Errorf("bundled metrics.prom invalid: %v", err)
	}
	if resp := getJSON(t, srv.URL+"/v1/debug/bundles/nope", nil); resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown bundle status = %d, want 404", resp.StatusCode)
	}

	// Without -bundle-dir every bundle endpoint is a 404.
	_, srv2 := newTestServer(t, Config{Workers: 1})
	if resp := getJSON(t, srv2.URL+"/v1/debug/bundles", nil); resp.StatusCode != http.StatusNotFound {
		t.Errorf("disabled recorder list status = %d, want 404", resp.StatusCode)
	}
	if resp, _ := postJSON(t, srv2.URL+"/v1/debug/bundles", struct{}{}); resp.StatusCode != http.StatusNotFound {
		t.Errorf("disabled recorder trigger status = %d, want 404", resp.StatusCode)
	}
}

// TestOpenMetricsNegotiation: an Accept header asking for OpenMetrics gets
// exemplars and # EOF; the default scrape stays classic Prometheus text.
// Both forms must satisfy the strict parser.
func TestOpenMetricsNegotiation(t *testing.T) {
	_, srv := newTestServer(t, Config{Workers: 2})
	if resp, body := postJSON(t, srv.URL+"/v1/compile", Request{Benchmark: "H2-4", Seed: 1}); resp.StatusCode != http.StatusOK {
		t.Fatalf("compile status = %d, body %s", resp.StatusCode, body)
	}

	req, err := http.NewRequest(http.MethodGet, srv.URL+"/metrics", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Accept", "application/openmetrics-text; version=1.0.0")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "application/openmetrics-text") {
		t.Errorf("negotiated content type = %q", ct)
	}
	out := string(body)
	if !strings.Contains(out, `# {trace_id="`) {
		t.Errorf("OpenMetrics scrape carries no exemplar:\n%s", out)
	}
	if !strings.HasSuffix(strings.TrimRight(out, "\n"), "# EOF") {
		t.Error("OpenMetrics scrape must end with # EOF")
	}
	if _, err := obs.ParseExposition(bytes.NewReader(body)); err != nil {
		t.Fatalf("OpenMetrics scrape invalid: %v", err)
	}
	for _, want := range []string{
		"atomique_traces_pinned", `atomique_traces_evicted_total{segment="sampled"}`,
		`atomique_traces_evicted_total{segment="pinned"}`, "atomique_traces_sampled_out_total",
		`atomique_slo_state{objective="compile-availability"}`,
		`atomique_slo_burn_rate{objective="compile-latency",window="pageShort"}`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("scrape missing %q", want)
		}
	}

	// Plain scrape: classic exposition, no OpenMetrics extensions.
	plain, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	pbody, _ := io.ReadAll(plain.Body)
	plain.Body.Close()
	if strings.Contains(string(pbody), "trace_id") || strings.Contains(string(pbody), "# EOF") {
		t.Error("classic scrape must not carry OpenMetrics extensions")
	}
	if _, err := obs.ParseExposition(bytes.NewReader(pbody)); err != nil {
		t.Fatalf("classic scrape invalid: %v", err)
	}
}

// TestShedMintsPinnedTrace: an admission shed and a queue-full rejection
// each mint a job and pin its trace with the state, priority, reason and
// retry advice — overload evidence that survives success storms.
func TestShedMintsPinnedTrace(t *testing.T) {
	backend := newBlockingBackend()
	// One worker and one-slot queues. Any batch backlog predicts a wait far
	// past the objective, so the controller sheds batch traffic; interactive
	// traffic never sheds on predicted wait.
	e := newEngine(Config{Workers: 1, QueueSize: 1, Admission: admission.Config{
		Enabled:               true,
		Interval:              time.Millisecond,
		TargetQueueWait:       time.Millisecond,
		InteractiveSlack:      1e9,
		DefaultServiceSeconds: 1000,
	}}, backend.compile)
	defer e.Close()
	defer close(backend.release)
	ctx := context.Background()

	if _, err := e.Submit(ctx, Request{Benchmark: "H2-4", Seed: 1}); err != nil {
		t.Fatal(err)
	}
	<-backend.started
	// A batch backlog queued past the gate, then a tick that saw it; stopping
	// the loop keeps that gate in force.
	backlog, err := e.resolve(Request{Benchmark: "H2-4", Seed: 2, Priority: PriorityBatch})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.enqueue(ctx, backlog, true); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for tk := e.admTick.Load(); tk == nil || !tk.ShedBatch || tk.ShedInteractive; tk = e.admTick.Load() {
		if time.Now().After(deadline) {
			t.Fatal("controller never shed batch traffic")
		}
		time.Sleep(time.Millisecond)
	}
	e.ctrl.Stop()

	var oe *OverloadedError
	if _, err := e.Submit(ctx, Request{Benchmark: "H2-4", Seed: 3, Priority: PriorityBatch}); !errors.As(err, &oe) || oe.QueueFull {
		t.Fatalf("err = %v, want an admission shed", err)
	}
	if _, err := e.Submit(ctx, Request{Benchmark: "H2-4", Seed: 4}); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Submit(ctx, Request{Benchmark: "H2-4", Seed: 5}); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("err = %v, want queue full", err)
	}

	pinned := make(map[string]*obs.SpanSnapshot)
	for _, tr := range e.tel.traces.Pinned() {
		snap := tr.Root.Snapshot()
		pinned[snap.Attrs["state"]] = snap
	}
	for state, prio := range map[string]string{"shed": PriorityBatch, "rejected": PriorityInteractive} {
		snap := pinned[state]
		if snap == nil {
			t.Errorf("no pinned trace with state %s", state)
			continue
		}
		if snap.Name != "job" || snap.Attrs["job"] == "" {
			t.Errorf("%s trace is not a job trace: name %q, attrs %v", state, snap.Name, snap.Attrs)
		}
		if snap.Attrs["priority"] != prio || snap.Attrs["reason"] == "" {
			t.Errorf("%s trace attrs = %v, want priority %s and a reason", state, snap.Attrs, prio)
		}
		if secs, err := strconv.ParseFloat(snap.Attrs["retryAfterSeconds"], 64); err != nil || secs <= 0 {
			t.Errorf("%s trace retryAfterSeconds = %q, want a positive number", state, snap.Attrs["retryAfterSeconds"])
		}
	}
	if st := e.tel.traces.Stats(); st.Pins < 2 {
		t.Errorf("trace stats count %d pins, want at least 2: %+v", st.Pins, st)
	}
}

// TestTraceSampleDropsFastSuccesses: with a negative TraceSample (keep
// nothing), successful traces are sampled out while rejections stay pinned.
func TestTraceSampleDropsFastSuccesses(t *testing.T) {
	e := New(Config{Workers: 1, TraceSample: -1})
	defer e.Close()
	for i := 0; i < 3; i++ {
		j, err := e.Compile(context.Background(), Request{Benchmark: "H2-4", Seed: int64(i)})
		if err != nil || j.State != StateDone {
			t.Fatalf("job %d: %+v err=%v", i, j, err)
		}
	}
	st := e.tel.traces.Stats()
	if st.SampledOut != 3 || st.Stored != 0 {
		t.Errorf("stats = %+v, want 3 sampled out, 0 stored", st)
	}
}
