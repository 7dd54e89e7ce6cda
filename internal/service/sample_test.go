package service

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"reflect"
	"testing"
	"time"

	"atomique/internal/noise"
	"atomique/internal/report"
)

// tQASM is ghzQASM with a T gate appended — the minimal non-Clifford
// variant, so engine=auto resolves to the dense engine.
const tQASM = ghzQASM + "t q[0];\n"

// TestSampleEngineKeyAliasing pins the resolved-engine cache-key contract:
// the key records the engine that actually runs, so "auto" (empty) on a
// Clifford circuit and an explicit "stab" pin are one cache entry; on a
// non-Clifford circuit "auto" and an explicit "dense" pin are one entry; and
// dense/stab runs of the same Clifford circuit never alias.
func TestSampleEngineKeyAliasing(t *testing.T) {
	e := New(Config{Workers: 2})
	defer e.Close()
	compile := func(req Request) *Job {
		t.Helper()
		j, err := e.Compile(context.Background(), req)
		if err != nil {
			t.Fatal(err)
		}
		if j.State != StateDone {
			t.Fatalf("job state %s: %s", j.State, j.Error)
		}
		return j
	}

	// Clifford circuit: auto resolves to stab, so an explicit stab pin hits.
	if j := compile(Request{QASM: ghzQASM, Seed: 7, Shots: 300}); j.Cached {
		t.Fatal("first auto-engine run was already cached")
	}
	if j := compile(Request{QASM: ghzQASM, Seed: 7, Shots: 300, Engine: noise.EngineStab}); !j.Cached {
		t.Error("explicit engine=stab missed the cache entry the auto run created")
	}
	if j := compile(Request{QASM: ghzQASM, Seed: 7, Shots: 300, Engine: noise.EngineAuto}); !j.Cached {
		t.Error("explicit engine=auto missed the cache entry")
	}
	// A dense pin is a different computation and must not alias.
	if j := compile(Request{QASM: ghzQASM, Seed: 7, Shots: 300, Engine: noise.EngineDense}); j.Cached {
		t.Error("engine=dense aliased the stabilizer cache entry")
	}

	// Non-Clifford circuit: auto resolves to dense, so a dense pin hits.
	if j := compile(Request{QASM: tQASM, Seed: 7, Shots: 300}); j.Cached {
		t.Fatal("first non-Clifford auto run was already cached")
	}
	if j := compile(Request{QASM: tQASM, Seed: 7, Shots: 300, Engine: noise.EngineDense}); !j.Cached {
		t.Error("explicit engine=dense missed the cache entry the auto run created")
	}

	// Sampling and estimation of the same (circuit, options) never alias.
	if j := compile(Request{QASM: ghzQASM, Seed: 7, Shots: 300, Sample: true}); j.Cached {
		t.Error("sample run aliased the estimate cache entry")
	}
}

// TestSampleRequestValidation covers resolve-time rejection of malformed
// sampling options.
func TestSampleRequestValidation(t *testing.T) {
	e := New(Config{Workers: 1})
	defer e.Close()
	for name, req := range map[string]Request{
		"sample-no-shots":   {QASM: ghzQASM, Sample: true},
		"orphan-offset":     {QASM: ghzQASM, Shots: 10, ShotOffset: 5},
		"negative-offset":   {QASM: ghzQASM, Shots: 10, Sample: true, ShotOffset: -1},
		"range-over-cap":    {QASM: ghzQASM, Shots: 10, Sample: true, ShotOffset: noise.MaxShotIndex - 5},
		"offset-no-shots":   {QASM: ghzQASM, Sample: true, ShotOffset: 5},
		"offset-not-sample": {QASM: ghzQASM, ShotOffset: 5},
	} {
		if _, err := e.Compile(context.Background(), req); err == nil {
			t.Errorf("%s: accepted", name)
		} else if _, ok := err.(*RequestError); !ok {
			t.Errorf("%s: err = %v, want *RequestError", name, err)
		}
	}
}

// decodeSampleEnvelope unwraps a /v1/sample job response body.
func decodeSampleEnvelope(t *testing.T, body []byte) (*Job, report.Envelope) {
	t.Helper()
	var j Job
	if err := json.Unmarshal(body, &j); err != nil {
		t.Fatalf("decode job: %v\n%s", err, body)
	}
	if j.State != StateDone {
		t.Fatalf("job state %s: %s", j.State, j.Error)
	}
	var env report.Envelope
	if err := json.Unmarshal(j.Result, &env); err != nil {
		t.Fatal(err)
	}
	return &j, env
}

// TestHTTPSampleHistogram is the endpoint smoke test: POST /v1/sample
// returns an envelope whose sample histogram accounts for every shot.
func TestHTTPSampleHistogram(t *testing.T) {
	_, srv := newTestServer(t, Config{Workers: 2})
	resp, body := postJSON(t, srv.URL+"/v1/sample", Request{QASM: ghzQASM, Seed: 3, Shots: 2000})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	_, env := decodeSampleEnvelope(t, body)
	if env.Noise != nil {
		t.Error("sample response carries a fidelity estimate")
	}
	s := env.Sample
	if s == nil {
		t.Fatal("sample response carries no histogram")
	}
	if s.Shots != 2000 || s.Offset != 0 {
		t.Errorf("sample range = %d@%d, want 2000@0", s.Shots, s.Offset)
	}
	if s.Engine != noise.EngineStab {
		t.Errorf("GHZ sampling ran on %q, want the stabilizer engine", s.Engine)
	}
	var total int64
	for bits, c := range s.Counts {
		if len(bits) != s.NSlots {
			t.Errorf("bitstring %q length != %d slots", bits, s.NSlots)
		}
		total += c
	}
	if total != int64(s.Shots-s.LostShots) {
		t.Errorf("histogram totals %d, want shots - lost = %d", total, s.Shots-s.LostShots)
	}
	if s.Distinct != len(s.Counts) {
		t.Errorf("distinct = %d, counts has %d keys", s.Distinct, len(s.Counts))
	}
}

// TestHTTPSampleShardMerge is the resumable-sharding contract over the API:
// two requests covering disjoint shot ranges merge into exactly the
// histogram one full-range request returns, and each shard is its own cache
// entry (a resubmitted shard is a hit).
func TestHTTPSampleShardMerge(t *testing.T) {
	_, srv := newTestServer(t, Config{Workers: 2})
	post := func(req Request) (*Job, *noise.SampleResult) {
		t.Helper()
		resp, body := postJSON(t, srv.URL+"/v1/sample", req)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d: %s", resp.StatusCode, body)
		}
		j, env := decodeSampleEnvelope(t, body)
		if env.Sample == nil {
			t.Fatal("no sample in envelope")
		}
		return j, env.Sample
	}

	_, full := post(Request{QASM: ghzQASM, NoiseSeed: 11, Shots: 900})
	_, lo := post(Request{QASM: ghzQASM, NoiseSeed: 11, Shots: 400})
	_, hi := post(Request{QASM: ghzQASM, NoiseSeed: 11, Shots: 500, ShotOffset: 400})

	merged, err := noise.MergeSamples(lo, hi)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(merged, full) {
		t.Errorf("merged shards differ from the full run:\nmerged: %+v\nfull:   %+v", merged, full)
	}

	// Shards are independent cache entries; resubmitting one is a hit.
	if j, _ := post(Request{QASM: ghzQASM, NoiseSeed: 11, Shots: 500, ShotOffset: 400}); !j.Cached {
		t.Error("resubmitted shard missed the cache")
	}
	if j, _ := post(Request{QASM: ghzQASM, NoiseSeed: 11, Shots: 500, ShotOffset: 401}); j.Cached {
		t.Error("shifted shard aliased a cached range")
	}
}

// TestHTTPSampleStream reads the NDJSON stream end to end: per-shot records
// in global order, then a final envelope line whose histogram tallies the
// streamed records exactly.
func TestHTTPSampleStream(t *testing.T) {
	_, srv := newTestServer(t, Config{Workers: 2})
	js, _ := json.Marshal(Request{QASM: ghzQASM, NoiseSeed: 4, Shots: 700, ShotOffset: 256})
	resp, err := http.Post(srv.URL+"/v1/sample?stream=1", "application/json", bytes.NewReader(js))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("Content-Type %q, want application/x-ndjson", ct)
	}
	if resp.Header.Get(TraceHeader) == "" {
		t.Error("stream response carries no trace ID")
	}

	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	var records []noise.ShotRecord
	var env *report.Envelope
	for sc.Scan() {
		line := sc.Bytes()
		if env != nil {
			t.Fatalf("line after the final envelope: %s", line)
		}
		// The final line is the result envelope; every other line is a shot
		// record. An envelope always carries circuitHash, a record never does.
		var probe struct {
			CircuitHash string `json:"circuitHash"`
		}
		if err := json.Unmarshal(line, &probe); err != nil {
			t.Fatalf("undecodable stream line: %s", line)
		}
		if probe.CircuitHash != "" {
			var e report.Envelope
			if err := json.Unmarshal(line, &e); err != nil {
				t.Fatalf("bad envelope line: %v\n%s", err, line)
			}
			env = &e
			continue
		}
		var rec noise.ShotRecord
		if err := json.Unmarshal(line, &rec); err != nil {
			t.Fatalf("bad record line: %v\n%s", err, line)
		}
		records = append(records, rec)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if env == nil || env.Sample == nil {
		t.Fatal("stream ended without a final sample envelope")
	}
	if len(records) != 700 {
		t.Fatalf("streamed %d records, want 700", len(records))
	}
	counts := make(map[string]int64)
	for i, rec := range records {
		if rec.Shot != int64(256+i) {
			t.Fatalf("record %d has shot index %d, want %d (global order)", i, rec.Shot, 256+i)
		}
		if rec.Lost != (rec.Bits == "") {
			t.Errorf("record %d: lost=%v with bits %q", i, rec.Lost, rec.Bits)
		}
		if !rec.Lost {
			counts[rec.Bits]++
		}
	}
	if !reflect.DeepEqual(counts, env.Sample.Counts) {
		t.Errorf("streamed records tally %v, envelope histogram %v", counts, env.Sample.Counts)
	}
}

// TestHTTPSampleStreamDisconnect: a client that walks away mid-stream must
// cancel the job — the worker stops sampling instead of shovelling a million
// shots into a dead connection.
func TestHTTPSampleStreamDisconnect(t *testing.T) {
	e, srv := newTestServer(t, Config{Workers: 1})
	js, _ := json.Marshal(Request{QASM: ghzQASM, NoiseSeed: 8, Shots: 1 << 20})
	resp, err := http.Post(srv.URL+"/v1/sample?stream=1", "application/json", bytes.NewReader(js))
	if err != nil {
		t.Fatal(err)
	}
	// Read a handful of records to prove the stream is live, then hang up.
	sc := bufio.NewScanner(resp.Body)
	for i := 0; i < 5 && sc.Scan(); i++ {
		var rec noise.ShotRecord
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			t.Fatalf("bad stream line: %s", sc.Bytes())
		}
	}
	resp.Body.Close()

	// The disconnect must terminate the job (cancelled via the request
	// context, or failed when the emit write hits the dead socket).
	deadline := time.After(10 * time.Second)
	for {
		st := e.Stats()
		if st.Cancelled+st.Failed >= 1 {
			return
		}
		select {
		case <-deadline:
			t.Fatalf("job still running after client disconnect: %+v", st)
		case <-time.After(10 * time.Millisecond):
		}
	}
}

// TestSampleStreamDisconnectWhileQueued: a streaming client that disconnects
// while its job waits behind a busy worker gets its handler back at once
// (no waiting for a worker to reach the job), and the job reads cancelled.
func TestSampleStreamDisconnectWhileQueued(t *testing.T) {
	e, backend, srv, returned := serveWatching(t, "/v1/sample")
	defer close(backend.release)
	if _, err := e.Submit(context.Background(), Request{Benchmark: "H2-4", Seed: 1}); err != nil {
		t.Fatal(err)
	}
	<-backend.started

	postThenHangUp(t, e, srv.URL+"/v1/sample?stream=1", "stream-gone",
		Request{QASM: ghzQASM, NoiseSeed: 8, Shots: 64}, 1)
	awaitReturn(t, returned)
	jobs := jobsByTrace(e, "stream-gone")
	if len(jobs) != 1 || jobs[0].State != StateCancelled {
		t.Fatalf("streamed job after disconnect: %+v, want one cancelled job", jobs)
	}
	if d := e.Stats().QueueDepthBatch; d != 0 {
		t.Errorf("batch queue depth = %d after the disconnect, want 0", d)
	}
}
