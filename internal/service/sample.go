package service

import (
	"encoding/json"
	"net/http"

	"atomique/internal/compiler"
	"atomique/internal/noise"
	"atomique/internal/obs"
)

// handleSample is the measurement-sampling workload entry point: compile
// (through the cache, like every job), then sample each trajectory's
// computational-basis bitstring instead of estimating fidelity. The
// histogram rides in the envelope's "sample" field.
//
// Without ?stream=1 it is POST /v1/compile with sampling defaulted on —
// including the ?async=1 contract and the content-addressed cache, so a
// resubmitted shard (same circuit, options, seed, and shot range) is a
// cache hit. With ?stream=1 the response is NDJSON: one line per shot
// record, in global shot order, followed by a final result-envelope line;
// streaming runs bypass the cache because the record stream only exists on
// this connection.
//
// Sample jobs default to batch priority: a million-shot sampling job is
// throughput work that must queue behind interactive compiles.
func (e *Engine) handleSample(w http.ResponseWriter, r *http.Request) {
	var req Request
	if !decodeRequest(w, r, &req) {
		return
	}
	req.Sample = true
	if req.Shots == 0 {
		req.Shots = compiler.DefaultSampleShots
	}
	if req.Priority == "" {
		req.Priority = PriorityBatch
	}
	stream, err := queryBool(r, "stream")
	if err != nil {
		writeError(w, err)
		return
	}
	if !stream {
		e.serveCompile(w, r, req)
		return
	}
	e.serveSampleStream(w, r, req)
}

// serveSampleStream runs one sampling job with a live NDJSON shot stream.
// The job goes through the same admission gate, priority queue, and worker
// pool as everything else; the worker's emit callback writes record batches
// straight to the response (the emitter in internal/noise serialises calls
// and preserves global shot order). A client that disconnects gives the job
// up: the handler returns at once for a queued job, and for a running one
// as soon as its sampler sees the cancellation. Errors before the first
// record are proper HTTP error responses; after the first record the status
// is already committed, so failures surface as a final {"error": ...} line.
func (e *Engine) serveSampleStream(w http.ResponseWriter, r *http.Request, req Request) {
	t, err := e.resolve(req)
	if err != nil {
		writeError(w, err)
		return
	}
	// The worker goroutine writes the response body through emit while this
	// goroutine waits, so headers — committed by the first write — must be
	// final before submission; nothing may touch the header map afterwards.
	// That means minting the trace ID up front rather than echoing the job's.
	ctx := r.Context()
	traceID := obs.TraceIDFromContext(ctx)
	if traceID == "" {
		traceID = obs.MintTraceID()
		ctx = obs.ContextWithTraceID(ctx, traceID)
	}
	w.Header().Set(TraceHeader, traceID)
	w.Header().Set("Content-Type", "application/x-ndjson")

	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)
	wrote := false // worker writes before finish; handler reads after j.done
	t.emit = func(batch []noise.ShotRecord) error {
		wrote = true
		for i := range batch {
			if err := enc.Encode(&batch[i]); err != nil {
				return err
			}
		}
		e.tel.streamedShots.Add(float64(len(batch)))
		if flusher != nil {
			flusher.Flush()
		}
		return nil
	}
	j, err := e.enqueue(ctx, t, false)
	if err != nil {
		w.Header().Del("Content-Type")
		writeError(w, err)
		return
	}
	jv, err := e.await(ctx, j)
	if err != nil {
		// Client gone. await finished a queued job at once; a running one
		// stops sampling once it sees the cancellation. Either way the
		// worker is done with w when j.done closes.
		<-j.done
		return
	}
	switch {
	case jv.State == StateDone:
		// Final line: the full result envelope (metrics + histogram), the
		// same payload the non-streaming path returns.
		w.Write(jv.Result) //nolint:errcheck // client gone; nothing to do
		if _, err := w.Write([]byte("\n")); err == nil && flusher != nil {
			flusher.Flush()
		}
	case !wrote:
		// Nothing sent yet: report the failure with a real status code.
		w.Header().Del("Content-Type")
		msg := jv.Error
		if msg == "" {
			msg = "job " + string(jv.State)
		}
		writeJSON(w, http.StatusUnprocessableEntity, errorBody{Error: msg})
	default:
		// Mid-stream failure or cancellation: the 200 is committed, so the
		// error rides as a final NDJSON line clients can detect.
		enc.Encode(errorBody{Error: "job " + string(jv.State) + ": " + jv.Error}) //nolint:errcheck
	}
}
