package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"net/http"
	"strconv"

	"atomique/internal/bench"
	"atomique/internal/circuit"
	"atomique/internal/compiler"
	"atomique/internal/compiler/conformance"
	"atomique/internal/hardware"
	"atomique/internal/noise"
	"atomique/internal/qasm"
	"atomique/internal/report"
	"atomique/internal/service"
	"atomique/internal/stab"
)

// denseVerifyCap is the widest witness every checked reply replays in the
// dense verifier. Wider dense witnesses (up to the verifier's 22-slot
// limit) cost up to a second each at 20 slots, so one per run is verified,
// picked by the seed.
const denseVerifyCap = 16

// checker runs the output checks. quick runs on every reply as it
// arrives and only scans bytes; full decodes a kept reply after the window
// and compares it with an in-process recompile.
type checker struct {
	in *inputs
	// hotResult holds, per distinct compile-hot request, a hash of its
	// warm-up reply's result with the request-scoped traceId and trace
	// left out; every timed reply must match it.
	hotResult []uint64
	// wideLeft is how many witnesses wider than denseVerifyCap may still
	// be dense-verified in this run.
	wideLeft int
	wideSkip int
	verified map[string]int
}

func newChecker(in *inputs) *checker {
	return &checker{in: in, wideLeft: 1, verified: map[string]int{}}
}

// setWarm records the compile-hot warm-up replies the timed replies must
// reproduce.
func (c *checker) setWarm(bodies [][]byte) error {
	if c.in.workload != wlHot {
		return nil
	}
	c.hotResult = make([]uint64, len(bodies))
	for i, b := range bodies {
		h, err := resultHash(b)
		if err != nil {
			return fmt.Errorf("warm-up reply %d: %w", i, err)
		}
		c.hotResult[i] = h
	}
	return nil
}

var (
	stateDone  = []byte(`"state": "done"`)
	cachedTrue = []byte(`"cached": true`)
	resultKey  = []byte(`"result": `)
	traceIDKey = []byte(`"traceId": `)
)

// resultHash hashes a job reply's result up to its traceId field. The
// envelope encodes traceId and trace last, so this covers every other
// field byte for byte.
func resultHash(b []byte) (uint64, error) {
	i := bytes.Index(b, resultKey)
	if i < 0 {
		return 0, errors.New("reply has no result")
	}
	j := bytes.Index(b[i:], traceIDKey)
	if j < 0 {
		return 0, errors.New("result has no traceId")
	}
	h := fnv.New64a()
	h.Write(b[i : i+j])
	return h.Sum64(), nil
}

// quick checks one reply and reports whether it was served from the cache
// and, if a check failed, which.
func (c *checker) quick(r *request, pos, status int, b []byte) (cached bool, bad string) {
	if status != http.StatusOK {
		return false, fmt.Sprintf("status %d: %.200s", status, b)
	}
	if r.kind == kindStream {
		if err := checkStream(r, b); err != nil {
			return false, err.Error()
		}
		return false, ""
	}
	head := b
	if i := bytes.Index(b, resultKey); i >= 0 {
		head = b[:i]
	}
	if !bytes.Contains(head, stateDone) {
		return false, fmt.Sprintf("state not done: %.200s", b)
	}
	cached = bytes.Contains(head, cachedTrue)
	if c.in.workload == wlHot {
		if !cached {
			return cached, "compile-hot reply not served from the cache"
		}
		h, err := resultHash(b)
		if err != nil {
			return cached, err.Error()
		}
		if h != c.hotResult[c.in.seq[pos]] {
			return cached, "compile-hot reply differs from its warm-up reply"
		}
	}
	if r.kind == kindSample {
		if err := checkHistogram(r, b); err != nil {
			return cached, err.Error()
		}
	}
	return cached, ""
}

// checkStream checks a streamed sample: one record per requested shot, in
// global shot order, then the result envelope.
func checkStream(r *request, b []byte) error {
	prefix := []byte(`{"shot":`)
	rest := b
	for i := 0; i < r.shots; i++ {
		end := bytes.IndexByte(rest, '\n')
		if end < 0 {
			return fmt.Errorf("stream ends after %d records, want %d and a trailer", i, r.shots)
		}
		line := rest[:end]
		rest = rest[end+1:]
		num, ok := bytes.CutPrefix(line, prefix)
		stop := bytes.IndexAny(num, ",}")
		if !ok || stop < 0 {
			return fmt.Errorf("stream line %d is not a shot record: %.100s", i, line)
		}
		if n, err := strconv.ParseInt(string(num[:stop]), 10, 64); err != nil || n != r.offset+int64(i) {
			return fmt.Errorf("stream line %d carries shot %s, want %d", i, num[:stop], r.offset+int64(i))
		}
	}
	if trailer := bytes.TrimRight(rest, "\n"); bytes.IndexByte(trailer, '\n') >= 0 {
		return errors.New("stream carries more than one line after its records")
	}
	return checkHistogram(r, rest)
}

// checkHistogram checks that the sample histogram in an envelope or job
// reply accounts for every requested shot: counts plus lost shots.
func checkHistogram(r *request, b []byte) error {
	i := bytes.Index(b, []byte(`"sample":`))
	if i < 0 {
		return fmt.Errorf("reply has no sample: %.200s", b)
	}
	b = b[i:]
	shots, err1 := intField(b, `"shots":`)
	lost, err2 := intField(b, `"lostShots":`)
	sum, err3 := sumCounts(b)
	if err := errors.Join(err1, err2, err3); err != nil {
		return fmt.Errorf("sample histogram: %w", err)
	}
	if shots != int64(r.shots) || sum+lost != shots {
		return fmt.Errorf("sample histogram holds %d counts + %d lost for %d shots, want %d", sum, lost, shots, r.shots)
	}
	return nil
}

func skipSpace(b []byte, p int) int {
	for p < len(b) && (b[p] == ' ' || b[p] == '\n' || b[p] == '\t' || b[p] == '\r') {
		p++
	}
	return p
}

// readInt parses the integer at b[p:] and returns it with the position
// after it.
func readInt(b []byte, p int) (int64, int, error) {
	q := p
	for q < len(b) && (b[q] == '-' || b[q] >= '0' && b[q] <= '9') {
		q++
	}
	v, err := strconv.ParseInt(string(b[p:q]), 10, 64)
	return v, q, err
}

// intField reads the first integer field named key in b.
func intField(b []byte, key string) (int64, error) {
	i := bytes.Index(b, []byte(key))
	if i < 0 {
		return 0, fmt.Errorf("no %s field", key)
	}
	v, _, err := readInt(b, skipSpace(b, i+len(key)))
	return v, err
}

// sumCounts adds up the first "counts" object in b, whose keys are
// bitstrings and whose values are integers.
func sumCounts(b []byte) (int64, error) {
	i := bytes.Index(b, []byte(`"counts":`))
	if i < 0 {
		return 0, errors.New("no counts field")
	}
	p := skipSpace(b, i+len(`"counts":`))
	if p >= len(b) || b[p] != '{' {
		return 0, errors.New("counts is not an object")
	}
	var sum int64
	for p = skipSpace(b, p+1); p < len(b) && b[p] != '}'; {
		if b[p] != '"' {
			return 0, fmt.Errorf("bad counts key at byte %d", p)
		}
		q := bytes.IndexByte(b[p+1:], '"')
		if q < 0 {
			return 0, errors.New("unterminated counts key")
		}
		p = skipSpace(b, p+q+2)
		if p >= len(b) || b[p] != ':' {
			return 0, errors.New("counts key without value")
		}
		v, next, err := readInt(b, skipSpace(b, p+1))
		if err != nil {
			return 0, fmt.Errorf("counts value: %w", err)
		}
		sum += v
		if p = skipSpace(b, next); p < len(b) && b[p] == ',' {
			p = skipSpace(b, p+1)
		}
	}
	if p >= len(b) {
		return 0, errors.New("unterminated counts object")
	}
	return sum, nil
}

// served extracts the result envelope from a kept reply.
func served(r *request, b []byte) ([]byte, error) {
	if r.kind == kindStream {
		trailer := bytes.TrimRight(b, "\n")
		return trailer[bytes.LastIndexByte(trailer, '\n')+1:], nil
	}
	var j service.Job
	if err := json.Unmarshal(b, &j); err != nil {
		return nil, fmt.Errorf("decode job: %w", err)
	}
	if j.State != service.StateDone {
		return nil, fmt.Errorf("job %s is %s: %s", j.ID, j.State, j.Error)
	}
	return j.Result, nil
}

// canonical decodes an envelope and encodes its canonical form.
func canonical(b []byte) ([]byte, error) {
	var env report.Envelope
	if err := json.Unmarshal(b, &env); err != nil {
		return nil, fmt.Errorf("decode envelope: %w", err)
	}
	return env.Canonical().EncodeJSON()
}

// resolved is a request as the service resolves it.
type resolved struct {
	circ    *circuit.Circuit
	hash    string
	backend compiler.Backend
	target  compiler.Target
	opts    compiler.Options
}

// resolve does what the service's resolve does for r, without timing.
func (in *inputs) resolve(r *request) (resolved, error) {
	var rs resolved
	if r.named {
		b, ok := bench.ByName(in.circuits[r.circ].name)
		if !ok {
			return rs, fmt.Errorf("no benchmark %s", in.circuits[r.circ].name)
		}
		rs.circ = b.Circ
	} else {
		c, err := qasm.ParseString(in.circuits[r.circ].text)
		if err != nil {
			return rs, err
		}
		rs.circ = c
	}
	rs.hash = rs.circ.Fingerprint()
	return rs, in.target(r, &rs)
}

// target fills in the backend, target and options the service derives
// from r for rs.circ.
func (in *inputs) target(r *request, rs *resolved) error {
	name := r.backend
	if name == "" {
		name = service.DefaultBackend
	}
	be, ok := compiler.Lookup(name)
	if !ok {
		return fmt.Errorf("no backend %s", name)
	}
	rs.backend = be
	switch caps := be.Capabilities(); {
	case caps.FPQA && r.slm > 0:
		rs.target = compiler.FPQA(hardware.BuildConfig(r.slm, r.aods, r.slm, hardware.NeutralAtom()))
	case caps.FPQA:
		rs.target = compiler.FPQA(hardware.BuildConfig(10, 2, 10, hardware.NeutralAtom()))
	case caps.Coupling:
		rs.target = compiler.Coupling(r.family, 0)
	}
	rs.opts = compiler.Options{Seed: r.seed}
	if r.shots > 0 {
		// The service pins the engine auto-dispatch would pick.
		engine := noise.EngineDense
		if rs.circ.IsClifford() {
			engine = noise.EngineStab
		}
		rs.opts.NoisyShots, rs.opts.NoiseSeed, rs.opts.Engine = r.shots, r.noiseSeed, engine
		rs.opts.SampleBits = r.kind == kindSample || r.kind == kindStream
		rs.opts.ShotOffset = r.offset
	}
	return nil
}

// envelope builds the result envelope the service builds for res.
func envelope(hash string, res *compiler.Result) report.Envelope {
	env := report.NewEnvelope(hash, res.Metrics)
	env.Backend = res.Backend
	env.Extra = res.Extra
	env.TimedOut = res.TimedOut
	env.Noise = res.Noise
	env.Sample = res.Sample
	return env
}

// full recompiles r in-process through compiler.Backend.Compile, requires
// its canonical envelope to equal the served one, and verifies the
// recompiled witness in a simulator where one can hold it. It returns the
// served canonical envelope.
func (c *checker) full(r *request, body []byte) ([]byte, error) {
	envBytes, err := served(r, body)
	if err != nil {
		return nil, err
	}
	got, err := canonical(envBytes)
	if err != nil {
		return nil, err
	}
	rs, err := c.in.resolve(r)
	if err != nil {
		return nil, err
	}
	res, err := rs.backend.Compile(context.Background(), rs.target, rs.circ, rs.opts)
	if err != nil {
		return nil, fmt.Errorf("recompile: %w", err)
	}
	if rs.opts.NoisyShots > 0 {
		if err := compiler.AttachNoise(context.Background(), rs.target, res, rs.opts); err != nil {
			return nil, fmt.Errorf("recompile: %w", err)
		}
	}
	want, err := envelope(rs.hash, res).Canonical().EncodeJSON()
	if err != nil {
		return nil, err
	}
	if !bytes.Equal(got, want) {
		return nil, fmt.Errorf("served envelope differs from the in-process recompile:\nserved %.300s\nlocal  %.300s", got, want)
	}
	return got, c.verify(rs.circ, res)
}

// verify replays the witness against the source circuit where the dense or
// stabilizer verifier can hold it.
func (c *checker) verify(src *circuit.Circuit, res *compiler.Result) error {
	p := res.Program
	engine := "dense"
	switch {
	case p == nil:
		return errors.New("result carries no program witness")
	case src.IsClifford() && circuit.AllClifford(p.Gates) && p.NSlots <= stab.MaxQubits:
		engine = "stab"
	case p.NSlots <= denseVerifyCap:
	case p.NSlots <= noise.MaxQubits && c.wideLeft > 0:
		c.wideLeft--
	default:
		c.wideSkip++
		return nil
	}
	if err := conformance.VerifyResult(src, res); err != nil {
		return fmt.Errorf("witness check: %w", err)
	}
	c.verified[engine]++
	return nil
}

// digestOf hashes canonical envelopes in order.
func digestOf(envs [][]byte) string {
	h := sha256.New()
	for _, e := range envs {
		h.Write(e)
		h.Write([]byte{'\n'})
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}
