package main

import (
	"bytes"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"atomique/internal/admission"
	"atomique/internal/hardware"
	"atomique/internal/obs"
	"atomique/internal/service"
)

// clients is the closed loop's size: one per CPU of the 2-core box the
// benchmark was built on. Each client sends its next request only after
// reading the previous reply, as scripts, the CLI and the experiments
// batch path do.
const clients = 2

// newEngine starts the engine with atomiqued's flag defaults: GOMAXPROCS
// workers, admission off, 64-deep queues, a 256-entry cache, every trace
// kept, and the info-level JSON logger writing nowhere.
func newEngine() *service.Engine {
	return service.New(service.Config{
		QueueSize:   64,
		CacheSize:   256,
		Hardware:    hardware.BuildConfig(10, 2, 10, hardware.NeutralAtom()),
		TraceBuffer: 256,
		TraceSample: 1,
		Logger:      obs.NewLogger(io.Discard, slog.LevelInfo),
		Admission:   admission.Config{TargetQueueWait: 250 * time.Millisecond},
	})
}

// spanHeader carries the stream position to the timing handler of the
// traced window, which strips it before the engine sees the request.
const spanHeader = "X-Perfbench-Req"

// reply is what a client keeps of one exchange.
type reply struct {
	pos    int
	status int           // 0 for a transport error
	at     time.Duration // send time since the run's origin
	lat    time.Duration
	size   int
	cached bool
	// bad names the first failed per-reply check; empty when all passed.
	bad string
	// body is kept only for replies the full checks or the replay need.
	body []byte
}

// window is one timed closed-loop run.
type window struct {
	replies  []reply
	seconds  float64
	cpu      time.Duration
	alloc    uint64
	hits     uint64
	lookups  uint64
	next     int // first stream position not sent
	overflow bool
}

// loop drives one workload's stream through a server.
type loop struct {
	in     *inputs
	chk    *checker
	origin time.Time
	// limit caps the requests of one window (0: no cap), for short runs.
	limit int
}

// run sends the closed loop to s from stream position start until d has
// elapsed. keep reports which replies must retain their bodies; traced
// tags each request for the timing handler.
func (l *loop) run(s *server, start int, d time.Duration, traced bool, keep func(int) bool) *window {
	in, chk, eng, limit := l.in, l.chk, s.eng, l.limit
	var next atomic.Int64
	next.Store(int64(start))
	end := in.len()
	if limit > 0 && start+limit < end {
		end = start + limit
	}
	w := &window{}
	perClient := make([][]reply, clients)
	st0 := eng.Stats()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	cpu0 := cpuTime()
	t0 := time.Now()
	deadline := t0.Add(d)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			var body []byte
			var buf bytes.Buffer
			for time.Now().Before(deadline) {
				pos := int(next.Add(1) - 1)
				if pos >= end {
					return
				}
				r := in.at(pos)
				body = in.body(body[:0], r)
				req, err := http.NewRequest(http.MethodPost, s.srv.URL+r.kind.path(), bytes.NewReader(body))
				if err != nil {
					panic(err) // the URL is ours
				}
				req.Header.Set("Content-Type", "application/json")
				if traced {
					req.Header.Set(spanHeader, strconv.Itoa(pos))
				}
				t := time.Now()
				rep := reply{pos: pos, at: t.Sub(l.origin)}
				resp, err := s.hc.Do(req)
				if err == nil {
					buf.Reset()
					_, err = buf.ReadFrom(resp.Body)
					resp.Body.Close()
					rep.status = resp.StatusCode
				}
				rep.lat = time.Since(t)
				if err != nil {
					rep.status, rep.bad = 0, "transport: "+err.Error()
				} else {
					rep.size = buf.Len()
					rep.cached, rep.bad = chk.quick(r, pos, rep.status, buf.Bytes())
					if keep(pos) {
						rep.body = bytes.Clone(buf.Bytes())
					}
				}
				perClient[c] = append(perClient[c], rep)
			}
		}(c)
	}
	wg.Wait()
	w.seconds = time.Since(t0).Seconds()
	w.cpu = cpuTime() - cpu0
	runtime.ReadMemStats(&ms1)
	w.alloc = ms1.TotalAlloc - ms0.TotalAlloc
	st1 := eng.Stats()
	w.hits = st1.CacheHits - st0.CacheHits
	w.lookups = w.hits + st1.CacheMisses - st0.CacheMisses
	w.next = int(next.Load())
	if w.next > end {
		w.next = end
	}
	w.overflow = w.next >= in.len()
	for _, rs := range perClient {
		w.replies = append(w.replies, rs...)
	}
	sort.Slice(w.replies, func(i, j int) bool { return w.replies[i].pos < w.replies[j].pos })
	return w
}

// cpuTime is the process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err) // RUSAGE_SELF cannot fail on Linux
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// server is one engine behind a loopback HTTP listener.
type server struct {
	eng *service.Engine
	srv *httptest.Server
	hc  *http.Client
}

func newServer(eng *service.Engine, h http.Handler) *server {
	srv := httptest.NewServer(h)
	tr := srv.Client().Transport.(*http.Transport)
	tr.MaxIdleConnsPerHost = clients
	tr.DisableCompression = true
	return &server{eng: eng, srv: srv, hc: srv.Client()}
}

func (s *server) close() {
	s.hc.CloseIdleConnections()
	s.srv.Close()
}

// post sends one request outside any timed window (warm-up).
func (s *server) post(in *inputs, r *request) (int, []byte, error) {
	resp, err := s.hc.Post(s.srv.URL+r.kind.path(), "application/json", bytes.NewReader(in.body(nil, r)))
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

// setup constructs an engine and its listener and sends the warm-up
// requests, returning the server, the warm-up replies and the elapsed time.
func setup(in *inputs) (*server, [][]byte, float64, error) {
	t := time.Now()
	eng := newEngine()
	s := newServer(eng, eng.Handler())
	bodies := make([][]byte, len(in.warm))
	for i := range in.warm {
		status, b, err := s.post(in, &in.warm[i])
		if err == nil && status != http.StatusOK {
			err = fmt.Errorf("status %d: %.200s", status, b)
		}
		if err != nil {
			s.close()
			eng.Close()
			return nil, nil, 0, fmt.Errorf("warm-up request %d: %w", i, err)
		}
		bodies[i] = b
	}
	return s, bodies, time.Since(t).Seconds(), nil
}

// timingHandler wraps the engine's handler for the traced window: it
// records a handler span per request, keyed by the stream position the
// client put in spanHeader.
type timingHandler struct {
	next  http.Handler
	start time.Time
	mu    sync.Mutex
	spans []span
}

func (h *timingHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	pos, err := strconv.Atoi(r.Header.Get(spanHeader))
	r.Header.Del(spanHeader)
	t := time.Now()
	h.next.ServeHTTP(w, r)
	d := time.Since(t)
	if err != nil {
		return
	}
	h.mu.Lock()
	h.spans = append(h.spans, span{req: pos, name: "handler", start: t.Sub(h.start), dur: d})
	h.mu.Unlock()
}
