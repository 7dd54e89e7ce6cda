// Command atomiqued serves the Atomique compiler over HTTP/JSON: a bounded
// job queue drained by a worker pool, with a content-addressed result cache
// so repeated identical requests compile once.
//
// Usage:
//
//	atomiqued [-addr :8791] [-workers 8] [-queue 64] [-cache 256]
//	          [-workers-min 1] [-workers-max 16] [-admission]
//	          [-admission-slo 250ms] [-slm 10] [-aods 2] [-aodsize 10]
//	          [-ops-addr :8792] [-log-level info] [-trace-buffer 256]
//	          [-trace-sample 1] [-slo-config slo.json] [-bundle-dir dir]
//	          [-bundle-max 8]
//
// -admission enables the saturation-aware admission controller: the worker
// pool autoscales within [-workers-min, -workers-max] and submissions are
// shed with 429 + Retry-After before the queue saturates (batch-class first;
// interactive requests keep their -admission-slo queue-wait objective).
//
// -slo-config loads declarative burn-rate objectives (default: availability
// and latency objectives per request class); GET /v1/slo reports their
// state. -bundle-dir enables the flight recorder: an SLO page, the onset of
// admission shedding, or a worker panic captures a diagnostic bundle
// (CPU/goroutine/heap profiles, pinned traces, admission model, metrics
// dump, resolved config) into a bounded on-disk ring browsable under
// GET /v1/debug/bundles. -trace-sample keeps only that fraction of fast
// successful traces; errors, sheds, and slow-tail traces are always pinned.
//
// Endpoints: POST /v1/compile, POST /v1/simulate, POST /v1/compile/batch,
// GET /v1/jobs/{id}, DELETE /v1/jobs/{id}, GET /v1/backends,
// GET /v1/benchmarks, GET /v1/healthz, GET /v1/stats, GET /v1/traces,
// GET /v1/slo, GET+POST /v1/debug/bundles, GET /metrics (OpenMetrics with
// trace-ID exemplars when the Accept header asks for it). Requests select a
// compiler backend via the "backend" field (default "atomique"; discover via
// GET /v1/backends) and may carry an X-Trace-Id header to name their request
// trace.
//
// -ops-addr starts a second listener with net/http/pprof under /debug/pprof/
// and a /metrics mirror, so profiling and scraping need not share the API
// port.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"atomique/internal/admission"
	"atomique/internal/compiler"
	"atomique/internal/core"
	"atomique/internal/hardware"
	"atomique/internal/obs"
	"atomique/internal/obs/slo"
	"atomique/internal/service"
)

// parseLogLevel maps the -log-level flag to a slog level.
func parseLogLevel(s string) (slog.Level, error) {
	switch strings.ToLower(s) {
	case "debug":
		return slog.LevelDebug, nil
	case "info":
		return slog.LevelInfo, nil
	case "warn":
		return slog.LevelWarn, nil
	case "error":
		return slog.LevelError, nil
	default:
		return 0, fmt.Errorf("unknown log level %q (debug|info|warn|error)", s)
	}
}

// opsHandler is the ops-listener mux: pprof plus a /metrics mirror.
func opsHandler(engine *service.Engine) http.Handler {
	mux := http.NewServeMux()
	mux.Handle("/metrics", engine.MetricsHandler())
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

func main() {
	var (
		addr        = flag.String("addr", ":8791", "listen address")
		workers     = flag.Int("workers", 0, "initial worker pool size (0 = GOMAXPROCS)")
		workersMin  = flag.Int("workers-min", 0, "worker pool floor for the admission controller (0 = fixed pool at -workers)")
		workersMax  = flag.Int("workers-max", 0, "worker pool ceiling for the admission controller (0 = fixed pool at -workers)")
		admit       = flag.Bool("admission", false, "enable saturation-aware admission control + pool autoscaling")
		admitSLO    = flag.Duration("admission-slo", 250*time.Millisecond, "interactive queue-wait objective for admission control")
		queue       = flag.Int("queue", 64, "job queue capacity")
		cache       = flag.Int("cache", 256, "result cache entries")
		slm         = flag.Int("slm", 0, "default SLM array side length (0 = the paper's 10)")
		aods        = flag.Int("aods", 0, "default number of AOD arrays (0 = the paper's 2)")
		aodSize     = flag.Int("aodsize", 0, "default AOD array side length (0 = the paper's 10)")
		opsAddr     = flag.String("ops-addr", "", "ops listen address for pprof + /metrics (empty = disabled)")
		logLevel    = flag.String("log-level", "info", "log level: debug, info, warn, error")
		traceBuffer = flag.Int("trace-buffer", 256, "finished traces kept for GET /v1/traces")
		traceSample = flag.Float64("trace-sample", 1, "probability a fast successful trace enters the ring (errors, sheds, and slow-tail traces are always kept)")
		sloConfig   = flag.String("slo-config", "", "JSON SLO config for the burn-rate engine (empty = default per-class objectives)")
		bundleDir   = flag.String("bundle-dir", "", "flight-recorder bundle directory (empty = recorder disabled)")
		bundleMax   = flag.Int("bundle-max", 8, "diagnostic bundles kept on disk before the oldest is deleted")
	)
	flag.Parse()

	level, err := parseLogLevel(*logLevel)
	if err != nil {
		fmt.Fprintf(os.Stderr, "atomiqued: %v\n", err)
		os.Exit(1)
	}
	logger := obs.NewLogger(os.Stderr, level)

	// The flags take a request override's rule (0 keeps the paper's value),
	// which caps -aods before it sizes the AOD list.
	hw, err := hardware.DefaultConfig().Override(*slm, *aods, *aodSize)
	if err != nil {
		fmt.Fprintf(os.Stderr, "atomiqued: %v\n", err)
		os.Exit(1)
	}

	var sloCfg slo.Config
	if *sloConfig != "" {
		sloCfg, err = slo.LoadConfig(*sloConfig)
		if err != nil {
			fmt.Fprintf(os.Stderr, "atomiqued: %v\n", err)
			os.Exit(1)
		}
	}

	engine := service.New(service.Config{
		Workers:     *workers,
		WorkersMin:  *workersMin,
		WorkersMax:  *workersMax,
		QueueSize:   *queue,
		CacheSize:   *cache,
		Hardware:    hw,
		TraceBuffer: *traceBuffer,
		TraceSample: *traceSample,
		SLO:         sloCfg,
		Bundles:     service.BundleConfig{Dir: *bundleDir, MaxBundles: *bundleMax},
		Logger:      logger,
		Admission: admission.Config{
			Enabled:         *admit,
			TargetQueueWait: *admitSLO,
		},
	})
	defer engine.Close()

	srv := &http.Server{
		Addr:              *addr,
		Handler:           engine.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errCh := make(chan error, 1)
	go func() { errCh <- srv.ListenAndServe() }()
	if *opsAddr != "" {
		ops := &http.Server{Addr: *opsAddr, Handler: opsHandler(engine), ReadHeaderTimeout: 10 * time.Second}
		go func() {
			if err := ops.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
				logger.Error("ops listener failed", "addr", *opsAddr, "error", err.Error())
			}
		}()
		defer ops.Close()
		logger.Info("ops listener up", "addr", *opsAddr, "pprof", "/debug/pprof/", "metrics", "/metrics")
	}
	fmt.Printf("atomiqued: listening on %s (%dx%d SLM + %d x %dx%d AOD, queue %d, cache %d)\n",
		*addr, hw.SLM.Rows, hw.SLM.Cols, len(hw.AODs), hw.AODs[0].Rows, hw.AODs[0].Cols, *queue, *cache)
	fmt.Printf("atomiqued: compile pipeline: %s (per-pass timings in GET /v1/stats)\n",
		strings.Join(core.PassNames(), " -> "))
	fmt.Printf("atomiqued: backends: %s (select via the request backend field)\n",
		strings.Join(compiler.Names(), ", "))
	logger.Info("serving", "addr", *addr, "workers", *workers, "queue", *queue,
		"cache", *cache, "traceBuffer", *traceBuffer,
		"admission", *admit, "workersMin", *workersMin, "workersMax", *workersMax)

	select {
	case <-ctx.Done():
		shutCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := srv.Shutdown(shutCtx); err != nil {
			fmt.Fprintf(os.Stderr, "atomiqued: shutdown: %v\n", err)
		}
		fmt.Println("atomiqued: shut down")
	case err := <-errCh:
		if !errors.Is(err, http.ErrServerClosed) {
			fmt.Fprintf(os.Stderr, "atomiqued: %v\n", err)
			os.Exit(1)
		}
	}
}
