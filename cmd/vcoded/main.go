// Command vcoded is codegen-as-a-service: the multi-tenant HTTP server
// over the VCODE pipeline (internal/server).  Clients POST vasm or tinyc
// source — keyed by content hash — to /v1/exec (compile-if-needed plus
// one sandboxed call) or /v1/compile (compile-and-cache); every failure
// comes back as a typed JSON error.  Resident code shards across N
// machine arenas, tenants get fuel / resident-bytes / compile-concurrency
// / request-rate quotas, and -snapshot gives warm-cache restarts: the
// resident programs are written on shutdown and re-verified back in on
// boot, with /readyz turning ready only once the restore has finished.
//
// Crash safety: -journal replaces -snapshot with a write-ahead journal,
// the one file the server then reads and writes (-snapshot is accepted
// and ignored).  Every compile is group-committed (fsynced) before its
// response reports durable=true; boot, a periodic checkpoint
// (-checkpoint-interval) and shutdown compact the journal to one record
// per resident program; and recovery replays it — stopping at the first
// torn record — so a SIGKILL at any instant loses nothing acknowledged
// durable.  A -snapshot file is the same format, compacted on shutdown.
// Recovery routes units through the *current* -shards value, so a file
// written with N shards restores into an M-shard server.
//
// Overload protection: per-tenant token-bucket rate limiting (-default-rate
// / -default-burst or per-tenant quota rows), a per-key compile circuit
// breaker (-breaker-threshold / -breaker-cooldown), and global load
// shedding on compile-queue depth (-shed-low / -shed-high) with request
// priorities 0–9.  All three reject with typed 429/503 bodies carrying
// jittered Retry-After hints.
//
// Observability rides on the same listener: /metrics, /metrics.json,
// /debug/vars, /debug/pprof/*, /trace, /trace.txt, /healthz, /readyz,
// /v1/stats, and /debug/bundle — a one-request gzipped diagnostic
// archive (the recorder's ring + exemplars, metrics, goroutine dump,
// shard stats, journal positions).  The recorder (-record, on by
// default) keeps every request's admit/cache/journal/exec/outcome chain
// and the compile→…→call lifecycle of the code it ran in one ring;
// SIGQUIT writes a bundle to -bundle-dir without stopping the server,
// and a panic on the serve path writes one on the way down.  The SLO
// watchdog (-slo-p99, -slo-error-rate, -slo-window) tracks windowed p99
// latency and server-fault error rate per tenant and globally, exports
// slo.* gauges, and annotates /readyz with "degraded:" reasons while an
// objective is breached.
//
// Logs are structured (log/slog) with -log-format=text|json; request
// lines carry request_id, tenant, shard and key at Debug level
// (-log-level=debug).
//
// Quotas file (-quotas): JSON object mapping tenant name to
// {"fuel_per_call": N, "max_resident_bytes": N,
// "max_compile_concurrency": N, "rate_per_sec": F, "burst": N,
// "priority": N}; zero fields inherit the -default-* flags, negative
// means unlimited.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/faultinject"
	"repro/internal/server"
	"repro/internal/slo"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

// fatal logs at Error and exits — the slog replacement for log.Fatalf.
func fatal(msg string, args ...any) {
	slog.Error(msg, args...)
	os.Exit(1)
}

func main() {
	var (
		addr       = flag.String("addr", ":8753", "listen address")
		backend    = flag.String("backend", "mips", "simulated target (mips, sparc, alpha)")
		shards     = flag.Int("shards", 4, "machine arenas (code-cache shards)")
		workers    = flag.Int("workers", 2, "concurrent miss compiles per shard")
		maxEntries = flag.Int("max-entries", 512, "cached programs per shard")
		maxBytes   = flag.Int64("max-code-bytes", 1<<20, "resident code bytes per shard")
		queueBound = flag.Int64("queue-bound", 64, "compile-queue depth before 429 queue_full")
		callTO     = flag.Duration("call-timeout", 2*time.Second, "wall deadline per sandboxed call")

		defFuel  = flag.Uint64("default-fuel", 1<<20, "default per-call fuel quota")
		defBytes = flag.Int64("default-resident-bytes", 256<<10, "default resident-code quota per tenant")
		defConc  = flag.Int("default-compile-concurrency", 4, "default concurrent-compile quota per tenant")
		defRate  = flag.Float64("default-rate", 0, "default tenant request rate (req/s; 0 = unlimited)")
		defBurst = flag.Int("default-burst", 0, "default rate-limit burst (0 = one second of rate)")
		defPrio  = flag.Int("default-priority", 0, "default shed priority 1-9 (0 = 5)")

		quotaPath    = flag.String("quotas", "", "JSON file of per-tenant quotas")
		allowUnknown = flag.Bool("allow-unknown", true, "admit tenants without a quota row under the defaults")
		snapshot     = flag.String("snapshot", "", "warm-cache file without -journal (restored on boot, written on shutdown; ignored with -journal)")
		journalPath  = flag.String("journal", "", "write-ahead journal path (restored on boot, compacted by checkpoints; makes acks durable)")
		fsyncEvery   = flag.Duration("fsync-interval", 2*time.Millisecond, "journal group-commit window")
		ckptEvery    = flag.Duration("checkpoint-interval", 30*time.Second, "journal compaction period (0 = only at boot and shutdown)")
		drainTO      = flag.Duration("drain-timeout", 5*time.Second, "in-flight drain deadline on SIGTERM")

		breakerN  = flag.Int("breaker-threshold", 3, "consecutive compile failures to open a key's circuit (negative disables)")
		breakerCD = flag.Duration("breaker-cooldown", 5*time.Second, "open-circuit hold before the half-open probe")
		shedLow   = flag.Int64("shed-low", 0, "queue depth shedding priority<4 (0 = half of shards*queue-bound)")
		shedHigh  = flag.Int64("shed-high", 0, "queue depth shedding priority<8 (0 = 90% of shards*queue-bound)")

		chaosSeed      = flag.Int64("chaos-seed", 0, "fault-injection seed (enables chaos when any -chaos-* rate is set)")
		chaosJrnlWrite = flag.Float64("chaos-journal-write-rate", 0, "injected journal write-failure probability")
		chaosJrnlSync  = flag.Float64("chaos-journal-sync-rate", 0, "injected journal fsync-failure probability")
		chaosCompile   = flag.Float64("chaos-compile-rate", 0, "injected compile-failure probability")

		recordOn = flag.Bool("record", true, "record request chains and code lifecycles (served at /trace and in /debug/bundle)")

		bundleDir = flag.String("bundle-dir", ".", "directory for SIGQUIT/panic diagnostic bundles")

		sloP99    = flag.Duration("slo-p99", 250*time.Millisecond, "p99 request-latency objective")
		sloErrPct = flag.Float64("slo-error-rate", 0.5, "server-fault error-rate objective in [0,1)")
		sloWindow = flag.Duration("slo-window", 30*time.Second, "SLO evaluation window")
		sloOff    = flag.Bool("slo-disable", false, "disable the SLO watchdog")

		logFormat = flag.String("log-format", "text", "log output format (text, json)")
		logLevel  = flag.String("log-level", "info", "log level (debug, info, warn, error)")
	)
	flag.Parse()

	var level slog.Level
	if err := level.UnmarshalText([]byte(*logLevel)); err != nil {
		fmt.Fprintf(os.Stderr, "vcoded: bad -log-level %q: %v\n", *logLevel, err)
		os.Exit(1)
	}
	opts := &slog.HandlerOptions{Level: level}
	var handler slog.Handler
	switch *logFormat {
	case "text":
		handler = slog.NewTextHandler(os.Stderr, opts)
	case "json":
		handler = slog.NewJSONHandler(os.Stderr, opts)
	default:
		fmt.Fprintf(os.Stderr, "vcoded: bad -log-format %q (want text or json)\n", *logFormat)
		os.Exit(1)
	}
	logger := slog.New(handler)
	slog.SetDefault(logger)

	telemetry.SetEnabled(true)
	trace.SetEnabled(*recordOn)

	cfg := server.Config{
		Backend:              *backend,
		Shards:               *shards,
		WorkersPerShard:      *workers,
		MaxEntriesPerShard:   *maxEntries,
		MaxCodeBytesPerShard: *maxBytes,
		QueueBound:           *queueBound,
		CallTimeout:          *callTO,
		DefaultQuota: server.Quota{
			FuelPerCall:           *defFuel,
			MaxResidentBytes:      *defBytes,
			MaxCompileConcurrency: *defConc,
			RatePerSec:            *defRate,
			Burst:                 *defBurst,
			Priority:              *defPrio,
		},
		AllowUnknownTenants: *allowUnknown,
		FsyncInterval:       *fsyncEvery,
		CheckpointInterval:  *ckptEvery,
		BreakerThreshold:    *breakerN,
		BreakerCooldown:     *breakerCD,
		ShedLowWatermark:    *shedLow,
		ShedHighWatermark:   *shedHigh,
		SLO: slo.Objectives{
			P99NS:     uint64(*sloP99),
			ErrorRate: *sloErrPct,
			Window:    *sloWindow,
		},
		SLODisable: *sloOff,
		Logger:     logger,
	}
	if *chaosJrnlWrite > 0 || *chaosJrnlSync > 0 || *chaosCompile > 0 {
		cfg.Injector = faultinject.New(faultinject.Config{
			Seed:                  *chaosSeed,
			JournalWriteErrorRate: *chaosJrnlWrite,
			JournalSyncErrorRate:  *chaosJrnlSync,
			CompileErrorRate:      *chaosCompile,
		})
		logger.Info("chaos enabled",
			"seed", *chaosSeed, "journal_write", *chaosJrnlWrite,
			"journal_sync", *chaosJrnlSync, "compile", *chaosCompile)
	}
	if *quotaPath != "" {
		raw, err := os.ReadFile(*quotaPath)
		if err != nil {
			fatal("reading quotas", "err", err)
		}
		if err := json.Unmarshal(raw, &cfg.Tenants); err != nil {
			fatal("parsing quotas", "path", *quotaPath, "err", err)
		}
	}

	srv, err := server.New(cfg)
	if err != nil {
		fatal("server init", "err", err)
	}

	// A panic on any serve goroutine takes the process down; write a
	// bundle on the way so the incident is diagnosable post-mortem.
	// http.Server recovers handler panics itself, so this catches the
	// main-goroutine path; the handler wrapper below catches the rest.
	defer func() {
		if r := recover(); r != nil {
			if path, err := srv.WriteBundleFile(*bundleDir, "panic"); err == nil {
				logger.Error("panic — bundle written", "panic", fmt.Sprint(r), "bundle", path)
			}
			panic(r)
		}
	}()

	handlerMux := srv.Handler()
	hs := &http.Server{Addr: *addr, Handler: panicBundler(handlerMux, srv, *bundleDir, logger)}
	errc := make(chan error, 1)
	go func() { errc <- hs.ListenAndServe() }()
	logger.Info("serving",
		"addr", *addr, "backend", *backend, "shards", *shards, "workers_per_shard", *workers)

	// Recover after the listener is up: /healthz answers immediately,
	// /readyz flips only once the restore has finished.  Recovery is
	// tolerant — a torn or corrupt file boots cold or partially warm
	// with a typed line, never fatally.
	st, err := srv.Recover(*snapshot, *journalPath)
	if err != nil {
		logger.Warn("recovery degraded", "stats", st.String(), "err", err)
	} else if st.Warm > 0 || *snapshot != "" || *journalPath != "" {
		logger.Info("recovered", "stats", st.String())
	}

	// SIGQUIT: write a diagnostic bundle and keep serving — the
	// operator's "what is it doing right now" hook.
	quitc := make(chan os.Signal, 1)
	signal.Notify(quitc, syscall.SIGQUIT)
	go func() {
		for range quitc {
			if path, err := srv.WriteBundleFile(*bundleDir, "sigquit"); err != nil {
				logger.Error("bundle write failed", "err", err)
			} else {
				logger.Info("bundle written", "path", path)
			}
		}
	}()

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	select {
	case sig := <-sigc:
		logger.Info("draining", "signal", sig.String(), "timeout", drainTO.String())
	case err := <-errc:
		fatal("listener", "err", err)
	}

	// Graceful shutdown: stop admitting (readyz flips not-ready at
	// once), give in-flight requests the drain window, then compact the
	// journal (or write the snapshot) and release everything.
	srv.BeginDrain()
	ctx, cancel := context.WithTimeout(context.Background(), *drainTO)
	defer cancel()
	if err := hs.Shutdown(ctx); err != nil {
		logger.Warn("shutdown", "err", err)
	}
	if *journalPath != "" {
		if err := srv.Checkpoint(); err != nil {
			logger.Error("final checkpoint failed", "err", err)
		} else {
			logger.Info("final checkpoint written", "path", *journalPath)
		}
	} else if *snapshot != "" {
		if n, err := srv.SaveSnapshot(*snapshot); err != nil {
			logger.Error("snapshot save failed", "err", err)
		} else {
			logger.Info("snapshot saved", "programs", n, "path", *snapshot)
		}
	}
	srv.Close()
	fmt.Fprintln(os.Stderr, "vcoded: bye")
}

// panicBundler wraps the mux so a panicking handler writes a diagnostic
// bundle before re-panicking (net/http then logs the panic and kills
// only that connection — the bundle preserves the request chain that
// led there).
func panicBundler(next http.Handler, srv *server.Server, dir string, logger *slog.Logger) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		defer func() {
			if rec := recover(); rec != nil {
				if path, err := srv.WriteBundleFile(dir, "panic"); err == nil {
					logger.Error("handler panic — bundle written",
						"panic", fmt.Sprint(rec), "path", r.URL.Path, "bundle", path)
				} else {
					logger.Error("handler panic — bundle failed",
						"panic", fmt.Sprint(rec), "err", err)
				}
				panic(rec)
			}
		}()
		next.ServeHTTP(w, r)
	})
}
