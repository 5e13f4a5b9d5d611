// Package server is the codegen-as-a-service layer: an HTTP front end
// over the whole library stack — vasm/tinyc front ends, the VCODE
// assembler and verifier, the code cache, sandboxed calls,
// telemetry and lifecycle tracing — serving compile-and-execute (and
// compile-and-cache) to many tenants at once.
//
// Requests are keyed by content hash.  Each key maps onto one of N
// shards, each a full core.Machine arena with its own codecache, so
// resident code scales horizontally past one arena, and calls (one
// simulated CPU per shard) run N-wide.  A miss compiles on the goroutine
// of the request that found it, behind a per-shard bound on concurrent
// compiles.  Multi-tenancy is quota-based: per-tenant fuel per call,
// resident code bytes, and compile concurrency, with admission control
// pushing back (429 + Retry-After) when a shard's compile queue is past its
// bound.
// Every failure is a typed JSON error mapped one-to-one from the library
// error model (see errors.go).
//
// A warm-cache snapshot serializes the verified, resident programs to
// disk at shutdown; on boot the snapshot restores through the same cache
// flights requests use and the /readyz endpoint turns ready only once
// they drain — zero-cold-start restarts.
package server

import (
	"context"
	"errors"
	"log/slog"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/codecache"
	"repro/internal/core"
	"repro/internal/faultinject"
	"repro/internal/flightrec"
	"repro/internal/slo"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

// Config sizes a Server.
type Config struct {
	// Backend is the target port every shard simulates ("mips",
	// "sparc", "alpha"; default "mips").
	Backend string
	// Shards is the number of machine arenas (default 4).
	Shards int
	// WorkersPerShard is the number of concurrent miss compiles per
	// shard; a miss compiles on its request goroutine (default 2).
	WorkersPerShard int
	// MaxEntriesPerShard / MaxCodeBytesPerShard bound each shard's
	// cache (defaults 512 entries, 1 MiB).
	MaxEntriesPerShard   int
	MaxCodeBytesPerShard int64
	// QueueBound is the admission bound on a shard's compile queue
	// depth; past it, compile-requiring requests get queue_full
	// (default 64).
	QueueBound int64
	// CallTimeout is the wall deadline around one sandboxed call,
	// including its wait for the shard CPU (default 2s).
	CallTimeout time.Duration
	// Tenants declares the known tenants' quotas.  DefaultQuota fills
	// zero fields and governs unknown tenants when AllowUnknownTenants
	// is set; otherwise unknown tenants are rejected.
	Tenants             map[string]Quota
	DefaultQuota        Quota
	AllowUnknownTenants bool
	// FsyncInterval is the journal writer's group-commit window: appends
	// gather up to this long (or a batch bound) before one write+fsync
	// releases them all (default 2ms).
	FsyncInterval time.Duration
	// CheckpointInterval, when positive, folds journal + snapshot into a
	// fresh snapshot generation on this period (started by Recover when
	// a journal path is given).
	CheckpointInterval time.Duration
	// BreakerThreshold opens a key's compile circuit after this many
	// consecutive failures (default 3; negative disables the breaker).
	BreakerThreshold int
	// BreakerCooldown holds an open circuit before the half-open probe
	// (default 5s).
	BreakerCooldown time.Duration
	// ShedLowWatermark / ShedHighWatermark are total compile-queue depths
	// past which compile-requiring traffic below priority 4 / 8 is shed
	// (defaults: half and 90% of Shards×QueueBound).
	ShedLowWatermark  int64
	ShedHighWatermark int64
	// Registry receives the server's instruments (default
	// telemetry.Default).
	Registry *telemetry.Registry
	// SLO configures the watchdog's objectives (zero fields take the
	// slo package defaults); SLODisable skips the watchdog entirely.
	SLO        slo.Objectives
	SLODisable bool
	// Logger receives the server's structured request log (default
	// slog.Default()).  Per-request lines log at Debug so steady-state
	// traffic stays quiet unless the handler is raised to that level.
	Logger *slog.Logger
	// Injector, when set, seeds deterministic faults into every shard:
	// memory faults on the simulated machines and compile
	// errors/panics around the front ends — the soak configuration.
	Injector *faultinject.Injector
}

func (c Config) withDefaults() Config {
	if c.Backend == "" {
		c.Backend = "mips"
	}
	if c.Shards <= 0 {
		c.Shards = 4
	}
	if c.WorkersPerShard <= 0 {
		c.WorkersPerShard = 2
	}
	if c.MaxEntriesPerShard <= 0 {
		c.MaxEntriesPerShard = 512
	}
	if c.MaxCodeBytesPerShard <= 0 {
		c.MaxCodeBytesPerShard = 1 << 20
	}
	if c.QueueBound <= 0 {
		c.QueueBound = 64
	}
	if c.CallTimeout <= 0 {
		c.CallTimeout = 2 * time.Second
	}
	if c.DefaultQuota.FuelPerCall == 0 {
		c.DefaultQuota.FuelPerCall = 1 << 20
	}
	if c.FsyncInterval <= 0 {
		c.FsyncInterval = 2 * time.Millisecond
	}
	if c.BreakerThreshold == 0 {
		c.BreakerThreshold = 3
	}
	if c.BreakerCooldown <= 0 {
		c.BreakerCooldown = 5 * time.Second
	}
	capacity := int64(c.Shards) * c.QueueBound
	if c.ShedLowWatermark <= 0 {
		c.ShedLowWatermark = capacity / 2
	}
	if c.ShedHighWatermark <= 0 {
		c.ShedHighWatermark = capacity * 9 / 10
	}
	if c.Registry == nil {
		c.Registry = telemetry.Default
	}
	return c
}

// Server is the multi-tenant compile-and-execute service.
type Server struct {
	cfg     Config
	shards  []*shard
	tenants *tenantSet
	health  *telemetry.Health
	started time.Time
	log     *slog.Logger

	// SLO watchdog: nil when disabled; sloGlobal is the service-wide
	// tracker every finished request observes into.
	slo       *slo.Watchdog
	sloGlobal *slo.Tracker

	reqSeq  atomic.Uint64
	closing atomic.Bool

	// Crash durability: the steady-state journal and the paths the
	// periodic checkpointer folds into (set by Recover).
	journal  *journal
	snapPath string
	jrnlPath string
	ckptMu   sync.Mutex
	ckptQuit chan struct{}
	ckptWG   sync.WaitGroup

	// Overload protection.
	breakers   *breakerSet
	queueDepth func() int64 // summed compile backlog (tests may stub)

	// frontEnd is compileUnit (tests may wrap it to watch or hold a miss
	// inside its compile slot).
	frontEnd func(m *core.Machine, key, tenantName, lang, source, entry string) (*unit, error)

	recoveryMS atomic.Int64

	requests  *telemetry.Counter
	errorsAll *telemetry.Counter
	callNS    *telemetry.Histogram
	requestNS *telemetry.Histogram

	execRetries            *telemetry.Counter // exec's re-entries into compile after an eviction
	rateLimited            *telemetry.Counter
	shedded                *telemetry.Counter
	breakerFast            *telemetry.Counter
	checkpoints            *telemetry.Counter
	ckptErrors             *telemetry.Counter
	jrnlReplayed, jrnlTorn *telemetry.Counter

	snapSaved, snapRestored   *telemetry.Counter
	snapExact, snapRecompiled *telemetry.Counter
	snapErrors, snapIncompat  *telemetry.Counter
	snapResharded             *telemetry.Counter
}

// New builds the server: N shard arenas on the configured backend, the
// tenant set, and the health state with the two startup conditions
// (snapshot_restored, warmup_drained) registered unmet — call Restore
// (with "" when there is nothing to load) to flip them.
func New(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	reg := cfg.Registry
	s := &Server{
		cfg:            cfg,
		tenants:        newTenantSet(reg, cfg.Tenants, cfg.DefaultQuota, cfg.AllowUnknownTenants),
		health:         &telemetry.Health{},
		started:        time.Now(),
		requests:       reg.Counter("server.requests"),
		errorsAll:      reg.Counter("server.errors"),
		callNS:         reg.Histogram("server.call_ns", nil),
		requestNS:      reg.Histogram("server.request_ns", nil),
		execRetries:    reg.Counter("server.exec_retries"),
		rateLimited:    reg.Counter("server.rate_limited"),
		shedded:        reg.Counter("server.shed"),
		breakerFast:    reg.Counter("server.breaker_open"),
		checkpoints:    reg.Counter("server.checkpoints"),
		ckptErrors:     reg.Counter("server.checkpoint_errors"),
		jrnlReplayed:   reg.Counter("server.journal.replayed"),
		jrnlTorn:       reg.Counter("server.journal.torn"),
		snapSaved:      reg.Counter("server.snapshot.saved"),
		snapRestored:   reg.Counter("server.snapshot.restored"),
		snapExact:      reg.Counter("server.snapshot.exact"),
		snapRecompiled: reg.Counter("server.snapshot.recompiled"),
		snapErrors:     reg.Counter("server.snapshot.errors"),
		snapIncompat:   reg.Counter("server.snapshot.incompatible"),
		snapResharded:  reg.Counter("server.snapshot.resharded"),
	}
	s.log = cfg.Logger
	if s.log == nil {
		s.log = slog.Default()
	}
	s.queueDepth = s.totalQueueDepth
	s.frontEnd = compileUnit
	if cfg.BreakerThreshold > 0 {
		s.breakers = newBreakerSet(cfg.BreakerThreshold, cfg.BreakerCooldown)
	}
	if !cfg.SLODisable {
		s.slo = slo.New(cfg.SLO, reg, s.health)
		s.sloGlobal = s.slo.Global()
		s.tenants.setWatchdog(s.slo)
		s.slo.Start()
	}
	reg.GaugeFunc("server.recovery_ms", func() float64 {
		return float64(s.recoveryMS.Load())
	})
	s.health.Expect("snapshot_restored")
	s.health.Expect("warmup_drained")
	for i := 0; i < cfg.Shards; i++ {
		sh, err := newShard(i, cfg.Backend, cfg.WorkersPerShard, cfg.MaxEntriesPerShard, cfg.MaxCodeBytesPerShard, reg)
		if err != nil {
			return nil, err
		}
		sh.evicted = s.unitEvicted
		if cfg.Injector != nil {
			sh.machine.Mem().SetFaultHook(cfg.Injector)
		}
		s.shards = append(s.shards, sh)
	}
	return s, nil
}

// Health exposes the readiness state (the HTTP mux mounts it at
// /healthz and /readyz).
func (s *Server) Health() *telemetry.Health { return s.health }

// Shards reports the shard count.
func (s *Server) Shards() int { return len(s.shards) }

// unitEvicted is the shard eviction callback: return the program's
// bytes to its tenant's residency budget and journal a tombstone (best
// effort — a lost tombstone just re-warms an evicted key on recovery).
func (s *Server) unitEvicted(u *unit) {
	if t, apiE := s.tenants.get(u.tenantName); apiE == nil {
		t.resident.Add(-u.prog.CodeBytes())
	}
	if s.journal != nil {
		s.journal.tombstones.Inc()
		_, _ = s.journal.append(journalRecord{Op: journalOpDel, Key: u.key, Shards: len(s.shards)}, false)
	}
}

// BeginDrain stops admitting new work — requests get shutting_down and
// /readyz flips not-ready immediately — while in-flight calls keep
// running.  The graceful-shutdown sequence is BeginDrain, drain the HTTP
// server with its deadline, Checkpoint or SaveSnapshot, Close.
func (s *Server) BeginDrain() {
	s.closing.Store(true)
	s.health.Set("accepting_traffic", false)
}

// Close releases every shard's pool workers and stops the checkpointer
// and journal.  In-flight compiles and batches finish (and their journal
// appends settle) before the journal closes.
func (s *Server) Close() {
	s.closing.Store(true)
	s.stopCheckpoints()
	if s.slo != nil {
		s.slo.Stop()
	}
	for _, sh := range s.shards {
		sh.close()
	}
	if s.journal != nil {
		s.journal.close()
	}
}

// --- the two core operations ---

// compileResult is what the compile path hands the HTTP layer.
type compileResult struct {
	key     string
	shard   *shard
	fn      *core.Func
	cached  bool // served from cache without compiling here
	durable bool // journal record fsynced (or restored from disk)
}

// compile resolves (lang, source, entry) — or a bare key — to a
// resident entry function.  A miss compiles on this goroutine, behind the
// shard's compile gate, under admission control and quotas.  Concurrent
// requests for one key coalesce into a single flight regardless of
// tenant.  prio is the request's shed priority (0–9).  fr (nil-safe)
// records the admission, cache and journal decisions on the request's
// flight chain.
func (s *Server) compile(ctx context.Context, fr *flightrec.Request, t *tenant, lang, source, entry, key string, prio int) (compileResult, *APIError) {
	reject := func(apiE *APIError) (compileResult, *APIError) {
		fr.Event(flightrec.StageAdmit, flightrec.Event{
			Verdict: string(apiE.Code), Key: key, Shard: -1, Priority: int8(prio)})
		return compileResult{}, apiE
	}
	if s.closing.Load() {
		return reject(apiErr(CodeShuttingDown, "server is shutting down"))
	}
	if key == "" {
		if source == "" {
			return reject(apiErr(CodeBadRequest, "need source (or a resident key)"))
		}
		key = contentKey(lang, entry, source)
	}
	sh := s.shards[shardOf(key, len(s.shards))]
	if fn, ok := sh.cache.Get(key); ok {
		// Hit path: no admission gates ran, so the chain goes straight
		// to the cache verdict.
		fr.Event(flightrec.StageCache, flightrec.Event{
			Verdict: "hit", Key: key, Shard: int32(sh.id), Priority: int8(prio)})
		return compileResult{key: key, shard: sh, fn: fn, cached: true, durable: sh.unitDurable(key)}, nil
	}
	if source == "" {
		fr.Event(flightrec.StageCache, flightrec.Event{
			Verdict: string(CodeNotFound), Key: key, Shard: int32(sh.id), Priority: int8(prio)})
		return compileResult{}, apiErr(CodeNotFound, "key %s is not resident and no source was given", key)
	}

	// Overload protection on the compile path: keys whose compiles keep
	// failing fast-fail on the open circuit, then the global shed
	// watermarks drop low-priority traffic while queues are deep.  Both
	// run before the per-shard queue bound so a rejected request never
	// queues for a compile slot.
	if s.breakers != nil {
		if wait, open := s.breakers.allow(key); open {
			t.rejected.Inc()
			s.breakerFast.Inc()
			ms := wait.Milliseconds()
			if ms < 1 {
				ms = retryAfterBreakerMS
			}
			return reject(apiErr(CodeCircuitOpen,
				"key %s is failing repeatedly; circuit open", key).withRetryAfter(ms))
		}
	}
	if apiE := s.shedCheck(prio); apiE != nil {
		t.rejected.Inc()
		return reject(apiE)
	}

	// Admission: shard compile-queue backpressure, then tenant quotas.
	if depth := sh.queueDepth(); depth >= s.cfg.QueueBound {
		t.rejected.Inc()
		return reject(apiErr(CodeQueueFull,
			"shard %d compile queue at %d (bound %d)", sh.id, depth, s.cfg.QueueBound).
			withRetryAfter(retryAfterQueueMS))
	}
	if apiE := t.admitCompile(); apiE != nil {
		t.rejected.Inc()
		return reject(apiE)
	}
	defer t.releaseCompile()
	fr.Event(flightrec.StageAdmit, flightrec.Event{
		Verdict: "ok", Key: key, Shard: int32(sh.id), Priority: int8(prio)})

	doCompile := func() (*core.Func, error) {
		u, err := s.frontEnd(sh.machine, key, t.name, lang, source, entry)
		if err != nil {
			return nil, err
		}
		sh.admit(u, t)
		t.compiles.Inc()
		if s.journal != nil {
			// Group commit: block this flight until the record fsyncs.
			// A degraded journal (write/fsync failure) still serves the
			// unit — the ack just goes out durable=false until the next
			// checkpoint rotation hands the writer a fresh file.
			lsn, jerr := s.journal.append(journalRecord{
				Op:     journalOpAdd,
				Entry:  snapEntryOf(u, sh.id),
				Shards: len(s.shards),
			}, true)
			if jerr == nil {
				u.durable.Store(true)
				u.lsn.Store(lsn)
				fr.Event(flightrec.StageJournal, flightrec.Event{
					Verdict: "durable", Key: key, Shard: int32(sh.id), LSN: lsn})
			} else {
				fr.Event(flightrec.StageJournal, flightrec.Event{
					Verdict: "degraded", Key: key, Shard: int32(sh.id), Detail: truncate(jerr.Error())})
			}
		}
		return u.entryFn, nil
	}
	if inj := s.cfg.Injector; inj != nil {
		doCompile = inj.WrapCompile(doCompile)
	}
	led := false
	fn, err := sh.cache.GetOrCompile(key, func() (*core.Func, error) {
		// Only the flight's leader gets here: coalesced requests wait on
		// the flight, not on a slot.  A panic in the front end unwinds
		// through leave into the cache's recovery.
		led = true
		if err := sh.gate.enter(ctx); err != nil {
			return nil, err
		}
		defer sh.gate.leave()
		return doCompile()
	})
	if led && s.breakers != nil {
		// One report per flight, from the request that flew it.
		s.breakers.record(key, err)
	}
	if err != nil {
		apiE := classifyCompile(err)
		fr.Event(flightrec.StageCache, flightrec.Event{
			Verdict: "error", Key: key, Shard: int32(sh.id), Detail: string(apiE.Code)})
		return compileResult{}, apiE
	}
	verdict := "compiled"
	if !led {
		verdict = "coalesced"
	}
	fr.Event(flightrec.StageCache, flightrec.Event{
		Verdict: verdict, Key: key, Shard: int32(sh.id)})
	return compileResult{key: key, shard: sh, fn: fn, cached: !led, durable: sh.unitDurable(key)}, nil
}

// truncate bounds error text carried in flight events and logs.
func truncate(s string) string {
	if len(s) > 120 {
		return s[:120]
	}
	return s
}

// execResult is one completed call.  wall is the exec stage's host time:
// the wait for the shard's machine plus the call.
type execResult struct {
	value core.Value
	stats core.CallStats
	wall  time.Duration
}

// exec runs one sandboxed call of the compiled entry function under the
// tenant's fuel quota and the server call timeout.  fr (nil-safe) records
// the call's engine, fuel spend and wall time on the request's flight chain.
// The machine keeps no clock on its call path, so the stage is timed here,
// with one clock pair around the call.  A program evicted since compile
// returned *cr answers core.ErrUnloaded: the request goes through compile
// again (not_found when it carries no source), as often as it is evicted
// while the call's deadline lives, and *cr becomes what the call ran on.
func (s *Server) exec(ctx context.Context, fr *flightrec.Request, t *tenant, cr *compileResult, req *request) (execResult, *APIError) {
	budget := t.quota.FuelPerCall
	if fuel := req.Fuel; fuel > 0 {
		if budget > 0 && fuel > budget {
			t.rejected.Inc()
			apiE := apiErr(CodeQuotaFuel,
				"requested fuel %d exceeds tenant cap %d", fuel, budget)
			fr.Event(flightrec.StageExec, flightrec.Event{
				Verdict: string(apiE.Code), Shard: int32(cr.shard.id), Tier: 2})
			return execResult{}, apiE
		}
		budget = fuel
	}
	cctx, cancel := context.WithTimeout(ctx, s.cfg.CallTimeout)
	defer cancel()
	for {
		sh := cr.shard
		args, err := buildArgs(cr.fn.Params, req.Args)
		if err != nil {
			return execResult{}, classify(err)
		}
		start := time.Now()
		v, st, err := sh.machine.CallWithStats(cctx, core.CallOpts{Fuel: budget}, cr.fn, args...)
		wall := time.Since(start)
		if errors.Is(err, core.ErrUnloaded) {
			// Evicted since compile: ask again, or report the deadline
			// that ran out asking.
			if err = cctx.Err(); err == nil {
				s.execRetries.Inc()
				again, apiE := s.compile(ctx, fr, t, req.Lang, req.Source, req.Entry, req.Key, req.prio(t))
				if apiE != nil {
					return execResult{}, apiE
				}
				*cr = again
				continue
			}
		}
		sh.calls.Add(1)
		if telemetry.Enabled() {
			s.callNS.Observe(uint64(wall))
			t.callNS.Observe(uint64(wall))
		}
		verdict := "ok"
		var apiE *APIError
		if err != nil {
			apiE = classify(err)
			verdict = string(apiE.Code)
		}
		fr.Event(flightrec.StageExec, flightrec.Event{
			Verdict: verdict, Shard: int32(sh.id), Tier: 2,
			Detail: sh.machine.Engine().String(), Fuel: st.Fuel, DurNS: wall.Nanoseconds()})
		return execResult{value: v, stats: st, wall: wall}, apiE
	}
}

// requestID returns the caller-supplied ID or mints one: "r" and the
// sequence number, zero-padded to six digits.
func (s *Server) requestID(supplied string) string {
	if supplied != "" {
		return supplied
	}
	seq := s.reqSeq.Add(1)
	buf := append(make([]byte, 0, 24), 'r')
	for p := uint64(100000); p > seq && p > 1; p /= 10 {
		buf = append(buf, '0')
	}
	return string(strconv.AppendUint(buf, seq, 10))
}

// finishRequest records an admitted request's telemetry, its lifecycle
// span, its SLO observation, its flight-recorder outcome and (at Debug) its
// structured log line, and answers a failed one with apiE.  The span's name
// carries tenant/request-id; its flow joins the entry function's lifecycle
// lane when the function is known, so a Perfetto lane ties
// verify/install/call spans back to the network request.
func (s *Server) finishRequest(w http.ResponseWriter, a *admitted, apiE *APIError) {
	t, key, shardID := a.t, a.req.Key, -1
	if a.cr.shard != nil {
		key, shardID = a.cr.key, a.cr.shard.id
	}
	s.requests.Inc()
	t.requests.Inc()
	d := time.Since(a.start)
	if telemetry.Enabled() {
		s.requestNS.Observe(uint64(d))
		t.requestNS.Observe(uint64(d))
	}
	verdict, errText := "ok", ""
	if apiE != nil {
		s.errorsAll.Inc()
		t.errors.Inc()
		verdict, errText = string(apiE.Code), truncate(apiE.Message)
	}
	// SLO: only 5xx-class failures are the service's fault — typed 4xx
	// rejections spend the caller's budget, not the error objective.
	isFault := apiE != nil && apiE.Status() >= 500
	s.sloGlobal.Observe(uint64(d), isFault)
	t.slo.Observe(uint64(d), isFault)
	var flow uint64
	if a.cr.fn != nil {
		flow = a.cr.fn.TraceFlow()
	}
	a.sp.End(flow, trace.Attrs{Verdict: verdict, Err: errText})
	a.fr.Finish(verdict, errText, flow)
	if s.log.Enabled(context.Background(), slog.LevelDebug) {
		s.log.Debug("request",
			"request_id", a.reqID, "tenant", t.name, "shard", shardID,
			"key", key, "code", verdict, "dur_ms", d.Milliseconds())
	}
	if apiE != nil {
		writeErr(w, a.reqID, apiE)
	}
}

// lookupStats aggregates one shard's cache metrics for /v1/stats.
func (sh *shard) statsView() ShardStats {
	ar := sh.machine.ArenaStats()
	sh.mu.Lock()
	units := len(sh.units)
	sh.mu.Unlock()
	return ShardStats{
		ID:                 sh.id,
		Units:              units,
		UnitBytes:          sh.unitBytes(),
		Calls:              sh.calls.Load(),
		Compiles:           sh.compiles.Load(),
		QueueDepth:         sh.queueDepth(),
		CodeBytesResident:  ar.CodeBytesResident,
		CodeBytesHighWater: ar.CodeBytesHighWater,
		HeapBytesUsed:      ar.HeapBytesUsed,
		FreeRegions:        ar.FreeRegions,
		InstalledFuncs:     ar.Funcs,
		Cache:              sh.cache.Snapshot(),
	}
}

// ShardStats is one arena's /v1/stats row.
type ShardStats struct {
	ID                 int               `json:"id"`
	Units              int               `json:"units"`
	UnitBytes          int64             `json:"unit_bytes"`
	Calls              uint64            `json:"calls"`
	Compiles           uint64            `json:"compiles"`
	QueueDepth         int64             `json:"queue_depth"`
	CodeBytesResident  uint64            `json:"code_bytes_resident"`
	CodeBytesHighWater uint64            `json:"code_bytes_high_water"`
	HeapBytesUsed      uint64            `json:"heap_bytes_used"`
	FreeRegions        int               `json:"free_regions"`
	InstalledFuncs     int               `json:"installed_funcs"`
	Cache              codecache.Metrics `json:"cache"`
}

// TenantStats is one tenant's /v1/stats row.
type TenantStats struct {
	Name          string `json:"name"`
	Requests      uint64 `json:"requests"`
	Errors        uint64 `json:"errors"`
	Rejected      uint64 `json:"rejected"`
	Compiles      uint64 `json:"compiles"`
	ResidentBytes int64  `json:"resident_bytes"`
	Calls         uint64 `json:"calls"`
	CallP50NS     uint64 `json:"call_p50_ns"`
	CallP99NS     uint64 `json:"call_p99_ns"`
}

// Stats is the /v1/stats document.
type Stats struct {
	Backend     string        `json:"backend"`
	UptimeSec   float64       `json:"uptime_sec"`
	Ready       bool          `json:"ready"`
	Requests    uint64        `json:"requests"`
	Errors      uint64        `json:"errors"`
	RateLimited uint64        `json:"rate_limited"`
	Shed        uint64        `json:"shed"`
	BreakerOpen uint64        `json:"breaker_open"`
	Resharded   uint64        `json:"resharded"`
	RecoveryMS  int64         `json:"recovery_ms"`
	QueueDepth  int64         `json:"queue_depth"`
	CallP50NS   uint64        `json:"call_p50_ns"`
	CallP99NS   uint64        `json:"call_p99_ns"`
	Shards      []ShardStats  `json:"shards"`
	Tenants     []TenantStats `json:"tenants"`
	// SLO is the watchdog's evaluated view (absent when disabled).
	SLO *slo.Snapshot `json:"slo,omitempty"`
}

// StatsView assembles the current service-wide statistics.
func (s *Server) StatsView() Stats {
	ready, _ := s.health.Ready()
	sum := s.callNS.Summary()
	st := Stats{
		Backend:     s.cfg.Backend,
		UptimeSec:   time.Since(s.started).Seconds(),
		Ready:       ready,
		Requests:    s.requests.Load(),
		Errors:      s.errorsAll.Load(),
		RateLimited: s.rateLimited.Load(),
		Shed:        s.shedded.Load(),
		BreakerOpen: s.breakerFast.Load(),
		Resharded:   s.snapResharded.Load(),
		RecoveryMS:  s.recoveryMS.Load(),
		QueueDepth:  s.queueDepth(),
		CallP50NS:   sum.P50,
		CallP99NS:   sum.P99,
	}
	if s.slo != nil {
		snap := s.slo.View()
		st.SLO = &snap
	}
	for _, sh := range s.shards {
		st.Shards = append(st.Shards, sh.statsView())
	}
	for _, name := range s.tenants.names() {
		t, apiE := s.tenants.get(name)
		if apiE != nil {
			continue
		}
		ts := TenantStats{
			Name:          t.name,
			Requests:      t.requests.Load(),
			Errors:        t.errors.Load(),
			Rejected:      t.rejected.Load(),
			Compiles:      t.compiles.Load(),
			ResidentBytes: t.resident.Load(),
		}
		csum := t.callNS.Summary()
		ts.Calls, ts.CallP50NS, ts.CallP99NS = csum.Count, csum.P50, csum.P99
		st.Tenants = append(st.Tenants, ts)
	}
	return st
}

// errorsIs is a tiny helper for tests and drivers: whether err (an
// *APIError or anything else) carries the given code.
func errorsIs(err error, code Code) bool {
	var ae *APIError
	return errors.As(err, &ae) && ae.Code == code
}
