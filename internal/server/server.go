package server

import (
	"context"
	"sync"
	"sync/atomic"
	"time"

	"eventmatch/internal/match"
	"eventmatch/internal/server/store"
	"eventmatch/internal/server/tenant"
	"eventmatch/internal/telemetry"
)

// Config parameterizes the daemon. The zero value is usable: every field has
// a sensible default applied by withDefaults.
type Config struct {
	// Workers is the worker pool size — how many jobs execute concurrently.
	// Default 2.
	Workers int

	// QueueDepth bounds the aggregate admission queue across all tenants; a
	// submission arriving when all workers are busy and the queue holds
	// QueueDepth jobs is rejected with 429. Default 8.
	QueueDepth int

	// TenantQueueDepth caps one tenant's share of the admission queue, so a
	// single tenant's backlog can never occupy the whole queue. Zero (or any
	// value outside [1, QueueDepth]) selects QueueDepth — with only the
	// default tenant that reproduces the pre-tenancy global FIFO exactly.
	TenantQueueDepth int

	// TenantWeights sets per-tenant scheduling weights for the weighted-fair
	// queue (unlisted tenants weigh 1). Under sustained backlog, tenants are
	// served in proportion to their weights.
	TenantWeights map[string]int

	// TenantRates configures the per-tenant multi-window rate limiter
	// (window → admissions per window, every window enforced independently,
	// e.g. {time.Second: 10, time.Minute: 200}). Over-limit submissions are
	// rejected with 429 and a limiter-derived Retry-After. Nil disables rate
	// limiting.
	TenantRates tenant.Rates

	// DefaultDeadline is the per-job search wall-clock cap applied when a
	// submission does not choose one. Default 30s.
	DefaultDeadline time.Duration

	// MaxDeadline clamps client-requested deadlines. Default 5m.
	MaxDeadline time.Duration

	// SearchWorkers is the default intra-job search parallelism, and also
	// the clamp for client-requested values. Default 1 (jobs are the
	// concurrency unit; raise it on large machines).
	SearchWorkers int

	// MaxUploadBytes caps the request body (JSON or multipart). Each log is
	// additionally capped at this size by the ingestion guards. Default 32 MiB.
	MaxUploadBytes int64

	// MaxStoredJobs caps the job store; the oldest finished jobs are evicted
	// past it. Default 1024.
	MaxStoredJobs int

	// MaxCachedLogs / MaxCachedProblems cap the content-hash caches.
	// Defaults 64 and 64.
	MaxCachedLogs     int
	MaxCachedProblems int

	// ProgressEvery is the in-flight progress snapshot interval. Zero
	// selects the search default (match.DefaultProgressEvery).
	ProgressEvery time.Duration

	// MaxSessions caps concurrently live streaming sessions (each owns a
	// writer goroutine running incremental re-searches). Default 8.
	MaxSessions int

	// SessionBacklog bounds how far one session's admitted traces may run
	// ahead of its last published mapping; appends beyond it are rejected
	// with 429 until the matcher catches up. Default 256.
	SessionBacklog int

	// Store, when non-nil, makes the job lifecycle durable: submissions,
	// state transitions, periodic search checkpoints and results are
	// journaled (write-ahead, fsync'd) and uploaded logs are kept as
	// content-addressed artifacts. Nil runs fully in-memory, as before.
	// Open the store and pass its Recovery to Recover before serving.
	Store *store.Store

	// CheckpointEvery is the durable-checkpoint cadence for in-flight
	// searches. Zero selects match.DefaultCheckpointEvery. Only meaningful
	// with a Store.
	CheckpointEvery time.Duration

	// Telemetry receives all server and search metrics. Nil creates a fresh
	// registry (the daemon always runs instrumented: gauges feed the metrics
	// endpoint and the Retry-After estimate).
	Telemetry *telemetry.Registry
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = 2
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 8
	}
	if c.TenantQueueDepth <= 0 || c.TenantQueueDepth > c.QueueDepth {
		c.TenantQueueDepth = c.QueueDepth
	}
	if c.DefaultDeadline <= 0 {
		c.DefaultDeadline = 30 * time.Second
	}
	if c.MaxDeadline <= 0 {
		c.MaxDeadline = 5 * time.Minute
	}
	if c.SearchWorkers <= 0 {
		c.SearchWorkers = 1
	}
	if c.MaxUploadBytes <= 0 {
		c.MaxUploadBytes = 32 << 20
	}
	if c.MaxStoredJobs <= 0 {
		c.MaxStoredJobs = 1024
	}
	if c.MaxCachedLogs <= 0 {
		c.MaxCachedLogs = 64
	}
	if c.MaxCachedProblems <= 0 {
		c.MaxCachedProblems = 64
	}
	if c.MaxSessions <= 0 {
		c.MaxSessions = 8
	}
	if c.SessionBacklog <= 0 {
		c.SessionBacklog = 256
	}
	if c.Telemetry == nil {
		c.Telemetry = telemetry.NewRegistry()
	}
	return c
}

// sessionWorkers is the worker count of the dispatcher that hands admitted
// session appends to their cores. Appends are cheap (the core only enqueues),
// so two workers keep one slow session from delaying the rest.
const sessionWorkers = 2

// Server is the matching daemon: an admission-controlled job queue over the
// anytime matching pipeline. Create with New, mount Handler on an
// http.Server, stop with Shutdown.
type Server struct {
	cfg  Config
	reg  *telemetry.Registry
	logs *onceCache[parsedLog]
	prs  *onceCache[*match.Problem]

	// jobs and sessions hold the two resource kinds. jobQueue runs admitted
	// jobs; appendQueue hands admitted session appends to their cores. Both
	// are weighted-fair dispatchers, kept apart so a long search never
	// delays an append.
	jobs        *registry[*job]
	sessions    *registry[*streamSession]
	jobQueue    *dispatcher[*job]
	appendQueue *dispatcher[sessAppend]
	jobsRunning atomic.Int64 // jobs currently executing (telemetry gauge)

	// limiter is the per-tenant multi-window rate limiter; nil when no
	// TenantRates were configured (every submission admitted).
	limiter *tenant.Limiter

	// tenants lazily materializes per-tenant telemetry rollups
	// (server.tenant.<name>.*); tenantsMu guards the map, the counters
	// themselves are atomic.
	tenantsMu sync.Mutex
	tenants   map[string]*tenantStats

	// baseCtx parents every job context; baseCancel is the shutdown
	// force-cancel that makes in-flight searches checkpoint.
	baseCtx    context.Context
	baseCancel context.CancelFunc

	draining     atomic.Bool
	shutdownOnce sync.Once

	// ewmaJobNs is an exponentially weighted moving average of job service
	// time, feeding the Retry-After estimate on 429.
	ewmaJobNs atomic.Int64

	// store is the optional durability layer; persistCtx is detached from
	// cancellation so the shutdown force-cancel never aborts final journal
	// writes. ckptCh feeds the async checkpoint writer goroutine.
	store       *store.Store
	persistCtx  context.Context
	ckptCh      chan ckptMsg
	ckptdone    chan struct{}
	persistErrs *telemetry.Counter
	ckptDrops   *telemetry.Counter

	submitted, completed, failed, canceled, rejected, rateLimited *telemetry.Counter
	waitTimer, runTimer                                           *telemetry.Timer

	sessOpened, sessClosed, sessAborted, sessAppends, sessUpdates, sessRejected *telemetry.Counter

	// testHookBeforeRun, when non-nil, runs on the worker goroutine after a
	// job transitions to running and before the engine executes it. Tests
	// use it to hold a worker deterministically (e.g. to fill the queue for
	// backpressure assertions). Never set in production.
	testHookBeforeRun func(*job)
}

// New builds a Server and starts its worker pool.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:  cfg,
		reg:  cfg.Telemetry,
		jobs: newRegistry[*job]("j", cfg.MaxStoredJobs),
		logs: newOnceCache[parsedLog]("logcache", cfg.MaxCachedLogs, cfg.Telemetry),
		prs:  newOnceCache[*match.Problem]("problemcache", cfg.MaxCachedProblems, cfg.Telemetry),

		limiter: tenant.NewLimiter(cfg.TenantRates),
		tenants: make(map[string]*tenantStats),

		sessions: newRegistry[*streamSession]("s", cfg.MaxStoredJobs),

		sessOpened:   cfg.Telemetry.Counter("server.sessions_opened"),
		sessClosed:   cfg.Telemetry.Counter("server.sessions_closed"),
		sessAborted:  cfg.Telemetry.Counter("server.sessions_aborted"),
		sessAppends:  cfg.Telemetry.Counter("server.session_traces_appended"),
		sessUpdates:  cfg.Telemetry.Counter("server.session_updates"),
		sessRejected: cfg.Telemetry.Counter("server.session_rejected"),

		submitted:   cfg.Telemetry.Counter("server.jobs_submitted"),
		completed:   cfg.Telemetry.Counter("server.jobs_completed"),
		failed:      cfg.Telemetry.Counter("server.jobs_failed"),
		canceled:    cfg.Telemetry.Counter("server.jobs_canceled"),
		rejected:    cfg.Telemetry.Counter("server.jobs_rejected"),
		rateLimited: cfg.Telemetry.Counter("server.jobs_rate_limited"),
		waitTimer:   cfg.Telemetry.Timer("server.job_wait"),
		runTimer:    cfg.Telemetry.Timer("server.job_run"),
	}
	s.baseCtx, s.baseCancel = context.WithCancel(context.Background())
	if cfg.Store != nil {
		s.store = cfg.Store
		s.persistCtx = context.WithoutCancel(s.baseCtx)
		s.persistErrs = cfg.Telemetry.Counter("server.persist_errors")
		s.ckptDrops = cfg.Telemetry.Counter("server.checkpoints_dropped")
		s.ckptCh = make(chan ckptMsg, 16)
		s.ckptdone = make(chan struct{})
		go s.checkpointWriter()
	}
	s.jobQueue = newDispatcher(cfg.Workers, cfg.QueueDepth, cfg.TenantQueueDepth, cfg.TenantWeights, s.runJob)
	// The append queue holds chunks; the binding backlog limit is per-session
	// (SessionBacklog traces between client and matcher), so its capacity is
	// a generous ceiling and fairness comes from the stride order — a
	// flooding tenant's appends are interleaved with everyone else's.
	appendDepth := cfg.MaxSessions * cfg.SessionBacklog
	s.appendQueue = newDispatcher(sessionWorkers, appendDepth, appendDepth, cfg.TenantWeights, s.applySessionAppend)
	s.reg.RegisterFunc("server.sessions_live", func() int64 { return int64(s.sessions.live()) })
	s.reg.RegisterFunc("server.sessions_stored", func() int64 { return int64(s.sessions.len()) })
	s.reg.RegisterFunc("server.queue_depth", func() int64 { return int64(s.jobQueue.queued()) })
	s.reg.RegisterFunc("server.queue_capacity", func() int64 { return int64(cfg.QueueDepth) })
	s.reg.RegisterFunc("server.tenant_queue_capacity", func() int64 { return int64(cfg.TenantQueueDepth) })
	s.reg.RegisterFunc("server.workers", func() int64 { return int64(cfg.Workers) })
	s.reg.RegisterFunc("server.jobs_running", func() int64 { return s.jobsRunning.Load() })
	s.reg.RegisterFunc("server.jobs_stored", func() int64 { return int64(s.jobs.len()) })
	return s
}

// Telemetry exposes the server's metric registry (for expvar publication and
// tests).
func (s *Server) Telemetry() *telemetry.Registry { return s.reg }

// Draining reports whether Shutdown has begun.
func (s *Server) Draining() bool { return s.draining.Load() }

// submit admits a validated spec as a new job. reqCtx bounds the submission
// persist (the caller's HTTP request context); job execution itself runs
// under the server's base context.
func (s *Server) submit(reqCtx context.Context, spec jobSpec) (*job, error) {
	// Callers that bypass the HTTP layer (tests, recovery of pre-tenancy
	// journals) may leave the tenant empty; they account to the default
	// tenant like any other unidentified traffic.
	spec.tenant = tenant.Normalize(spec.tenant)
	j := s.newJob(spec, time.Now())
	s.jobs.add(j)
	// Journal the submission before the job can reach a worker: the 202 the
	// client is about to receive is then a durable promise. The persist hook
	// is installed before the push so every later transition is journaled
	// write-ahead.
	s.persistSubmit(reqCtx, j)
	j.persist = s.statePersister(j.id)
	if err := s.jobQueue.push(spec.tenant, j); err != nil {
		s.rejected.Inc()
		s.tenantStats(spec.tenant).rejectedQueue.Inc()
		j.cancel()
		// The job never ran; mark it terminal so the registry can evict it.
		j.finish(nil, err)
		return nil, err
	}
	s.submitted.Inc()
	s.tenantStats(spec.tenant).submitted.Inc()
	return j, nil
}

// newJob creates a queued job whose context the server's shutdown
// force-cancel reaches.
func (s *Server) newJob(spec jobSpec, created time.Time) *job {
	ctx, cancel := context.WithCancel(s.baseCtx)
	return &job{spec: spec, created: created, ctx: ctx, cancel: cancel, state: StateQueued}
}

// Retry-After bounds. The floor keeps clients from hot-looping on a
// saturated server; the cold cap keeps the first estimate (derived from the
// configured deadline, not from any observation) from parking clients for
// minutes when the deadline is generous.
const (
	// minRetryAfter is the lower bound of every Retry-After estimate.
	minRetryAfter = time.Second
	// maxColdRetryAfter caps the estimate while no job has completed yet.
	maxColdRetryAfter = 30 * time.Second
)

// retryAfter estimates how long a rejected client should back off: the
// observed average job service time, floored at minRetryAfter. Before the
// first job completes there are no EWMA samples, so the estimate falls back
// to half the default per-job deadline, clamped to
// [minRetryAfter, maxColdRetryAfter].
func (s *Server) retryAfter() time.Duration {
	ns := s.ewmaJobNs.Load()
	if ns == 0 {
		d := s.cfg.DefaultDeadline / 2
		if d < minRetryAfter {
			d = minRetryAfter
		}
		if d > maxColdRetryAfter {
			d = maxColdRetryAfter
		}
		return d
	}
	d := time.Duration(ns)
	if d < minRetryAfter {
		d = minRetryAfter
	}
	return d
}

// noteJobDuration folds one job's service time into the Retry-After EWMA
// (weight 1/4 on the new sample).
func (s *Server) noteJobDuration(d time.Duration) {
	for {
		old := s.ewmaJobNs.Load()
		var next int64
		if old == 0 {
			next = int64(d)
		} else {
			next = old + (int64(d)-old)/4
		}
		if s.ewmaJobNs.CompareAndSwap(old, next) {
			return
		}
	}
}

// Shutdown drains the daemon: admission stops immediately (submissions get
// 503), queued and running jobs are given until ctx expires to finish, then
// every in-flight search is force-canceled — the anytime contract turns that
// into truncated best-so-far results, not lost jobs. Returns once all
// workers have exited. Idempotent: later calls wait for the first drain.
func (s *Server) Shutdown(ctx context.Context) error {
	s.draining.Store(true)
	s.shutdownOnce.Do(func() {
		// Tear the streaming layer down first: append admission stops, live
		// cores abort without a terminal journal record (so open sessions
		// recover on the next boot), mid-close sessions finish their drain.
		s.shutdownSessions()
		done := make(chan struct{})
		go func() {
			s.jobQueue.drain()
			close(done)
		}()
		select {
		case <-done:
		case <-ctx.Done():
			// Deadline passed: force-cancel everything still running.
			// Workers then finish promptly (anytime checkpoint) and drain
			// completes.
			s.baseCancel()
			<-done
		}
		s.baseCancel() // release the base context in the clean-drain path too
		if s.ckptCh != nil {
			// Workers have exited, so nothing sends checkpoints anymore;
			// drain the writer before the caller closes the store.
			close(s.ckptCh)
			<-s.ckptdone
		}
	})
	return nil
}
