// Package service is the multi-tenant front-end of the experiment
// engine: one long-running Service owns one shared engine.Engine and
// hands out per-tenant Sessions, so many concurrent clients run
// experiment selections against a single two-tier trace cache instead
// of each paying cold captures. Three concerns layer on top of the
// engine's seams:
//
//   - Per-tenant space control. Every Session carries an engine.Budget
//     nested under the engine's root budget (engine.WithBudget), so a
//     tenant that exhausts its byte slice degrades its own workloads to
//     direct re-execution — byte-identical results, just uncached —
//     without evicting or displacing another tenant's entries.
//   - Admission control. At most MaxInflight passes run on the engine
//     at once; excess requests queue up to MaxQueue deep and wait up to
//     MaxWait for a slot. Overflow and timeout are rejected with the
//     typed ErrAdmission rather than piling unbounded work on the pool.
//   - Request coalescing. Identical selections (same scale, same
//     ordered experiment names) arriving while a run is in flight join
//     that run instead of starting their own — the cross-tenant
//     analogue of the engine's per-workload singleflight. Joined
//     requests share one pass, one admission slot, and one result set.
//
// Results are the same []*report.Result / *engine.PassReport pair the
// offline CLI uses, so the HTTP front-end (http.go) can serve bytes
// identical to `memosim -run -json`.
package service

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"memotable/internal/engine"
	"memotable/internal/experiments"
	"memotable/internal/faults"
	"memotable/internal/report"
)

// ErrAdmission reports a request refused by admission control: the
// queue was full, or no engine slot freed up within the max wait.
var ErrAdmission = errors.New("service: admission rejected")

// Config shapes a Service. Zero values select sensible defaults.
type Config struct {
	// MaxInflight bounds the passes running on the engine at once
	// (<= 0 selects max(2, engine workers)).
	MaxInflight int
	// MaxQueue bounds how many admitted-but-waiting requests may queue
	// for a slot (<= 0 selects 4x MaxInflight). Requests beyond the
	// queue are rejected immediately with ErrAdmission.
	MaxQueue int
	// MaxWait bounds how long a queued request waits for a slot before
	// ErrAdmission (<= 0 selects 2s).
	MaxWait time.Duration
	// TenantBudget is the cache-byte budget of each tenant's Session,
	// nested under the engine's root budget (<= 0 gives every tenant
	// the root limit — bounded globally, unbounded per tenant).
	TenantBudget int64
	// RunTimeout bounds each run's wall clock on the engine, beyond any
	// per-request deadline (0 = no limit).
	RunTimeout time.Duration
}

// Service is the shared front-end: one engine, many tenants. Construct
// with New.
type Service struct {
	eng *engine.Engine
	cfg Config

	sem    chan struct{} // admission slots; len(sem) = passes in flight
	queued atomic.Int64  // requests waiting for a slot

	mu        sync.Mutex
	tenants   map[string]*Session
	runs      map[string]*runCall // in-flight coalescable runs by selection key
	closed    bool
	beforeRun func(key string)                                    // test hook: called by the run leader before admission
	afterRun  func(key string, rep *engine.PassReport, err error) // test hook: called with the leader's outcome before done closes

	// Counters (atomic; snapshot with Stats).
	requests      atomic.Uint64 // runs requested across all sessions
	runsStarted   atomic.Uint64 // runs that executed on the engine
	runsCoalesced atomic.Uint64 // requests that joined an in-flight run
	admitted      atomic.Uint64 // runs that acquired an engine slot
	rejected      atomic.Uint64 // requests refused by admission control
}

// New builds a Service over an engine the caller constructed (workers,
// trace dir and store already configured). The Service owns
// the engine from here: Close closes it.
func New(eng *engine.Engine, cfg Config) *Service {
	if cfg.MaxInflight <= 0 {
		cfg.MaxInflight = eng.Workers()
		if cfg.MaxInflight < 2 {
			cfg.MaxInflight = 2
		}
	}
	if cfg.MaxQueue <= 0 {
		cfg.MaxQueue = 4 * cfg.MaxInflight
	}
	if cfg.MaxWait <= 0 {
		cfg.MaxWait = 2 * time.Second
	}
	return &Service{
		eng:     eng,
		cfg:     cfg,
		sem:     make(chan struct{}, cfg.MaxInflight),
		tenants: make(map[string]*Session),
		runs:    make(map[string]*runCall),
	}
}

// Engine returns the shared engine (stats, tiers, store access).
func (s *Service) Engine() *engine.Engine { return s.eng }

// Close shuts the service down: new runs fail with engine.ErrClosed
// (in-flight passes drain first — Engine.Close waits for them), and the
// engine's scratch store is removed. Idempotent, like Engine.Close.
func (s *Service) Close() error {
	s.mu.Lock()
	s.closed = true
	s.mu.Unlock()
	return s.eng.Close()
}

// Session is one tenant's handle on the service: a name, a cache-byte
// budget nested under the engine's global limit, and per-tenant request
// counters. Sessions are cheap and long-lived; all methods are safe for
// concurrent use.
type Session struct {
	svc    *Service
	tenant string
	budget *engine.Budget

	requests atomic.Uint64 // runs requested by this tenant
	degraded atomic.Uint64 // responses carrying failed cells
}

// Session returns tenant's session, creating it on first use with the
// configured TenantBudget nested under the engine's root budget.
func (s *Service) Session(tenant string) *Session {
	s.mu.Lock()
	defer s.mu.Unlock()
	sess, ok := s.tenants[tenant]
	if !ok {
		limit := s.cfg.TenantBudget
		if limit <= 0 {
			limit = s.eng.Budget().Limit()
		}
		sess = &Session{svc: s, tenant: tenant, budget: s.eng.Budget().Child(limit)}
		s.tenants[tenant] = sess
	}
	return sess
}

// Tenant returns the session's tenant name.
func (s *Session) Tenant() string { return s.tenant }

// Budget returns the session's byte budget (a child of the engine's
// root budget), for inspection and limit adjustment.
func (s *Session) Budget() *engine.Budget { return s.budget }

// runCall is one in-flight coalescable run: the leader executes, every
// identical request arriving before completion joins as a follower and
// shares the outcome. waiters tracks who is still interested; when the
// last waiter abandons the call (its own context fired), the run itself
// is canceled.
type runCall struct {
	done    chan struct{}
	cancel  context.CancelFunc
	waiters int

	results []*report.Result
	rep     *engine.PassReport
	err     error
}

// runKey identifies a coalescable selection: the scale plus the ordered
// name list. Order matters — results come back in selection order, so
// two requests naming the same experiments in different orders want
// different responses and must not coalesce.
func runKey(scale experiments.Scale, names []string) string {
	return scale.String() + "|" + strings.Join(names, ",")
}

// Run executes an experiment selection (all registered experiments when
// names is empty) at the given scale and returns the selection-ordered
// results plus the engine's pass report, exactly as the offline
// experiments.RunContext would. Identical concurrent selections — any
// tenant's — coalesce into one engine pass. Cache bytes the run
// captures are charged to this session's budget; a selection that
// overflows it degrades to direct re-execution without touching other
// tenants' entries.
//
// Failure surfaces as: ErrAdmission (queue full or slot wait expired),
// engine.ErrClosed (service shut down), a context/cancellation error
// (the request's own ctx fired), or a selection-planning error from the
// registry (unknown names). Cell-level failures do not error — they
// ride in the PassReport and degrade the affected results.
func (sess *Session) Run(ctx context.Context, scale experiments.Scale, names ...string) ([]*report.Result, *engine.PassReport, error) {
	s := sess.svc
	s.requests.Add(1)
	sess.requests.Add(1)
	if err := faults.Inject(faults.ServiceAdmit); err != nil {
		s.rejected.Add(1)
		return nil, nil, fmt.Errorf("%w: %w", ErrAdmission, err)
	}

	key := runKey(scale, names)
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil, nil, engine.ErrClosed
	}
	c, joined := s.runs[key]
	if joined {
		c.waiters++
		s.runsCoalesced.Add(1)
	} else {
		base := context.Background()
		var cancel context.CancelFunc
		if s.cfg.RunTimeout > 0 {
			base, cancel = context.WithTimeout(base, s.cfg.RunTimeout)
		} else {
			base, cancel = context.WithCancel(base)
		}
		c = &runCall{done: make(chan struct{}), cancel: cancel, waiters: 1}
		s.runs[key] = c
		s.runsStarted.Add(1)
		hook := s.beforeRun
		after := s.afterRun
		go s.execute(base, c, sess, key, scale, names, hook, after)
	}
	s.mu.Unlock()

	select {
	case <-c.done:
		s.leave(key, c)
		if c.err == nil && c.rep != nil && (len(c.rep.Errors) > 0 || c.rep.Canceled) {
			sess.degraded.Add(1)
		}
		return c.results, c.rep, c.err
	case <-ctx.Done():
		s.leave(key, c)
		return nil, nil, fmt.Errorf("%w: %w", engine.ErrCanceled, context.Cause(ctx))
	}
}

// leave retires one waiter from a call; the last one out cancels the
// run (a no-op once it has completed).
func (s *Service) leave(key string, c *runCall) {
	s.mu.Lock()
	c.waiters--
	last := c.waiters == 0
	s.mu.Unlock()
	if last {
		c.cancel()
	}
}

// execute is the run leader: it acquires an admission slot, runs the
// selection on the shared engine under the leading tenant's budget, and
// publishes the outcome to every waiter. The call is deregistered
// before done is closed, so a request arriving after completion starts
// a fresh run — the coalescing window is exactly the in-flight window.
func (s *Service) execute(ctx context.Context, c *runCall, sess *Session, key string, scale experiments.Scale, names []string, hook func(string), after func(string, *engine.PassReport, error)) {
	defer func() {
		s.mu.Lock()
		delete(s.runs, key)
		s.mu.Unlock()
		if after != nil {
			after(key, c.rep, c.err)
		}
		close(c.done)
		c.cancel()
	}()
	if hook != nil {
		hook(key)
	}
	if err := s.admit(ctx); err != nil {
		c.err = err
		return
	}
	defer func() { <-s.sem }()
	if err := faults.Inject(faults.ServiceRun); err != nil {
		c.err = fmt.Errorf("service: run failed: %w", err)
		return
	}
	runCtx := engine.WithBudget(ctx, sess.budget)
	c.results, c.rep, c.err = experiments.RunContext(runCtx, s.eng, scale, names...)
}

// admit acquires an engine slot for one run: immediate when a slot is
// free, queued up to MaxQueue deep and MaxWait long otherwise. The
// queue bound is checked optimistically — a burst may briefly overshoot
// by the number of racing requests, which trades exactness for never
// serializing admissions behind a lock.
func (s *Service) admit(ctx context.Context) error {
	select {
	case s.sem <- struct{}{}:
		s.admitted.Add(1)
		return nil
	default:
	}
	if int(s.queued.Load()) >= s.cfg.MaxQueue {
		s.rejected.Add(1)
		return fmt.Errorf("%w: queue full (%d waiting)", ErrAdmission, s.cfg.MaxQueue)
	}
	s.queued.Add(1)
	defer s.queued.Add(-1)
	t := time.NewTimer(s.cfg.MaxWait)
	defer t.Stop()
	select {
	case s.sem <- struct{}{}:
		s.admitted.Add(1)
		return nil
	case <-t.C:
		s.rejected.Add(1)
		return fmt.Errorf("%w: no slot within %v", ErrAdmission, s.cfg.MaxWait)
	case <-ctx.Done():
		s.rejected.Add(1)
		return fmt.Errorf("%w: %w", engine.ErrCanceled, context.Cause(ctx))
	}
}

// Stats is a point-in-time snapshot of the service's request flow —
// flat and JSON-friendly, the front-of-house sibling of engine.Stats.
type Stats struct {
	Tenants       int    `json:"tenants"`
	Requests      uint64 `json:"requests"`
	RunsStarted   uint64 `json:"runs_started"`
	RunsCoalesced uint64 `json:"runs_coalesced"`
	Admitted      uint64 `json:"admitted"`
	Rejected      uint64 `json:"rejected"`
	Inflight      int    `json:"inflight"`
	Queued        int    `json:"queued"`
}

// Stats snapshots the service counters.
func (s *Service) Stats() Stats {
	s.mu.Lock()
	tenants := len(s.tenants)
	s.mu.Unlock()
	return Stats{
		Tenants:       tenants,
		Requests:      s.requests.Load(),
		RunsStarted:   s.runsStarted.Load(),
		RunsCoalesced: s.runsCoalesced.Load(),
		Admitted:      s.admitted.Load(),
		Rejected:      s.rejected.Load(),
		Inflight:      len(s.sem),
		Queued:        int(s.queued.Load()),
	}
}
