package guard

import (
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// Guard is one session's complete isolation state: the request and
// point token buckets and the circuit breaker, plus the counters that
// make every decision observable. All methods are safe for concurrent
// use.
type Guard struct {
	now      Clock
	watchdog time.Duration

	mu     sync.Mutex // guards limits (the configured values)
	limits Limits

	reqBucket *TokenBucket
	ptBucket  *TokenBucket
	breaker   *Breaker

	panics atomic.Int64
	stuck  atomic.Int64

	// Metrics are nil until Instrument; every bump is nil-safe.
	mRateLimitedReq *obs.Counter
	mRateLimitedPts *obs.Counter
	mBreakerState   *obs.Gauge
	mPanics         *obs.Counter
	mHeals          *obs.Counter
}

// New builds a guard from cfg. A zero Config yields a guard that
// admits everything — no rate limits, breaker disabled — so wiring a
// Guard in is behavior-neutral until an operator configures it.
func New(cfg Config) *Guard {
	now := cfg.Now
	if now == nil {
		now = time.Now
	}
	g := &Guard{
		now:      now,
		watchdog: cfg.Watchdog,
		limits:   cfg.Limits,
		breaker:  NewBreaker(cfg.Breaker, now),
	}
	g.reqBucket = NewTokenBucket(cfg.Limits.IngestQPS, cfg.Limits.IngestBurst, now)
	g.ptBucket = NewTokenBucket(cfg.Limits.PointsPerSec, cfg.Limits.PointBurst, now)
	return g
}

// Watchdog reports the per-ingest stall budget (zero = disabled).
func (g *Guard) Watchdog() time.Duration { return g.watchdog }

// AllowRequest debits one ingest request from the QPS bucket.
func (g *Guard) AllowRequest() (ok bool, retryAfter time.Duration) {
	ok, retryAfter = g.reqBucket.Take(1)
	if !ok && g.mRateLimitedReq != nil {
		g.mRateLimitedReq.Inc()
	}
	return ok, retryAfter
}

// AllowPoints debits n trajectory points from the point-budget bucket.
// Call it after decoding (the count is not known before) but before
// any pipeline work.
func (g *Guard) AllowPoints(n int) (ok bool, retryAfter time.Duration) {
	ok, retryAfter = g.ptBucket.Take(float64(n))
	if !ok && g.mRateLimitedPts != nil {
		g.mRateLimitedPts.Inc()
	}
	return ok, retryAfter
}

// Breaker exposes the session's circuit breaker.
func (g *Guard) Breaker() *Breaker { return g.breaker }

// NotePanic counts a contained ingest panic.
func (g *Guard) NotePanic() {
	g.panics.Add(1)
	if g.mPanics != nil {
		g.mPanics.Inc()
	}
}

// NoteStuck counts a watchdog-abandoned ingest.
func (g *Guard) NoteStuck() { g.stuck.Add(1) }

// Limits reports the currently configured limits.
func (g *Guard) Limits() Limits {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.limits
}

// SetLimits applies a new limit set at runtime: the buckets restart
// full under the new rates. The breaker and watchdog are
// construction-time configuration and are not touched.
func (g *Guard) SetLimits(l Limits) {
	g.mu.Lock()
	g.limits = l
	g.mu.Unlock()
	g.reqBucket.Reconfigure(l.IngestQPS, l.IngestBurst)
	g.ptBucket.Reconfigure(l.PointsPerSec, l.PointBurst)
}

// Stats is a point-in-time guard snapshot for /v1/stats.
type Stats struct {
	Limits              Limits
	BreakerEnabled      bool
	BreakerState        string
	ConsecutiveFails    int
	Trips               int64
	Heals               int64
	CooldownRemaining   time.Duration
	Panics              int64
	Stuck               int64
	RateLimitedRequests int64
	RateLimitedPoints   int64
}

// Snapshot captures the guard's observable state.
func (g *Guard) Snapshot() Stats {
	return Stats{
		Limits:              g.Limits(),
		BreakerEnabled:      g.breaker.Enabled(),
		BreakerState:        g.breaker.State().String(),
		ConsecutiveFails:    g.breaker.ConsecutiveFails(),
		Trips:               g.breaker.Trips(),
		Heals:               g.breaker.Heals(),
		CooldownRemaining:   g.breaker.CooldownRemaining(),
		Panics:              g.panics.Load(),
		Stuck:               g.stuck.Load(),
		RateLimitedRequests: g.reqBucket.Denied(),
		RateLimitedPoints:   g.ptBucket.Denied(),
	}
}

// Instrument registers the guard's metric families under the session's
// bounded-cardinality label. reg nil is a no-op (tests without obs).
func (g *Guard) Instrument(reg *obs.Registry, label obs.Label) {
	if reg == nil {
		return
	}
	g.mRateLimitedReq = reg.Counter("neat_guard_rate_limited_total", label, obs.L("kind", "requests"))
	g.mRateLimitedPts = reg.Counter("neat_guard_rate_limited_total", label, obs.L("kind", "points"))
	g.mBreakerState = reg.Gauge("neat_guard_breaker_state", label)
	g.mPanics = reg.Counter("neat_guard_panics_total", label)
	g.mHeals = reg.Counter("neat_guard_heals_total", label)
	g.mBreakerState.Set(float64(Closed))
	toClosed := reg.Counter("neat_guard_transitions_total", label, obs.L("to", "closed"))
	toOpen := reg.Counter("neat_guard_transitions_total", label, obs.L("to", "open"))
	toHalf := reg.Counter("neat_guard_transitions_total", label, obs.L("to", "half-open"))
	g.breaker.mu.Lock()
	g.breaker.onTransition = func(s State) {
		g.mBreakerState.Set(float64(s))
		switch s {
		case Closed:
			toClosed.Inc()
			g.mHeals.Inc()
		case Open:
			toOpen.Inc()
		case HalfOpen:
			toHalf.Inc()
		}
	}
	g.breaker.mu.Unlock()
}
