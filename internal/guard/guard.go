// Package guard is the tenant-isolation layer: per-session token-bucket
// rate limits and a circuit breaker that quarantines a failing session
// until half-open probes prove it healthy again. One Guard instance
// belongs to one session and makes its rate and quarantine decisions
// before a request touches the clustering pipeline, so an abusive or
// faulty tenant is shed at the door instead of wedging the shared
// queue or poisoning derived state.
//
// Every decision is a pure function of the Guard's state and an
// injected clock: nothing in this package reads the wall clock unless
// the caller left Config.Now nil, which is what makes breaker trips and
// limiter verdicts reproducible under the seeded fault injector (a
// chaos scenario drives a ManualClock and gets the same transitions
// every run).
package guard

import (
	"sync"
	"time"
)

// Clock supplies the current time to every guard decision. Inject a
// ManualClock's Now in tests and chaos scenarios; leave Config.Now nil
// for time.Now in production.
type Clock func() time.Time

// ManualClock is a hand-advanced Clock for deterministic tests: time
// stands still (buckets never refill, cooldowns never expire) until
// Advance or Set moves it. Safe for concurrent use.
type ManualClock struct {
	mu  sync.Mutex
	now time.Time
}

// NewManualClock starts a clock frozen at start.
func NewManualClock(start time.Time) *ManualClock {
	return &ManualClock{now: start}
}

// Now returns the current manual time; pass it as Config.Now.
func (c *ManualClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

// Advance moves the clock forward by d (negative d is ignored: the
// guards assume time never runs backwards).
func (c *ManualClock) Advance(d time.Duration) {
	if d < 0 {
		return
	}
	c.mu.Lock()
	c.now = c.now.Add(d)
	c.mu.Unlock()
}

// Set jumps the clock to t if t is not before the current time.
func (c *ManualClock) Set(t time.Time) {
	c.mu.Lock()
	if t.After(c.now) {
		c.now = t
	}
	c.mu.Unlock()
}

// Limits are the per-session rate knobs. The zero value means
// "unlimited" for every rate, which keeps single-tenant deployments
// byte-identical to the pre-guard behavior unless an operator opts in.
type Limits struct {
	// IngestQPS caps ingest requests per second (token bucket);
	// <= 0 means unlimited.
	IngestQPS float64
	// IngestBurst is the request bucket depth; 0 derives
	// max(1, ceil(IngestQPS)).
	IngestBurst int
	// PointsPerSec caps trajectory points accepted per second across
	// a session's ingests; <= 0 means unlimited.
	PointsPerSec float64
	// PointBurst is the point bucket depth; 0 derives
	// max(1, ceil(PointsPerSec)). A single batch larger than the
	// burst costs the full bucket rather than being unadmittable.
	PointBurst int
}

// BreakerConfig tunes the per-session circuit breaker. The zero value
// disables it (TripAfter <= 0): sessions then fail exactly as they did
// before this package existed.
type BreakerConfig struct {
	// TripAfter is how many consecutive ingest failures open the
	// breaker; <= 0 disables the breaker entirely.
	TripAfter int
	// Cooldown is how long the breaker stays open before allowing a
	// half-open probe; 0 selects 30s.
	Cooldown time.Duration
	// ProbeSuccesses is how many consecutive half-open probe
	// successes close the breaker; < 1 means 1.
	ProbeSuccesses int
}

func (c BreakerConfig) withDefaults() BreakerConfig {
	if c.Cooldown <= 0 {
		c.Cooldown = 30 * time.Second
	}
	if c.ProbeSuccesses < 1 {
		c.ProbeSuccesses = 1
	}
	return c
}

// Config assembles one session's guard.
type Config struct {
	Limits  Limits
	Breaker BreakerConfig
	// Watchdog bounds a single ingest's pipeline time; an ingest
	// exceeding it is abandoned with ErrStuck and counts as a breaker
	// failure. <= 0 disables the watchdog.
	Watchdog time.Duration
	// Now injects the clock; nil selects time.Now.
	Now Clock
}
