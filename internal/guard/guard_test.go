package guard

import (
	"testing"
	"time"
)

func manual() (*ManualClock, Clock) {
	clk := NewManualClock(time.Unix(1_700_000_000, 0))
	return clk, clk.Now
}

func TestTokenBucketRefillAndRetryAfter(t *testing.T) {
	clk, now := manual()
	b := NewTokenBucket(2, 4, now) // 2 tokens/sec, burst 4, starts full

	for i := 0; i < 4; i++ {
		if ok, _ := b.Take(1); !ok {
			t.Fatalf("take %d refused on a full bucket", i)
		}
	}
	ok, retry := b.Take(1)
	if ok {
		t.Fatal("empty bucket admitted a take")
	}
	if retry < time.Second {
		t.Fatalf("Retry-After %v below the 1s floor", retry)
	}
	// Frozen clock: no refill, decision is deterministic.
	if ok, _ := b.Take(1); ok {
		t.Fatal("bucket refilled without the clock advancing")
	}
	clk.Advance(time.Second) // +2 tokens
	if ok, _ := b.Take(2); !ok {
		t.Fatal("bucket did not refill after 1s at 2/s")
	}
	if ok, _ := b.Take(1); ok {
		t.Fatal("bucket over-refilled")
	}
	if b.Denied() != 3 {
		t.Fatalf("Denied = %d, want 3", b.Denied())
	}
}

func TestTokenBucketOversizedDemandClampsToBurst(t *testing.T) {
	clk, now := manual()
	b := NewTokenBucket(1, 5, now)
	if ok, _ := b.Take(100); !ok {
		t.Fatal("oversized take on a full bucket must clamp to burst and pass")
	}
	if ok, _ := b.Take(1); ok {
		t.Fatal("bucket should be empty after an oversized take")
	}
	clk.Advance(5 * time.Second)
	if ok, _ := b.Take(100); !ok {
		t.Fatal("oversized take after full refill must pass")
	}
}

func TestTokenBucketDisabled(t *testing.T) {
	_, now := manual()
	b := NewTokenBucket(0, 0, now)
	for i := 0; i < 1000; i++ {
		if ok, _ := b.Take(1000); !ok {
			t.Fatal("disabled bucket must always admit")
		}
	}
}

func TestBreakerLifecycle(t *testing.T) {
	clk, now := manual()
	b := NewBreaker(BreakerConfig{TripAfter: 3, Cooldown: 10 * time.Second, ProbeSuccesses: 2}, now)

	if d, _ := b.Allow(); d != Admit {
		t.Fatal("closed breaker must admit")
	}
	b.Failure()
	b.Failure()
	b.Success() // success resets the consecutive run
	b.Failure()
	b.Failure()
	if b.State() != Closed {
		t.Fatal("2 consecutive failures after a reset must not trip TripAfter=3")
	}
	b.Failure()
	if b.State() != Open {
		t.Fatal("3 consecutive failures must trip")
	}
	if b.Trips() != 1 {
		t.Fatalf("trips = %d, want 1", b.Trips())
	}
	d, retry := b.Allow()
	if d != Reject {
		t.Fatal("open breaker must reject")
	}
	if retry < 9*time.Second || retry > 10*time.Second {
		t.Fatalf("Retry-After %v, want ~cooldown", retry)
	}

	// Frozen clock: stays open forever.
	if d, _ := b.Allow(); d != Reject {
		t.Fatal("breaker half-opened without the clock advancing")
	}
	clk.Advance(10 * time.Second)
	if b.State() != HalfOpen {
		t.Fatal("cooldown elapsed, breaker must be half-open")
	}
	d, _ = b.Allow()
	if d != Probe {
		t.Fatalf("first half-open admission = %v, want Probe", d)
	}
	if d, _ := b.Allow(); d != Reject {
		t.Fatal("second admission during an in-flight probe must reject")
	}
	if healed := b.Success(); healed {
		t.Fatal("healed after 1 of 2 required probe successes")
	}
	d, _ = b.Allow()
	if d != Probe {
		t.Fatalf("second probe admission = %v, want Probe", d)
	}
	if healed := b.Success(); !healed {
		t.Fatal("2nd probe success must heal")
	}
	if b.State() != Closed || b.Heals() != 1 {
		t.Fatalf("state %v heals %d, want closed/1", b.State(), b.Heals())
	}
}

func TestBreakerProbeFailureReopens(t *testing.T) {
	clk, now := manual()
	b := NewBreaker(BreakerConfig{TripAfter: 1, Cooldown: 5 * time.Second}, now)
	b.Failure()
	clk.Advance(5 * time.Second)
	if d, _ := b.Allow(); d != Probe {
		t.Fatal("want a probe after cooldown")
	}
	b.Failure()
	if b.State() != Open {
		t.Fatal("failed probe must reopen the breaker")
	}
	if b.Trips() != 2 {
		t.Fatalf("trips = %d, want 2", b.Trips())
	}
	// The fresh cooldown starts at the reopen, not the original trip.
	clk.Advance(4 * time.Second)
	if d, _ := b.Allow(); d != Reject {
		t.Fatal("reopened breaker must wait out a full fresh cooldown")
	}
	clk.Advance(time.Second)
	if d, _ := b.Allow(); d != Probe {
		t.Fatal("fresh cooldown elapsed, want a probe")
	}
}

func TestBreakerDisabled(t *testing.T) {
	_, now := manual()
	b := NewBreaker(BreakerConfig{}, now)
	for i := 0; i < 100; i++ {
		b.Failure()
	}
	if d, _ := b.Allow(); d != Admit {
		t.Fatal("disabled breaker must always admit")
	}
	if b.Quarantined() {
		t.Fatal("disabled breaker can never quarantine")
	}
}

func TestGuardSetLimitsAndSnapshot(t *testing.T) {
	clk, now := manual()
	g := New(Config{
		Limits:  Limits{IngestQPS: 1, IngestBurst: 1, PointsPerSec: 10, PointBurst: 10},
		Breaker: BreakerConfig{TripAfter: 2, Cooldown: time.Second},
		Now:     now,
	})
	if ok, _ := g.AllowRequest(); !ok {
		t.Fatal("first request must pass")
	}
	if ok, retry := g.AllowRequest(); ok || retry < time.Second {
		t.Fatalf("second request must shed with Retry-After >= 1s, got ok=%v retry=%v", ok, retry)
	}
	if ok, _ := g.AllowPoints(10); !ok {
		t.Fatal("points within burst must pass")
	}
	if ok, _ := g.AllowPoints(1); ok {
		t.Fatal("point budget exhausted, must shed")
	}

	g.SetLimits(Limits{IngestQPS: 100, PointsPerSec: 1000})
	if ok, _ := g.AllowRequest(); !ok {
		t.Fatal("raised limit must admit immediately (bucket restarts full)")
	}
	st := g.Snapshot()
	if st.RateLimitedRequests != 1 || st.RateLimitedPoints != 1 {
		t.Fatalf("denied counters = %d/%d, want 1/1", st.RateLimitedRequests, st.RateLimitedPoints)
	}
	if st.BreakerState != "closed" || !st.BreakerEnabled {
		t.Fatalf("breaker snapshot %+v", st)
	}

	g.Breaker().Failure()
	g.Breaker().Failure()
	st = g.Snapshot()
	if st.BreakerState != "open" || st.Trips != 1 {
		t.Fatalf("after trip: %+v", st)
	}
	if st.CooldownRemaining != time.Second {
		t.Fatalf("cooldown remaining %v, want 1s on a frozen clock", st.CooldownRemaining)
	}
	clk.Advance(time.Second)
	if got := g.Snapshot().BreakerState; got != "half-open" {
		t.Fatalf("state %q after cooldown, want half-open", got)
	}
}

func TestGuardZeroConfigIsNeutral(t *testing.T) {
	g := New(Config{})
	for i := 0; i < 100; i++ {
		if ok, _ := g.AllowRequest(); !ok {
			t.Fatal("zero-config guard must admit every request")
		}
		if ok, _ := g.AllowPoints(1 << 20); !ok {
			t.Fatal("zero-config guard must admit every point batch")
		}
	}
	if g.Breaker().Enabled() {
		t.Fatal("zero-config breaker must be disabled")
	}
	if g.Watchdog() != 0 {
		t.Fatal("zero-config watchdog must be off")
	}
}
