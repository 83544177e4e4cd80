package commit

import (
	"context"
	"encoding/binary"
	"errors"
	"os"
	"testing"
	"time"

	"repro/internal/fault"
	"repro/internal/guard"
	"repro/internal/persist"
	"repro/internal/traj"
)

var (
	errClosed     = errors.New("counter closed")
	errNotDurable = errors.New("counter not durable")
)

// counter is the fake owner: its whole state is how many trajectories
// it holds, published as pub. panicApply makes the next apply panic
// after it has changed the state; panicEncode makes encode panic.
type counter struct {
	env         *Envelope
	n, pub      int
	panicApply  bool
	panicEncode bool
}

func (c *counter) encode() []byte {
	if c.panicEncode {
		panic("encode")
	}
	return binary.AppendUvarint(nil, uint64(c.n))
}

func (c *counter) restore(payload []byte) error {
	v, k := binary.Uvarint(payload)
	if k != len(payload) {
		return errors.New("bad counter payload")
	}
	c.n, c.pub = int(v), int(v)
	return nil
}

func (c *counter) replay(batch traj.Dataset) error {
	c.n += len(batch.Trajectories)
	c.pub = c.n
	return nil
}

// ingest commits a batch of size trajectories.
func (c *counter) ingest(size int) error {
	n := c.n
	return c.env.Commit(context.Background(), func() { c.n = n }, func(context.Context) (traj.Dataset, error) {
		c.n += size
		if c.panicApply {
			panic("apply")
		}
		return traj.Dataset{Trajectories: make([]traj.Trajectory, size)}, nil
	}, func() { c.pub = c.n })
}

// open builds a counter over a store in dir with opts.
func open(t *testing.T, dir string, opts persist.Options, g *guard.Guard, inj *fault.Injector) *counter {
	t.Helper()
	c := &counter{env: New("counter", g, inj, errClosed)}
	opts.Dir = dir
	if err := c.env.Open(opts, nil, errNotDurable, c.encode, c.restore, c.replay, nil); err != nil {
		t.Fatal(err)
	}
	return c
}

func mustIngest(t *testing.T, c *counter, sizes ...int) {
	t.Helper()
	for _, size := range sizes {
		if err := c.ingest(size); err != nil {
			t.Fatalf("ingest %d: %v", size, err)
		}
	}
}

func breakerGuard(tripAfter int) *guard.Guard {
	return guard.New(guard.Config{Breaker: guard.BreakerConfig{TripAfter: tripAfter, Cooldown: time.Hour}})
}

// TestLiveCommitsDrawFaultsReplayDoesNot: every live commit draws
// fault.Ingest and fault.IngestPanic, while recovery under an armed
// injector and a one-failure breaker draws neither and reports nothing.
func TestLiveCommitsDrawFaultsReplayDoesNot(t *testing.T) {
	dir := t.TempDir()
	inj := fault.New(fault.Config{Seed: 1, Points: map[fault.Point]fault.Spec{
		fault.Ingest:      {LatencyProb: 1, Latency: time.Microsecond},
		fault.IngestPanic: {ErrProb: 1, MaxErrs: 1},
	}})
	g := breakerGuard(2)
	c := open(t, dir, persist.Options{Fsync: persist.FsyncOff}, g, inj)
	var pe *guard.PanicError
	if err := c.ingest(5); !errors.As(err, &pe) {
		t.Fatalf("first commit under an injected panic: %v, want *guard.PanicError", err)
	}
	mustIngest(t, c, 2, 3)
	if got := inj.Slept(fault.Ingest); got != 3 {
		t.Fatalf("%d ingest sleeps, want one per live commit (3)", got)
	}
	if got := inj.Injected(fault.IngestPanic); got != 1 {
		t.Fatalf("%d injected panics, want 1", got)
	}
	if c.n != 5 || c.pub != 5 || g.Snapshot().Panics != 1 {
		t.Fatalf("n=%d pub=%d panics=%d, want 5, 5, 1", c.n, c.pub, g.Snapshot().Panics)
	}
	c.env.Abort()

	armed := fault.New(fault.Config{Seed: 2, Points: map[fault.Point]fault.Spec{
		fault.Ingest:      {ErrProb: 1, LatencyProb: 1, Latency: time.Microsecond},
		fault.IngestPanic: {ErrProb: 1},
	}})
	g2 := breakerGuard(1)
	r := open(t, dir, persist.Options{Fsync: persist.FsyncOff}, g2, armed)
	defer r.env.Close()
	if r.n != 5 || r.pub != 5 {
		t.Fatalf("recovered n=%d pub=%d, want 5", r.n, r.pub)
	}
	if armed.TotalInjected() != 0 || armed.Slept(fault.Ingest) != 0 {
		t.Fatal("replay drew from the fault stream")
	}
	if br := g2.Breaker(); br.Quarantined() || br.ConsecutiveFails() != 0 {
		t.Fatal("replay reported to the breaker")
	}
}

// TestFailedAppendUndoesAndCountsTowardTrip: an injected wal_append
// failure and a real one both undo the apply, return an error wrapping
// errNotDurable, and count toward the breaker's trip.
func TestFailedAppendUndoesAndCountsTowardTrip(t *testing.T) {
	inj := fault.New(fault.Config{Seed: 3, Points: map[fault.Point]fault.Spec{
		fault.WALAppend: {ErrProb: 1, MaxErrs: 1},
	}})
	g := breakerGuard(2)
	dir := t.TempDir()
	c := open(t, dir, persist.Options{SegmentBytes: 1}, g, inj)
	if err := c.ingest(4); !errors.Is(err, errNotDurable) {
		t.Fatalf("injected append failure: %v, want errNotDurable", err)
	}
	if c.n != 0 || c.pub != 0 {
		t.Fatalf("failed append left n=%d pub=%d", c.n, c.pub)
	}
	if g.Breaker().ConsecutiveFails() != 1 {
		t.Fatal("injected append failure did not count toward the trip")
	}
	mustIngest(t, c, 4) // creates the first segment and clears the run
	// A real failure: SegmentBytes 1 rotates before every append, and
	// the next segment cannot be created in a removed directory.
	if err := os.RemoveAll(dir); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		err := c.ingest(1)
		if !errors.Is(err, errNotDurable) || fault.IsInjected(err) {
			t.Fatalf("real append failure %d: %v, want a non-injected errNotDurable", i, err)
		}
	}
	if c.n != 4 || c.pub != 4 {
		t.Fatalf("failed appends left n=%d pub=%d, want 4", c.n, c.pub)
	}
	if !g.Breaker().Quarantined() {
		t.Fatal("two real append failures did not trip TripAfter=2")
	}
	var qe *guard.QuarantinedError
	if err := c.ingest(1); !errors.As(err, &qe) || qe.Session != "counter" {
		t.Fatalf("commit while quarantined: %v", err)
	}
	c.env.Abort()
}

// TestPanicBeforeAppendUndoes: a panic inside apply runs the undo,
// appends nothing and counts toward the trip.
func TestPanicBeforeAppendUndoes(t *testing.T) {
	g := breakerGuard(1)
	c := open(t, t.TempDir(), persist.Options{}, g, nil)
	defer c.env.Close()
	mustIngest(t, c, 2)
	c.panicApply = true
	var pe *guard.PanicError
	if err := c.ingest(3); !errors.As(err, &pe) || len(pe.Stack) == 0 {
		t.Fatalf("panicking apply: %v, want *guard.PanicError with a stack", err)
	}
	if c.n != 2 || c.pub != 2 {
		t.Fatalf("panic left n=%d pub=%d, want 2", c.n, c.pub)
	}
	if got := c.env.PersistStats().Appends; got != 1 {
		t.Fatalf("%d appends, want 1", got)
	}
	if !g.Breaker().Quarantined() {
		t.Fatal("contained panic did not count toward the trip")
	}
}

// TestPanicAfterAppendKeepsBatch: a panic after the append (an encode
// that panics at the checkpoint) keeps the batch, the next commit takes
// the next sequence number, and a reopen replays the log cleanly.
func TestPanicAfterAppendKeepsBatch(t *testing.T) {
	dir := t.TempDir()
	// Every checkpoint write fails, so the reopen replays the whole log.
	inj := fault.New(fault.Config{Seed: 4, Points: map[fault.Point]fault.Spec{
		fault.CheckpointWrite: {ErrProb: 1},
	}})
	c := open(t, dir, persist.Options{CheckpointEvery: 1}, breakerGuard(0), inj)
	c.panicEncode = true
	var pe *guard.PanicError
	if err := c.ingest(3); !errors.As(err, &pe) {
		t.Fatalf("panicking encode: %v, want *guard.PanicError", err)
	}
	if c.n != 3 || c.pub != 3 {
		t.Fatalf("panic after the append dropped the batch: n=%d pub=%d", c.n, c.pub)
	}
	c.panicEncode = false
	mustIngest(t, c, 4)
	if st := c.env.PersistStats(); st.Appends != 2 || st.Checkpoints != 0 {
		t.Fatalf("appends=%d checkpoints=%d, want 2 and 0", st.Appends, st.Checkpoints)
	}
	c.env.Abort()

	r := open(t, dir, persist.Options{}, breakerGuard(0), nil)
	defer r.env.Close()
	if rec := r.env.PersistStats().Recovery; rec.Replayed != 2 || r.n != 7 || r.pub != 7 {
		t.Fatalf("reopen replayed %d records into n=%d pub=%d, want 2 and 7", rec.Replayed, r.n, r.pub)
	}
}

// TestCheckpointCadenceCloseAndAbort: checkpoints fire every
// CheckpointEvery commits; Close writes a final one only when behind,
// is idempotent, and closes before the breaker is asked; Abort writes
// none.
func TestCheckpointCadenceCloseAndAbort(t *testing.T) {
	opts := persist.Options{CheckpointEvery: 3, Fsync: persist.FsyncOff}

	dir := t.TempDir()
	c := open(t, dir, opts, breakerGuard(0), nil)
	mustIngest(t, c, 1, 1, 1, 1, 1, 1, 1)
	if st := c.env.PersistStats(); st.Checkpoints != 2 || st.CheckpointSeq != 6 {
		t.Fatalf("after 7 commits: %d checkpoints at seq %d, want 2 at 6", st.Checkpoints, st.CheckpointSeq)
	}
	for i := 0; i < 2; i++ {
		if err := c.env.Close(); err != nil {
			t.Fatalf("Close #%d: %v", i+1, err)
		}
	}
	if st := c.env.PersistStats(); st.Checkpoints != 3 || st.CheckpointSeq != 7 {
		t.Fatalf("after Close: %d checkpoints at seq %d, want 3 at 7", st.Checkpoints, st.CheckpointSeq)
	}
	if err := c.ingest(1); !errors.Is(err, errClosed) {
		t.Fatalf("commit after Close: %v, want errClosed", err)
	}

	// Not behind: the cadence already covered every commit.
	g := breakerGuard(1)
	c = open(t, t.TempDir(), opts, g, nil)
	mustIngest(t, c, 1, 1, 1)
	c.panicApply = true
	_ = c.ingest(1) // trips the breaker
	if err := c.env.Close(); err != nil {
		t.Fatal(err)
	}
	if st := c.env.PersistStats(); st.Checkpoints != 1 {
		t.Fatalf("Close when not behind: %d checkpoints, want 1", st.Checkpoints)
	}
	if err := c.ingest(1); !errors.Is(err, errClosed) {
		t.Fatalf("commit to a closed, quarantined envelope: %v, want errClosed", err)
	}

	dir = t.TempDir()
	c = open(t, dir, opts, breakerGuard(0), nil)
	mustIngest(t, c, 1, 1)
	c.env.Abort()
	if st := c.env.PersistStats(); st.Checkpoints != 0 {
		t.Fatalf("Abort wrote %d checkpoints", st.Checkpoints)
	}
	r := open(t, dir, opts, breakerGuard(0), nil)
	defer r.env.Close()
	if rec := r.env.PersistStats().Recovery; rec.Replayed != 2 || r.n != 2 {
		t.Fatalf("reopen after Abort replayed %d records into n=%d, want 2", rec.Replayed, r.n)
	}
}
