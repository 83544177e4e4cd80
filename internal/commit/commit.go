// Package commit is the durable commit protocol both ingest engines
// run: the session behind /v1/trajectories (§II-C) and the online
// stream clusterer (§III-C). An Envelope wraps one owner's in-memory
// commit with the ingest fault draws, panic containment, the WAL
// append, the checkpoint cadence and the circuit breaker, and it
// recovers the owner from its newest checkpoint and the log after it
// (DESIGN.md §12.4).
//
// The owner keeps its state, its clustering and its checkpoint format.
// Each commit hands the envelope an undo, an apply and a publish; Open
// takes the owner's encode, restore and replay.
package commit

import (
	"context"
	"errors"
	"fmt"
	"runtime/debug"

	"repro/internal/fault"
	"repro/internal/guard"
	"repro/internal/obs"
	"repro/internal/persist"
	"repro/internal/traj"
)

// Envelope is one owner's commit path. It is not safe for concurrent
// use: the owner serializes Commit, Reload, Close and Abort. Durable
// and PersistStats may be called at any time.
type Envelope struct {
	name      string
	guard     *guard.Guard
	fault     *fault.Injector
	errClosed error

	// Set by Open; store is nil for an in-memory owner.
	store         *persist.Store
	errNotDurable error
	encode        func() []byte
	restore       func(payload []byte) error
	replay        func(batch traj.Dataset) error
	heal          func()

	seq      uint64 // batches committed: the next WAL record's sequence number
	lastCkpt uint64 // batches the newest checkpoint covers
	closed   bool
}

// New returns the envelope of an in-memory owner named name: g's
// breaker gates each commit and g counts its contained panics, inj
// draws the ingest faults, and a commit after Close or Abort fails
// with errClosed.
func New(name string, g *guard.Guard, inj *fault.Injector, errClosed error) *Envelope {
	return &Envelope{name: name, guard: g, fault: inj, errClosed: errClosed}
}

// Open makes the envelope durable in opts.Dir and recovers the owner:
// restore loads the newest checkpoint's payload into the empty owner,
// and replay applies each logged batch after it. From then on encode
// renders each checkpoint, heal (nil for none) runs when the breaker
// closes after a quarantine, and a failed WAL append is wrapped in
// errNotDurable (nil: returned as is). opts.Obs defaults to reg and
// opts.Fault to the envelope's injector. A failed recovery closes the
// store again.
func (e *Envelope) Open(opts persist.Options, reg *obs.Registry, errNotDurable error,
	encode func() []byte, restore func(payload []byte) error, replay func(batch traj.Dataset) error, heal func()) error {
	if opts.Obs == nil {
		opts.Obs = reg
	}
	if opts.Fault == nil {
		opts.Fault = e.fault
	}
	store, err := persist.Open(opts)
	if err != nil {
		return fmt.Errorf("open persistence: %w", err)
	}
	e.store, e.errNotDurable, e.encode, e.restore, e.replay, e.heal = store, errNotDurable, encode, restore, replay, heal
	if err := e.recover(store.Checkpoint); err != nil {
		store.Close()
		return fmt.Errorf("recover: %w", err)
	}
	return nil
}

// Reload rebuilds the owner, which has reset its state, from the
// newest checkpoint on disk and the log after it: the payload Open
// held is superseded by the first checkpoint written since. On failure
// the envelope's counters are left as they were.
func (e *Envelope) Reload() error {
	seq, lastCkpt := e.seq, e.lastCkpt
	err := e.recover(e.store.ReloadCheckpoint)
	if err != nil {
		e.seq, e.lastCkpt = seq, lastCkpt
	}
	return err
}

// recover restores the owner from ckpt's payload, when there is one,
// and replays the log after it. Replay runs outside Commit: it draws
// no fault, reports nothing to the breaker, appends nothing and writes
// no checkpoint.
func (e *Envelope) recover(ckpt func() (uint64, []byte, bool)) error {
	e.seq, e.lastCkpt = 0, 0
	if seq, payload, ok := ckpt(); ok {
		if err := e.restore(payload); err != nil {
			return fmt.Errorf("checkpoint seq %d: %w", seq, err)
		}
		e.seq, e.lastCkpt = seq, seq
	}
	return e.store.Replay(e.seq, func(seq uint64, batch traj.Dataset) error {
		if seq != e.seq {
			return fmt.Errorf("wal gap: expected batch %d, log has %d", e.seq, seq)
		}
		if err := e.contain(func() error { return e.replay(batch) }); err != nil {
			return fmt.Errorf("replay batch %d: %w", seq, err)
		}
		e.seq++
		return nil
	})
}

// Commit runs one live commit, in this order: the closed check, the
// breaker gate, the ingest fault draws, apply, the WAL append of the
// batch apply returns, publish, and every CheckpointEvery batches a
// best-effort checkpoint. undo must put the owner back as it was at
// the call; it runs when anything before the append completes fails
// or panics. A panic after the append keeps the batch, since the log
// holds it. A panic surfaces as a *guard.PanicError. Injected faults,
// contained panics, guard.ErrStuck and failed appends count toward the
// breaker's trip; any other outcome is a success, and the success that
// closes the breaker runs heal.
func (e *Envelope) Commit(ctx context.Context, undo func(), apply func(context.Context) (traj.Dataset, error), publish func()) error {
	if e.closed {
		return e.errClosed
	}
	br := e.guard.Breaker()
	if d, retry := br.Allow(); d == guard.Reject {
		return &guard.QuarantinedError{Session: e.name, RetryAfter: retry}
	}
	notDurable := false
	err := e.contain(func() error {
		kept := false
		defer func() {
			if !kept {
				undo()
			}
		}()
		e.fault.Sleep(fault.Ingest)
		if err := e.fault.Inject(fault.Ingest); err != nil {
			return err
		}
		if e.fault.Hit(fault.IngestPanic) {
			panic(fmt.Sprintf("fault: injected %s", fault.IngestPanic))
		}
		batch, err := apply(ctx)
		if err != nil {
			return err
		}
		if e.store != nil {
			if err := e.store.AppendBatch(e.seq, batch); err != nil {
				notDurable = true
				if e.errNotDurable != nil {
					err = fmt.Errorf("%w: %v", e.errNotDurable, err)
				}
				return err
			}
		}
		kept = true
		e.seq++
		publish()
		if e.store != nil {
			if every := e.store.CheckpointEvery(); every > 0 && e.seq-e.lastCkpt >= uint64(every) {
				// Best-effort: a failed checkpoint only delays compaction;
				// PersistStats().LastCheckpointError reports it.
				_ = e.checkpoint()
			}
		}
		return nil
	})
	var pe *guard.PanicError
	if notDurable || fault.IsInjected(err) || errors.As(err, &pe) || errors.Is(err, guard.ErrStuck) {
		br.Failure()
	} else if br.Success() && e.heal != nil {
		e.heal()
	}
	return err
}

// contain runs fn, turning a panic into a *guard.PanicError.
func (e *Envelope) contain(fn func() error) (err error) {
	defer func() {
		if r := recover(); r != nil {
			e.guard.NotePanic()
			err = &guard.PanicError{Value: r, Stack: debug.Stack()}
		}
	}()
	return fn()
}

func (e *Envelope) checkpoint() error {
	if err := e.store.WriteCheckpoint(e.seq, e.encode()); err != nil {
		return err
	}
	e.lastCkpt = e.seq
	return nil
}

// Close fails every later commit with errClosed. A durable envelope
// first writes a final checkpoint when the newest one is behind, then
// flushes and closes the log. Idempotent.
func (e *Envelope) Close() error {
	if e.closed {
		return nil
	}
	e.closed = true
	if e.store == nil {
		return nil
	}
	var err error
	if e.seq > e.lastCkpt {
		err = e.checkpoint()
	}
	if cerr := e.store.Close(); err == nil {
		err = cerr
	}
	return err
}

// Abort closes without a final checkpoint or a flush: the in-process
// kill -9 of the crash tests.
func (e *Envelope) Abort() {
	e.closed = true
	if e.store != nil {
		e.store.Abort()
	}
}

// Durable reports whether Open gave the envelope a store.
func (e *Envelope) Durable() bool { return e.store != nil }

// PersistStats snapshots the store's counters; the zero Stats for an
// in-memory owner.
func (e *Envelope) PersistStats() persist.Stats {
	if e.store == nil {
		return persist.Stats{}
	}
	return e.store.Stats()
}
