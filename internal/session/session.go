// Package session implements the multi-tenant core of the NEAT
// service: a registry of isolated clustering sessions, each owning its
// own road network, preprocessing pool, clustering pipeline, distance
// cache, durability namespace, and robustness state. Ingest is
// serialized per session and fully concurrent across sessions; reads
// never touch the ingest lock at all — every committed ingest
// publishes an immutable Snapshot through an atomic pointer, so query
// handlers stay wait-free even while another session replays its WAL
// or rides out a fault storm.
package session

import (
	"context"
	"errors"
	"fmt"
	"runtime/debug"
	"sync"
	"sync/atomic"

	"repro/internal/commit"
	"repro/internal/distcache"
	"repro/internal/fault"
	"repro/internal/guard"
	"repro/internal/neat"
	"repro/internal/obs"
	"repro/internal/persist"
	"repro/internal/roadnet"
	"repro/internal/shortest"
	"repro/internal/traj"
)

// ErrClosed is returned by Ingest after Close; test with errors.Is.
var ErrClosed = errors.New("session closed")

// ErrNotDurable wraps a WAL append failure: the batch was rolled back
// in memory and can be retried; the session never acknowledges a batch
// the log does not hold. Test with errors.Is.
var ErrNotDurable = errors.New("ingest not durable")

// DuplicateError reports a trajectory id the session already holds, or
// one repeated within the same batch. Its Error text is the API error
// body the server has always used for duplicate rejections.
type DuplicateError struct {
	ID      traj.ID
	InBatch bool
}

func (e *DuplicateError) Error() string {
	if e.InBatch {
		return fmt.Sprintf("trajectory %d repeated in batch", e.ID)
	}
	return fmt.Sprintf("trajectory %d already ingested", e.ID)
}

// Config parameterizes one Session. The zero value is usable; see the
// field docs for defaults.
type Config struct {
	// DataNodes is the number of preprocessing workers ingest shards
	// trajectories across (the paper's data nodes). Zero selects 4.
	DataNodes int
	// MaxBatch caps trajectories per ingest batch (enforced by the
	// server's handler; exposed through MaxBatch). Zero selects 10000.
	MaxBatch int
	// MaxInflight is the number of Acquire slots: a static bound on
	// concurrently served requests for this session. 0 or negative
	// disables it. The server passes its global cap here and takes a
	// global slot before each session slot, so a request through the
	// server never waits on this bound.
	MaxInflight int
	// Guard configures the session's isolation layer: token-bucket
	// rate limits, circuit breaker, watchdog. The zero value admits
	// everything (no breaker, no limits), which is the exact pre-guard
	// behavior.
	Guard guard.Config
	// CacheEntries sizes the session's junction-pair distance cache: 0
	// selects the default budget, negative disables the cache.
	CacheEntries int
	// Budget, when non-nil, makes the distance cache draw on an entry
	// budget shared across sessions (see distcache.Budget), so N
	// tenants never hold more than one budget of entries in total.
	Budget *distcache.Budget
	// Obs is the metrics registry; nil disables instrumentation.
	Obs *obs.Registry
	// Label is the bounded-cardinality session label the session's
	// series carry (see obs.LabelCap). The zero Label defaults to
	// {session=<name>} — callers building sessions through a Registry
	// get the capped label instead.
	Label obs.Label
	// Fault is an optional per-session fault injector threaded into
	// ingest, the clustering pipeline, and the distance cache.
	Fault *fault.Injector
	// Persist makes the session durable through its commit envelope
	// (DESIGN.md §12.4): each acknowledged batch is in the WAL before it
	// is published, the dataset is checkpointed every CheckpointEvery
	// batches and on Close, and New recovers from the newest checkpoint
	// and the log after it. Dir must already be the session's own
	// namespace (the Registry resolves it); Obs and Fault default to the
	// session's. Nil keeps the session in-memory.
	Persist *persist.Options
}

func (c Config) withDefaults(name string) Config {
	if c.DataNodes <= 0 {
		c.DataNodes = 4
	}
	if c.MaxBatch <= 0 {
		c.MaxBatch = 10000
	}
	if c.Label == (obs.Label{}) {
		c.Label = obs.L("session", name)
	}
	return c
}

// Metrics are the session's pre-resolved per-tenant series handles;
// every field is nil without a registry, making recording a no-op.
// The server records its own pre-session rejections (decode errors,
// oversized batches) through the resolved session's handles too.
type Metrics struct {
	CacheHits      *obs.Counter
	CacheMisses    *obs.Counter
	IngestTrajs    *obs.Counter
	IngestFrags    *obs.Counter
	IngestRejected *obs.Counter
	StaleServed    *obs.Counter

	// Per-tenant shed series: neat_shed_requests_total with a reason
	// and the session's capped label, so /metrics distinguishes which
	// tenant was shed and why (the server's global queue_full/timeout
	// series carry no session label and are unchanged).
	ShedSessionSlot *obs.Counter
	ShedRateLimit   *obs.Counter
	ShedPointBudget *obs.Counter
	ShedQuarantined *obs.Counter
}

// IngestStats reports what one committed ingest produced.
type IngestStats struct {
	Accepted       int
	Fragments      int
	TotalFragments int
}

// Session is one isolated clustering tenant: a road network, the
// ingested dataset, a single-flight clustering pipeline, a distance
// cache, a durability namespace, and degraded-mode state. All methods
// are safe for concurrent use; ingest is serialized internally.
type Session struct {
	name string
	g    *roadnet.Graph
	cfg  Config

	// snap is the published read state. Readers Load it and never
	// block; ingest builds the successor under ingestMu and Stores it
	// after the commit (including the WAL append) succeeded.
	snap atomic.Pointer[Snapshot]

	// recovered is what RecoveredBatches reports; a heal rewrites it
	// while stats readers load it.
	recovered atomic.Uint64

	// ingestMu serializes ingest, heal, and Close. It guards every
	// field below it. Readers never take it.
	ingestMu  sync.Mutex
	env       *commit.Envelope
	seenIDs   map[traj.ID]struct{}
	fragments []traj.TFragment // live backing array; published views are prefixes
	trajs     []traj.Trajectory
	version   uint64
	epoch     uint64 // bumped whenever fragments is rebuilt (heal)

	// One partitioner per data node; a channel semaphore since
	// partitioners are not concurrency-safe.
	nodes chan *traj.Partitioner

	// The session's single-flight clustering pipeline (a Pipeline is
	// not safe for concurrent use; the chan lets a waiter abandon the
	// wait on context expiry).
	pipeSem  chan struct{}
	pipeline *neat.Pipeline
	// kept is the base-cluster set the pipeline built last, from the
	// first keptFrags fragments of a snapshot of epoch keptEpoch (see
	// Flows). Only the holder of pipeSem reads or replaces it.
	kept      *neat.ClusterSet
	keptEpoch uint64
	keptFrags int

	// slots is the Acquire semaphore, MaxInflight deep; nil when
	// MaxInflight <= 0.
	slots chan struct{}

	// guard is the session's isolation layer: rate limits, circuit
	// breaker, and watchdog. Never nil.
	guard *guard.Guard

	// distCache memoizes junction-pair network distances across this
	// session's clustering requests; nil when CacheEntries < 0.
	distCache *distcache.Cache

	// lastGood holds, per parameter combination, the most recent
	// successfully computed clustering response regardless of version —
	// the degraded-mode state served (flagged stale) when a fresh
	// clustering cannot be computed in time.
	lastGoodMu sync.Mutex
	lastGood   map[string]any

	// Degraded-mode bookkeeping surfaced in /v1/stats.
	degMu         sync.Mutex
	lastIngestErr string
	staleServed   atomic.Int64

	m Metrics
}

// New creates a Session named name over g, recovering its dataset from
// cfg.Persist's directory when set.
func New(name string, g *roadnet.Graph, cfg Config) (*Session, error) {
	cfg = cfg.withDefaults(name)
	s := &Session{
		name:     name,
		g:        g,
		cfg:      cfg,
		seenIDs:  make(map[traj.ID]struct{}),
		lastGood: make(map[string]any),
		nodes:    make(chan *traj.Partitioner, cfg.DataNodes),
		pipeSem:  make(chan struct{}, 1),
	}
	s.snap.Store(&Snapshot{})
	if cfg.MaxInflight > 0 {
		s.slots = make(chan struct{}, cfg.MaxInflight)
	}
	s.guard = guard.New(cfg.Guard)
	s.guard.Instrument(cfg.Obs, cfg.Label)
	for i := 0; i < cfg.DataNodes; i++ {
		s.nodes <- traj.NewPartitioner(g, shortest.New(g, nil))
	}
	s.pipeline = neat.NewPipeline(g)
	s.pipeline.Instrument(cfg.Obs)
	if cfg.CacheEntries >= 0 {
		s.distCache = distcache.NewShared(cfg.CacheEntries, cfg.Budget)
		s.distCache.Instrument(cfg.Obs, cfg.Label)
		s.distCache.InjectFaults(cfg.Fault)
	}
	cfg.Fault.Instrument(cfg.Obs)
	s.m = Metrics{
		CacheHits:      cfg.Obs.Counter("server_cache_hits_total", cfg.Label),
		CacheMisses:    cfg.Obs.Counter("server_cache_misses_total", cfg.Label),
		IngestTrajs:    cfg.Obs.Counter("server_ingest_trajectories_total", cfg.Label),
		IngestFrags:    cfg.Obs.Counter("server_ingest_fragments_total", cfg.Label),
		IngestRejected: cfg.Obs.Counter("server_ingest_rejected_total", cfg.Label),
		StaleServed:    cfg.Obs.Counter("server_stale_served_total", cfg.Label),

		ShedSessionSlot: cfg.Obs.Counter("neat_shed_requests_total", cfg.Label, obs.L("reason", "session_slot")),
		ShedRateLimit:   cfg.Obs.Counter("neat_shed_requests_total", cfg.Label, obs.L("reason", "rate_limit")),
		ShedPointBudget: cfg.Obs.Counter("neat_shed_requests_total", cfg.Label, obs.L("reason", "point_budget")),
		ShedQuarantined: cfg.Obs.Counter("neat_shed_requests_total", cfg.Label, obs.L("reason", "quarantined")),
	}
	s.env = commit.New(name, s.guard, cfg.Fault, ErrClosed)
	if cfg.Persist != nil {
		// The recovery replays through the normal preprocessing path
		// (sharded t-fragment extraction, which is deterministic), so
		// the recovered fragments are byte-identical to the ones the
		// session held when each batch was first acknowledged. Nothing
		// else holds the session yet, so ingestMu is not taken.
		if err := s.env.Open(*cfg.Persist, cfg.Obs, ErrNotDurable, s.encode, s.restore, s.replay, s.heal); err != nil {
			return nil, fmt.Errorf("session %q: %w", name, err)
		}
		s.recovered.Store(s.version)
		s.publishLocked()
	}
	return s, nil
}

// Name returns the session's registry name.
func (s *Session) Name() string { return s.name }

// Graph returns the session's road network.
func (s *Session) Graph() *roadnet.Graph { return s.g }

// Cache returns the session's distance cache (nil when disabled).
func (s *Session) Cache() *distcache.Cache { return s.distCache }

// Injector returns the session's fault injector (possibly nil; the
// fault package is nil-safe throughout).
func (s *Session) Injector() *fault.Injector { return s.cfg.Fault }

// Metrics returns the session's metric handles.
func (s *Session) Metrics() *Metrics { return &s.m }

// MaxBatch returns the per-ingest trajectory cap.
func (s *Session) MaxBatch() int { return s.cfg.MaxBatch }

// Current returns the published snapshot. It never blocks and never
// observes a partially committed ingest; before the first ingest it is
// the empty snapshot (Version 0).
func (s *Session) Current() *Snapshot { return s.snap.Load() }

// Acquire takes one of the session's MaxInflight admission slots,
// giving up when ctx expires (false = shed this request). Always true
// when MaxInflight <= 0. Pair a true result with Release.
func (s *Session) Acquire(ctx context.Context) bool {
	if s.slots == nil {
		return true
	}
	select {
	case s.slots <- struct{}{}:
		return true
	case <-ctx.Done():
		return false
	}
}

// Release returns the slot taken by a successful Acquire.
func (s *Session) Release() {
	if s.slots != nil {
		<-s.slots
	}
}

// Guard exposes the session's isolation layer (never nil).
func (s *Session) Guard() *guard.Guard { return s.guard }

// Quarantined reports whether the session's breaker currently rejects
// writes (reads are still served, flagged stale).
func (s *Session) Quarantined() bool { return s.guard.Breaker().Quarantined() }

// Flows returns the Phase 1–2 product of snapshot sn under cfg (whose
// minCard is ignored), computing it on the session's single-flight
// pipeline at most once per snapshot (see Snapshot.Flows). Publication
// of a new snapshot is the only invalidation.
//
// The computation folds into the kept base-cluster set only the
// fragments sn added since that set was built, then keeps the result.
// Within an epoch every published snapshot's fragments extend the
// previous one's, so the kept set is folded forward when it was built
// from this epoch and from no more fragments than sn holds; otherwise
// (sn is older than the kept set, or a heal rebuilt the fragments
// since) the fold starts from the empty set.
func (s *Session) Flows(ctx context.Context, sn *Snapshot, cfg neat.Config) (*neat.FlowSet, error) {
	return sn.Flows(ctx, func(ctx context.Context) (*neat.FlowSet, error) {
		var fs *neat.FlowSet
		err := s.withPipeline(ctx, func(p *neat.Pipeline) (err error) {
			base, frags := s.kept, sn.Fragments
			if s.keptEpoch == sn.epoch && s.keptFrags <= len(frags) {
				frags = frags[s.keptFrags:]
			} else {
				base = nil
			}
			var next *neat.ClusterSet
			if fs, next, err = p.BuildFlowSet(ctx, base, frags, cfg); err == nil {
				s.kept, s.keptEpoch, s.keptFrags = next, sn.epoch, len(sn.Fragments)
			}
			return err
		})
		return fs, err
	})
}

// Refine answers one read from a flow set on the session's
// single-flight pipeline: the minCard filter and, at opt level, Phase 3
// (see neat.Pipeline.RunFlowSet).
func (s *Session) Refine(ctx context.Context, fs *neat.FlowSet, cfg neat.Config, level neat.Level) (*neat.Result, error) {
	var res *neat.Result
	err := s.withPipeline(ctx, func(p *neat.Pipeline) (err error) {
		res, err = p.RunFlowSet(ctx, fs, cfg, level)
		return err
	})
	return res, err
}

// withPipeline runs fn holding the session's pipeline. Waiting for it
// observes ctx, so a request whose deadline expires while queued
// degrades instead of blocking.
func (s *Session) withPipeline(ctx context.Context, fn func(*neat.Pipeline) error) error {
	select {
	case s.pipeSem <- struct{}{}:
	case <-ctx.Done():
		return ctx.Err()
	}
	defer func() { <-s.pipeSem }()
	return fn(s.pipeline)
}

// Ingest commits one batch through the session's envelope: ids[i]
// names the trajectory convert(i) yields (the two-step shape lets the
// server convert wire DTOs inside the data-node pool without this
// package knowing about DTOs). The whole batch commits atomically or
// not at all: duplicate ids, a conversion/partition error, context
// expiry, a contained panic, or a WAL append failure leave the session
// exactly as it was and publish nothing. On success the new snapshot
// is visible to readers before Ingest returns. A watchdog deadline,
// when configured, bounds how long preprocessing may stall while the
// client still waits.
func (s *Session) Ingest(ctx context.Context, ids []traj.ID, convert func(int) (traj.Trajectory, error)) (IngestStats, error) {
	s.ingestMu.Lock()
	defer s.ingestMu.Unlock()
	wctx := ctx
	if d := s.guard.Watchdog(); d > 0 {
		var cancel context.CancelFunc
		wctx, cancel = context.WithTimeout(ctx, d)
		defer cancel()
	}
	var st IngestStats
	err := s.env.Commit(wctx, s.undo(ids), func(wctx context.Context) (batch traj.Dataset, err error) {
		batch, st, err = s.apply(wctx, ids, convert)
		if err != nil && wctx.Err() != nil && ctx.Err() == nil {
			// The watchdog expired, not the client: the ingest was stuck.
			s.guard.NoteStuck()
			err = fmt.Errorf("%w: %v", guard.ErrStuck, err)
		}
		return batch, err
	}, func() {
		s.publishLocked()
		s.setIngestHealth(nil)
		s.m.IngestTrajs.Add(int64(st.Accepted))
		s.m.IngestFrags.Add(int64(st.Fragments))
	})
	var qe *guard.QuarantinedError
	switch {
	case err == nil:
		return st, nil
	case errors.As(err, &qe):
		return IngestStats{}, err
	case degrades(err):
		s.setIngestHealth(err)
	}
	s.m.IngestRejected.Inc()
	return IngestStats{}, err
}

// degrades reports whether a failed ingest marks the session degraded:
// every failure the breaker counts, plus a preprocess cut short by the
// client's deadline. Client mistakes and a closed session do not.
func degrades(err error) bool {
	var pe *guard.PanicError
	return fault.IsInjected(err) || errors.As(err, &pe) || errors.Is(err, guard.ErrStuck) ||
		errors.Is(err, ErrNotDurable) || errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// undo returns the function that puts back what a commit of ids can
// change. wasSeen records which ids the session already held: the undo
// also runs for a batch that failed at or before the duplicate check,
// where blind deletion would unregister trajectories earlier batches
// committed.
func (s *Session) undo(ids []traj.ID) func() {
	version, nFrags, nTrajs := s.version, len(s.fragments), len(s.trajs)
	wasSeen := make([]bool, len(ids))
	for i, id := range ids {
		_, wasSeen[i] = s.seenIDs[id]
	}
	return func() {
		for i, id := range ids {
			if !wasSeen[i] {
				delete(s.seenIDs, id)
			}
		}
		s.fragments, s.trajs, s.version = s.fragments[:nFrags], s.trajs[:nTrajs], version
	}
}

// apply is the in-memory commit of one batch: the duplicate check,
// preprocessing, and the appends. It returns the batch the WAL holds.
func (s *Session) apply(ctx context.Context, ids []traj.ID, convert func(int) (traj.Trajectory, error)) (traj.Dataset, IngestStats, error) {
	// Reject duplicate trajectory ids up front: downstream structures
	// (netflow, the spatio-temporal index) key by trid. Ingest is
	// serialized, so this single check is authoritative.
	batch := make(map[traj.ID]struct{}, len(ids))
	for _, id := range ids {
		if _, ok := s.seenIDs[id]; ok {
			return traj.Dataset{}, IngestStats{}, &DuplicateError{ID: id}
		}
		if _, ok := batch[id]; ok {
			return traj.Dataset{}, IngestStats{}, &DuplicateError{ID: id, InBatch: true}
		}
		batch[id] = struct{}{}
	}
	frags, trajs, err := s.preprocess(ctx, len(ids), convert)
	if err != nil {
		return traj.Dataset{}, IngestStats{}, err
	}
	// The appends write only indices at or beyond every published
	// snapshot's view (or a fresh array after reallocation), so readers
	// of prior snapshots are unaffected.
	for id := range batch {
		s.seenIDs[id] = struct{}{}
	}
	s.fragments = append(s.fragments, frags...)
	s.trajs = append(s.trajs, trajs...)
	s.version++
	st := IngestStats{Accepted: len(trajs), Fragments: len(frags), TotalFragments: len(s.fragments)}
	return traj.Dataset{Trajectories: trajs}, st, nil
}

// publishLocked freezes the live dataset into a new Snapshot and
// publishes it. The three-index views prevent any snapshot consumer's
// own append from writing into the shared backing arrays.
func (s *Session) publishLocked() {
	s.snap.Store(&Snapshot{
		Version:   s.version,
		Fragments: s.fragments[:len(s.fragments):len(s.fragments)],
		Trajs:     s.trajs[:len(s.trajs):len(s.trajs)],
		epoch:     s.epoch,
	})
}

// Preprocess shards trajectory conversion and t-fragment extraction
// across the data nodes: convert(i) produces trajectory i, a
// partitioner cuts it. Output preserves index order so ingestion stays
// deterministic; the context is observed before each trajectory is
// claimed, so an expired request stops promptly (all goroutines are
// always joined) and reports the ctx error. Exported for tests; Ingest
// is the transactional entry point.
func (s *Session) Preprocess(ctx context.Context, n int, convert func(int) (traj.Trajectory, error)) ([]traj.TFragment, []traj.Trajectory, error) {
	return s.preprocess(ctx, n, convert)
}

func (s *Session) preprocess(ctx context.Context, n int, convert func(int) (traj.Trajectory, error)) ([]traj.TFragment, []traj.Trajectory, error) {
	type result struct {
		tr    traj.Trajectory
		frags []traj.TFragment
		err   error
	}
	results := make([]result, n)
	var wg sync.WaitGroup
	sem := s.nodes
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			defer func() {
				// A panic in a data-node worker (a hostile convert, a
				// corrupt trajectory) must not kill the process: contain
				// it to this trajectory's slot as a typed error.
				if r := recover(); r != nil {
					results[i] = result{err: &guard.PanicError{Value: r, Stack: debug.Stack()}}
				}
			}()
			node := <-sem
			defer func() { sem <- node }()
			if err := ctx.Err(); err != nil {
				results[i] = result{err: err}
				return
			}
			tr, err := convert(i)
			if err != nil {
				results[i] = result{err: err}
				return
			}
			frags, err := node.Partition(tr)
			results[i] = result{tr: tr, frags: frags, err: err}
		}(i)
	}
	wg.Wait()
	// Deterministic error selection: ctx expiry first, else the first
	// trajectory (in request order) that failed.
	if err := ctx.Err(); err != nil {
		return nil, nil, err
	}
	var out []traj.TFragment
	var trajs []traj.Trajectory
	for _, res := range results {
		if res.err != nil {
			return nil, nil, res.err
		}
		out = append(out, res.frags...)
		trajs = append(trajs, res.tr)
	}
	return out, trajs, nil
}

// replay applies one logged batch, with identity converts.
func (s *Session) replay(batch traj.Dataset) error {
	ids := make([]traj.ID, len(batch.Trajectories))
	for i, tr := range batch.Trajectories {
		ids[i] = tr.ID
	}
	_, _, err := s.apply(context.Background(), ids, func(i int) (traj.Trajectory, error) {
		return batch.Trajectories[i], nil
	})
	return err
}

// restore loads a checkpoint payload into the empty session.
func (s *Session) restore(payload []byte) error {
	st, err := persist.DecodeServerState(payload)
	if err != nil {
		return err
	}
	s.trajs, s.fragments, s.version = st.Trajs, st.Fragments, st.Batches
	for _, tr := range st.Trajs {
		s.seenIDs[tr.ID] = struct{}{}
	}
	return nil
}

// encode renders the full dataset as a checkpoint payload.
func (s *Session) encode() []byte {
	return persist.EncodeServerState(persist.ServerState{Batches: s.version, Trajs: s.trajs, Fragments: s.fragments})
}

// heal rebuilds the session's entire in-memory state from its newest
// checkpoint plus full WAL replay. The envelope calls it once the
// breaker's probe sequence closes the breaker: whatever inconsistency
// a fault storm, panic, or stuck pipeline left in memory is discarded
// wholesale, and because every acknowledged batch is in the log (and
// only acknowledged batches are), the rebuilt state is byte-identical
// to a session that never faulted. Each rebuild starts a new epoch, so
// the pipeline's kept base-cluster set, built from the discarded
// fragments, is never folded forward. A failed rebuild restores the
// pre-heal state rather than losing acknowledged data, and leaves the
// error in the health block.
func (s *Session) heal() {
	oldSeen, oldFrags, oldTrajs, oldVersion := s.seenIDs, s.fragments, s.trajs, s.version
	s.seenIDs = make(map[traj.ID]struct{})
	s.fragments, s.trajs, s.version = nil, nil, 0
	s.epoch++
	if err := s.env.Reload(); err != nil {
		s.seenIDs, s.fragments, s.trajs, s.version = oldSeen, oldFrags, oldTrajs, oldVersion
		// The failed replay's fragments are not a prefix of the restored ones.
		s.epoch++
		s.setIngestHealth(fmt.Errorf("heal replay failed, serving pre-heal state: %v", err))
	} else {
		s.recovered.Store(s.version)
	}
	s.publishLocked()
}

// Close shuts the session down: further ingests fail with ErrClosed,
// and with durability enabled a final checkpoint covering every
// acknowledged batch is written before the WAL is flushed and closed.
// Read accessors keep serving the final snapshot. Idempotent.
func (s *Session) Close() error {
	s.ingestMu.Lock()
	defer s.ingestMu.Unlock()
	return s.env.Close()
}

// Abort closes the durability layer without flushing or checkpointing
// — the process-internal equivalent of kill -9, for crash-recovery
// tests.
func (s *Session) Abort() {
	s.ingestMu.Lock()
	defer s.ingestMu.Unlock()
	s.env.Abort()
}

// Durable reports whether the session has a persistence store.
func (s *Session) Durable() bool { return s.env.Durable() }

// PersistStats snapshots the durability layer's counters; the zero
// Stats when persistence is disabled.
func (s *Session) PersistStats() persist.Stats { return s.env.PersistStats() }

// RecoveredBatches reports how many acknowledged ingest batches New
// restored (checkpoint plus WAL replay), or the last heal rebuilt; 0
// for an in-memory session or a fresh namespace. Safe to call while
// an ingest heals the session.
func (s *Session) RecoveredBatches() uint64 { return s.recovered.Load() }

// LastGood returns the degraded-mode response stored under key.
func (s *Session) LastGood(key string) (any, bool) {
	s.lastGoodMu.Lock()
	defer s.lastGoodMu.Unlock()
	v, ok := s.lastGood[key]
	return v, ok
}

// SetLastGood stores the most recent successfully computed response
// for key (bounded like the result cache).
func (s *Session) SetLastGood(key string, v any) {
	s.lastGoodMu.Lock()
	if len(s.lastGood) >= maxResults {
		s.lastGood = make(map[string]any)
	}
	s.lastGood[key] = v
	s.lastGoodMu.Unlock()
}

// NoteStale counts one degraded-mode response served from last-good.
func (s *Session) NoteStale() {
	s.staleServed.Add(1)
	s.m.StaleServed.Inc()
}

// StaleServed returns the degraded-mode response count.
func (s *Session) StaleServed() int64 { return s.staleServed.Load() }

// Health reports the ingest path's degradation state: degraded is true
// while the most recent ingest attempt failed (fault or timeout), with
// the error text; the next successful ingest clears it.
func (s *Session) Health() (degraded bool, lastErr string) {
	s.degMu.Lock()
	defer s.degMu.Unlock()
	return s.lastIngestErr != "", s.lastIngestErr
}

func (s *Session) setIngestHealth(err error) {
	s.degMu.Lock()
	if err != nil {
		s.lastIngestErr = err.Error()
	} else {
		s.lastIngestErr = ""
	}
	s.degMu.Unlock()
}
