// Package stream implements the online clustering mode the paper
// motivates in §III-C: "the first two phases of NEAT can be performed
// on each newly arrived set of trajectories. The new flow clusters are
// then merged with the available flow clusters to produce compact
// clustering results."
//
// A Clusterer ingests trajectory batches as they arrive, runs Phases
// 1-2 only on the new data, keeps the resulting flow clusters in a
// sliding window of recent batches, and re-runs the cheap Phase 3
// merge over the standing flow set to serve the current clustering.
// Old traffic ages out with the window, so memory stays proportional
// to the window, not to the stream.
package stream

import (
	"context"
	"errors"
	"fmt"
	"runtime/debug"
	"sync/atomic"
	"time"

	"repro/internal/distcache"
	"repro/internal/fault"
	"repro/internal/guard"
	"repro/internal/neat"
	"repro/internal/obs"
	"repro/internal/persist"
	"repro/internal/roadnet"
	"repro/internal/traj"
)

// ErrClosed is the sentinel a closed Clusterer's Ingest wraps; test
// with errors.Is.
var ErrClosed = errors.New("stream: clusterer is closed")

// Config parameterizes a Clusterer.
type Config struct {
	// Neat carries the clustering parameters for all three phases.
	// Neat.Refine.Workers does not affect the merge: the maintained
	// ε-graph evaluates its pairs serially (see neat.EpsGraph).
	Neat neat.Config
	// Window is the number of most recent batches whose flows are kept;
	// 0 keeps everything.
	Window int
	// CacheEntries sizes the persistent junction-pair distance cache
	// (internal/distcache) the clusterer keeps across ingests: 0 (the
	// default) is distcache.DefaultEntries, >0 an explicit entry
	// budget, and <0 no cache. Every setting keeps the ε-graph
	// maintained across ingests (adjacency rows of surviving flows are
	// kept; only pairs involving a new flow are evaluated). Without the
	// cache those pairs recompute their distances. Clustering output is
	// byte-identical in every mode; only the steady-state ingest cost
	// changes.
	CacheEntries int
	// Obs is the metrics registry the clusterer records into: per-batch
	// ingest latency, new/evicted flow counters, and the standing-flow
	// gauge. Nil (the default) disables instrumentation; clustering
	// output is identical either way.
	Obs *obs.Registry
	// Trace enables per-ingest span collection: each Snapshot then
	// carries a "stream.ingest" tree with the batch's Phase 1-2 run and
	// the standing-set merge grafted under it. Off by default.
	Trace bool
	// Fault is an optional fault injector threaded through the whole
	// ingest path: slow/failed ingests (fault.Ingest), shortest-path
	// faults in the Phase 3 merge (unless Neat.Refine.Fault already
	// pins one), and cache pressure on the persistent distance cache.
	// A failed ingest leaves the clusterer exactly as it was — the
	// batch can be retried — and clustering output with a nil or idle
	// injector is byte-identical to an un-faulted run.
	Fault *fault.Injector
	// Persist makes the clusterer durable: every acknowledged batch is
	// appended to a write-ahead log in Persist.Dir, the full state
	// (standing flows, batch index, ε-graph rows, optionally warm
	// distance-cache entries) is checkpointed every
	// Persist.CheckpointEvery batches and on Close, and New recovers by
	// loading the newest valid checkpoint and replaying the WAL tail
	// through the normal ingest path — so a reopened clusterer's
	// snapshots are byte-identical to one that never crashed (it loses
	// at most the torn final record a crash left unsynced). Nil (the
	// default) keeps the clusterer in-memory only. Persist.Obs and
	// Persist.Fault default to Config.Obs and Config.Fault.
	Persist *persist.Options
	// Breaker adds a circuit breaker in front of IngestCtx: infra-class
	// failures (injected faults, contained panics) in consecutive
	// ingests trip it open, after which ingests are rejected with a
	// *guard.QuarantinedError until the cooldown elapses and a probe
	// batch succeeds. Reads (Current, StandingFlows) are unaffected —
	// every failed ingest rolls back fully, so the last committed state
	// stays servable. The zero value (TripAfter 0) disables it.
	Breaker guard.BreakerConfig
	// Now is the clock the breaker reads; nil uses time.Now. Injected
	// in tests so trip/cooldown decisions are deterministic.
	Now guard.Clock
}

// Snapshot is the state of the clustering after an ingestion.
type Snapshot struct {
	// Batch is the 0-based index of the ingested batch.
	Batch int
	// NewFlows is the number of flows the batch contributed.
	NewFlows int
	// EvictedFlows is the number of flows that aged out of the window.
	EvictedFlows int
	// StandingFlows is the size of the flow set after ingest/evict.
	StandingFlows int
	// Clusters is the current clustering of the standing flows.
	Clusters []*neat.TrajectoryCluster
	// RefineStats is the Phase 3 work of this merge. Pairs counts only
	// the pairs this ingest actually evaluated — those involving a new
	// flow — not the full standing-set pair count a from-scratch merge
	// would scan.
	RefineStats neat.RefineStats
	// Timing is this ingest's per-phase breakdown: Phase1/Phase2 from
	// the batch run, Phase3 from the standing-set merge.
	Timing neat.Timing
	// Trace is the ingest's span tree when Config.Trace is on; nil
	// otherwise.
	Trace *obs.Span
}

// Clusterer maintains NEAT clustering over a trajectory stream. Not
// safe for concurrent use; callers serialize Ingest.
type Clusterer struct {
	g        *roadnet.Graph
	pipeline *neat.Pipeline
	cfg      Config

	// Every ingest runs the Phases 1-2 plan over the new batch, then
	// the Phase 3 merge over the standing flow set (§III-C's
	// incremental mode) on the maintained ε-graph.
	ingestPlan *neat.Plan
	eps        *neat.EpsGraph

	// cache persists junction-pair network distances across ingests;
	// nil when Config.CacheEntries < 0. cfg.Neat.Refine carries it,
	// along with Config.Fault unless the refine config pins its own.
	cache *distcache.Cache

	// store is the durability layer (nil without Config.Persist);
	// lastCkpt is the batch index the newest checkpoint covers, and
	// recovering flags that IngestCtx is replaying the WAL (so it must
	// not re-append records or draw ingest-fault decisions).
	store      *persist.Store
	lastCkpt   int
	recovering bool

	// current is the last committed snapshot, published atomically
	// after each commit so concurrent readers observe the clustering
	// without synchronizing with Ingest (see Current).
	current atomic.Pointer[Snapshot]

	// breaker guards the ingest path (nil unless Config.Breaker is
	// enabled); replayed WAL batches bypass it — they were committed.
	breaker *guard.Breaker

	batch    int
	standing []flowEntry
	closed   bool
	// epsDirty flags that the maintained ε-graph no longer mirrors the
	// standing set (a merge failed after eviction had been applied to
	// the graph); the next merge rebuilds it from empty over the full
	// standing set, which is byte-identical to incremental maintenance
	// (see neat.EpsGraph).
	epsDirty bool

	// Pre-resolved metric handles; all nil without a registry.
	m streamMetrics
}

// streamMetrics are the streaming-mode series.
type streamMetrics struct {
	batches   *obs.Counter
	newFlows  *obs.Counter
	evictions *obs.Counter
	standing  *obs.Gauge
	ingest    *obs.Histogram
}

// ingestBuckets cover per-batch ingest latencies from sub-millisecond
// micro-batches to multi-second windows (seconds).
var ingestBuckets = []float64{.001, .005, .01, .05, .1, .5, 1, 5, 10, 30}

type flowEntry struct {
	flow  *neat.FlowCluster
	batch int
}

// New creates a Clusterer over g.
func New(g *roadnet.Graph, cfg Config) (*Clusterer, error) {
	if cfg.Window < 0 {
		return nil, fmt.Errorf("stream: window must be non-negative, got %d", cfg.Window)
	}
	if err := cfg.Neat.Validate(); err != nil {
		return nil, err
	}
	ingestPlan, err := neat.NewPlan(cfg.Neat, neat.LevelFlow, neat.FromDataset, neat.Exec{})
	if err != nil {
		return nil, err
	}
	var cache *distcache.Cache
	if cfg.CacheEntries >= 0 {
		cache = distcache.New(cfg.CacheEntries)
		cache.Instrument(cfg.Obs)
		cache.InjectFaults(cfg.Fault)
	}
	cfg.Fault.Instrument(cfg.Obs)
	cfg.Neat.Refine.Cache = cache
	if cfg.Neat.Refine.Fault == nil {
		cfg.Neat.Refine.Fault = cfg.Fault
	}
	eps, err := neat.NewEpsGraph(g, cfg.Neat.Refine)
	if err != nil {
		return nil, err
	}
	pipeline := neat.NewPipeline(g)
	pipeline.Instrument(cfg.Obs)
	pipeline.EnableTracing(cfg.Trace)
	c := &Clusterer{
		g:          g,
		pipeline:   pipeline,
		cfg:        cfg,
		ingestPlan: ingestPlan,
		eps:        eps,
		cache:      cache,
		m: streamMetrics{
			batches:   cfg.Obs.Counter("stream_batches_total"),
			newFlows:  cfg.Obs.Counter("stream_new_flows_total"),
			evictions: cfg.Obs.Counter("stream_evicted_flows_total"),
			standing:  cfg.Obs.Gauge("stream_standing_flows"),
			ingest:    cfg.Obs.Histogram("stream_ingest_seconds", ingestBuckets),
		},
	}
	if cfg.Breaker.TripAfter > 0 {
		c.breaker = guard.NewBreaker(cfg.Breaker, cfg.Now)
	}
	if cfg.Persist != nil {
		o := *cfg.Persist
		if o.Obs == nil {
			o.Obs = cfg.Obs
		}
		if o.Fault == nil {
			o.Fault = cfg.Fault
		}
		store, err := persist.Open(o)
		if err != nil {
			return nil, fmt.Errorf("stream: open persistence: %w", err)
		}
		c.store = store
		if err := c.recover(); err != nil {
			store.Close()
			return nil, fmt.Errorf("stream: recover: %w", err)
		}
	}
	return c, nil
}

// recover restores the clusterer from the newest valid checkpoint and
// replays the WAL tail through the normal ingest path. Replayed
// batches re-run Phases 1-3 exactly as they did originally, so the
// recovered standing set and ε-graph are byte-identical to an
// uncrashed clusterer's — not an approximation loaded from disk.
func (c *Clusterer) recover() error {
	if seq, payload, ok := c.store.Checkpoint(); ok {
		st, err := persist.DecodeStreamState(payload)
		if err != nil {
			return fmt.Errorf("checkpoint seq %d: %w", seq, err)
		}
		if err := c.restoreState(st); err != nil {
			return fmt.Errorf("checkpoint seq %d: %w", seq, err)
		}
	}
	c.recovering = true
	defer func() { c.recovering = false }()
	return c.store.Replay(uint64(c.batch), func(seq uint64, batch traj.Dataset) error {
		if seq != uint64(c.batch) {
			return fmt.Errorf("wal gap: expected batch %d, log has %d", c.batch, seq)
		}
		_, err := c.IngestCtx(context.Background(), batch)
		return err
	})
}

// restoreState loads a decoded checkpoint into the clusterer.
func (c *Clusterer) restoreState(st persist.StreamState) error {
	c.standing = c.standing[:0]
	flows := make([]*neat.FlowCluster, len(st.Entries))
	for i, e := range st.Entries {
		c.standing = append(c.standing, flowEntry{flow: e.Flow, batch: e.Batch})
		flows[i] = e.Flow
	}
	c.batch = st.Batch
	c.lastCkpt = st.Batch
	if st.Adjacency != nil {
		eg, err := neat.RestoreEpsGraph(c.g, c.cfg.Neat.Refine, flows, st.Adjacency)
		if err != nil {
			return err
		}
		c.eps = eg
	} else {
		// The checkpoint was taken while the graph was dirty; the next
		// merge rebuilds it over the full standing set.
		c.epsDirty = true
	}
	if c.cache != nil && len(st.Cache) > 0 && st.CacheScope == neat.CacheScope(c.g, c.cfg.Neat.Refine) {
		c.cache.SetScope(st.CacheScope)
		entries := make([]distcache.Entry, len(st.Cache))
		for i, e := range st.Cache {
			entries[i] = distcache.Entry{Key: e.Key, Dist: e.Dist, Bound: e.Bound}
		}
		c.cache.Import(entries)
	}
	return nil
}

// Ingest processes one batch: Phases 1-2 over the batch only, window
// eviction, then Phase 3 over the standing flow set.
func (c *Clusterer) Ingest(batch traj.Dataset) (Snapshot, error) {
	return c.IngestCtx(context.Background(), batch)
}

// IngestCtx is Ingest with cooperative cancellation: the context is
// threaded through the batch run and the standing-set merge. On any
// failure — cancellation, deadline, an injected fault, or a contained
// panic — the clusterer's state is exactly as it was before the call
// (nothing is committed, the batch index does not advance), so the
// same batch can be retried; a later successful retry produces output
// byte-identical to a never-failed run.
//
// With Config.Breaker enabled, consecutive infra-class failures
// (injected faults, panics) trip the breaker: further calls fail fast
// with a *guard.QuarantinedError until the cooldown elapses and a
// probe batch succeeds. Cancellation and validation failures never
// trip it — they are the caller's condition, not the pipeline's.
func (c *Clusterer) IngestCtx(ctx context.Context, batch traj.Dataset) (Snapshot, error) {
	if c.closed {
		return Snapshot{}, fmt.Errorf("stream: batch %d: %w", c.batch, ErrClosed)
	}
	if c.breaker != nil && !c.recovering {
		if d, retry := c.breaker.Allow(); d == guard.Reject {
			return Snapshot{}, fmt.Errorf("stream: batch %d: %w", c.batch,
				&guard.QuarantinedError{Session: "stream", RetryAfter: retry})
		}
	}
	snap, err := c.ingest(ctx, batch)
	if c.breaker != nil && !c.recovering {
		var pe *guard.PanicError
		if fault.IsInjected(err) || errors.As(err, &pe) {
			c.breaker.Failure()
		} else {
			// Success and caller-class failures alike clear the run: only
			// infra faults may trip, and a pending probe slot must always
			// resolve so the breaker cannot wedge half-open.
			c.breaker.Success()
		}
	}
	return snap, err
}

// Quarantined reports whether the breaker currently rejects ingests.
func (c *Clusterer) Quarantined() bool {
	return c.breaker != nil && c.breaker.Quarantined()
}

// Breaker exposes the ingest circuit breaker; nil when disabled.
func (c *Clusterer) Breaker() *guard.Breaker { return c.breaker }

// ingest is the containment boundary: a panic anywhere in the batch
// run, merge, or durability path is caught here, the pre-batch state
// restored, and the panic surfaced as a typed *guard.PanicError.
func (c *Clusterer) ingest(ctx context.Context, batch traj.Dataset) (snap Snapshot, err error) {
	start := time.Now()
	prevStanding := append([]flowEntry(nil), c.standing...)
	prevBatch := c.batch
	// rollback restores the pre-batch state. The ε-graph may already
	// have been edited, so it is marked dirty: the next merge rebuilds
	// it over the restored standing set.
	rollback := func() {
		c.standing = prevStanding
		c.batch = prevBatch
		c.epsDirty = true
	}
	defer func() {
		if r := recover(); r != nil {
			rollback()
			snap = Snapshot{}
			err = fmt.Errorf("stream: batch %d: %w", prevBatch,
				&guard.PanicError{Value: r, Stack: debug.Stack()})
		}
	}()
	if !c.recovering {
		// WAL replay must not draw from the fault stream: the replayed
		// ingests already "happened", and skipping the draws keeps the
		// injector's deterministic sequence aligned with live traffic.
		c.cfg.Fault.Sleep(fault.Ingest)
		if err := c.cfg.Fault.Inject(fault.Ingest); err != nil {
			return Snapshot{}, fmt.Errorf("stream: batch %d: %w", c.batch, err)
		}
		if c.cfg.Fault.Hit(fault.IngestPanic) {
			panic(fmt.Sprintf("fault: injected %s", fault.IngestPanic))
		}
	}
	var root *obs.Span
	if c.cfg.Trace {
		root = obs.StartSpan("stream.ingest")
		root.Annotate("batch", c.batch)
	}
	res, err := c.pipeline.RunPlanCtx(ctx, c.ingestPlan, neat.Input{Dataset: batch})
	if err != nil {
		// Nothing has been committed yet; state is untouched.
		return Snapshot{}, fmt.Errorf("stream: batch %d: %w", c.batch, err)
	}
	root.Adopt(res.Trace)
	snap = Snapshot{Batch: c.batch, NewFlows: len(res.Flows), Timing: res.Timing}
	// The merge below can fail (cancellation, injected SP faults);
	// rollback undoes everything from here on.
	// Evict flows older than the window. The standing list is in batch
	// order (each ingest appends), so the cutoff removes a prefix —
	// which is exactly the edit the maintained ε-graph supports.
	evicted := 0
	if c.cfg.Window > 0 {
		cutoff := c.batch - c.cfg.Window + 1
		for evicted < len(c.standing) && c.standing[evicted].batch < cutoff {
			evicted++
		}
	}
	if evicted > 0 {
		c.standing = append(c.standing[:0], c.standing[evicted:]...)
	}
	snap.EvictedFlows = evicted
	for _, f := range res.Flows {
		c.standing = append(c.standing, flowEntry{flow: f, batch: c.batch})
	}
	c.batch++
	snap.StandingFlows = len(c.standing)

	if err := c.merge(ctx, &snap, res.Flows, evicted, root); err != nil {
		rollback()
		return Snapshot{}, fmt.Errorf("stream: merge after batch %d: %w", snap.Batch, err)
	}
	// The batch is committed in memory; make it durable before
	// acknowledging. An append failure (disk full, injected fault)
	// rolls the commit back so the caller can retry — the WAL never
	// acknowledges a batch the log does not hold.
	if c.store != nil && !c.recovering {
		if err := c.store.AppendBatch(uint64(snap.Batch), batch); err != nil {
			rollback()
			return Snapshot{}, fmt.Errorf("stream: wal append batch %d: %w", snap.Batch, err)
		}
	}
	// Hand the caller a deep copy: snapshots must never alias the live
	// flows the clusterer keeps merging (see TestSnapshotDoesNotAlias).
	snap.Clusters = neat.CloneClusters(snap.Clusters)
	if c.store != nil && !c.recovering {
		if every := c.store.CheckpointEvery(); every > 0 && c.batch-c.lastCkpt >= every {
			// Best-effort: a failed checkpoint only delays compaction
			// (recovery replays more WAL); the error is surfaced in
			// PersistStats().LastCheckpointError.
			c.writeCheckpoint()
		}
	}
	root.End()
	snap.Trace = root
	c.m.batches.Inc()
	c.m.newFlows.Add(int64(snap.NewFlows))
	c.m.evictions.Add(int64(snap.EvictedFlows))
	c.m.standing.Set(float64(snap.StandingFlows))
	c.m.ingest.ObserveDuration(time.Since(start))
	pub := snap
	c.current.Store(&pub)
	return snap, nil
}

// Current returns the most recently committed snapshot, or nil before
// the first one. It never blocks: the pointer is published atomically
// after each commit and the snapshot's clusters are already deep-copied
// off the live standing set, so readers can hold it across later
// ingests (treat it as read-only — it is shared with every other
// Current caller). A failed or rolled-back ingest never publishes.
func (c *Clusterer) Current() *Snapshot { return c.current.Load() }

// Close marks the clusterer closed: subsequent Ingest calls fail with
// an error wrapping ErrClosed. With durability enabled it also writes
// a final checkpoint covering every ingested batch and closes the
// store (flushing the WAL), and can then fail; without Config.Persist
// it never does. Close is idempotent, and read-only accessors
// (StandingFlows, CacheStats, Batches) keep working on the final
// state.
func (c *Clusterer) Close() error {
	if c.closed {
		return nil
	}
	c.closed = true
	if c.store == nil {
		return nil
	}
	var err error
	if c.batch > c.lastCkpt {
		err = c.writeCheckpoint()
	}
	if cerr := c.store.Close(); err == nil {
		err = cerr
	}
	return err
}

// Abort closes the clusterer without flushing or checkpointing — the
// process-internal equivalent of kill -9, for crash-recovery tests.
// Whatever the WAL holds on disk (plus the OS page cache for
// same-process reopens) is what recovery will see.
func (c *Clusterer) Abort() {
	c.closed = true
	if c.store != nil {
		c.store.Abort()
	}
}

// PersistStats snapshots the durability layer's counters; the zero
// Stats when persistence is disabled.
func (c *Clusterer) PersistStats() persist.Stats {
	if c.store == nil {
		return persist.Stats{}
	}
	return c.store.Stats()
}

// writeCheckpoint persists the full clusterer state as of the current
// batch index.
func (c *Clusterer) writeCheckpoint() error {
	payload := persist.EncodeStreamState(c.checkpointState())
	if err := c.store.WriteCheckpoint(uint64(c.batch), payload); err != nil {
		return err
	}
	c.lastCkpt = c.batch
	return nil
}

// checkpointState assembles the serializable clusterer state: the
// standing flows with their batch indices, the maintained ε-graph's
// adjacency rows (omitted while dirty — recovery then rebuilds the
// graph), and, when Options.PersistCache is on, the warmest
// distance-cache entries with their scope.
func (c *Clusterer) checkpointState() persist.StreamState {
	st := persist.StreamState{Batch: c.batch}
	if len(c.standing) > 0 {
		st.Entries = make([]persist.StreamEntry, len(c.standing))
		for i, e := range c.standing {
			st.Entries[i] = persist.StreamEntry{Batch: e.batch, Flow: e.flow}
		}
	}
	if !c.epsDirty {
		st.Adjacency = c.eps.Adjacency()
	}
	if on, limit := c.store.PersistCache(); on && c.cache != nil {
		st.CacheScope = c.cache.Scope()
		entries := c.cache.Export(limit)
		if len(entries) > 0 {
			st.Cache = make([]persist.CacheEntry, len(entries))
			for i, e := range entries {
				st.Cache[i] = persist.CacheEntry{Key: e.Key, Dist: e.Dist, Bound: e.Bound}
			}
		}
	}
	return st
}

// merge is the Phase 3 merge: instead of rebuilding the ε-graph over
// the whole standing set, it drops the evicted prefix from the
// maintained graph, evaluates only the pairs that involve a flow from
// this batch (their distances mostly hitting the persistent cache),
// and re-runs the deterministic DBSCAN pass. The result is
// byte-identical to a from-scratch neat.RefineFlows over the standing
// set — see neat.EpsGraph.
//
// When a previous ingest failed mid-edit, or the clusterer recovered
// from a checkpoint without adjacency rows (epsDirty), the maintained
// graph is rebuilt from empty over the full standing set first —
// structurally the same scan a from-scratch build runs, so the
// recovered graph is byte-identical to an incrementally maintained one
// (that ingest's Pairs counter covers the whole standing set).
func (c *Clusterer) merge(ctx context.Context, snap *Snapshot, newFlows []*neat.FlowCluster, evicted int, root *obs.Span) error {
	var stats neat.RefineStats
	if c.epsDirty {
		fresh, err := neat.NewEpsGraph(c.g, c.cfg.Neat.Refine)
		if err != nil {
			return err
		}
		flows := make([]*neat.FlowCluster, len(c.standing))
		for i, e := range c.standing {
			flows[i] = e.flow
		}
		if stats, err = fresh.Extend(ctx, flows); err != nil {
			return err
		}
		c.eps = fresh
		c.epsDirty = false
	} else {
		c.eps.RemovePrefix(evicted)
		var err error
		if stats, err = c.eps.Extend(ctx, newFlows); err != nil {
			return err
		}
	}
	clusters, clusterTime, err := c.eps.Cluster()
	if err != nil {
		return err
	}
	stats.ClusterTime = clusterTime
	snap.Clusters = clusters
	snap.RefineStats = stats
	snap.Timing.Phase3 = stats.GraphTime + stats.ClusterTime
	if root != nil {
		// The same neat.merge → phase3.refine shape a flow-set read
		// traces (neat.Pipeline.RunFlowSet).
		m := obs.StartSpan("neat.merge")
		m.Annotate("level", neat.LevelOpt)
		m.Annotate("incremental", true)
		sp := m.StartChild("phase3.refine")
		neat.AnnotateRefineSpan(sp, c.cfg.Neat.Refine, stats, len(clusters))
		sp.End()
		m.End()
		root.Adopt(m)
	}
	return nil
}

// CacheStats snapshots the persistent distance cache's counters; the
// zero Stats when the cache is disabled (Config.CacheEntries < 0).
func (c *Clusterer) CacheStats() distcache.Stats {
	return c.cache.CacheStats()
}

// StandingFlows returns the current flow set (most recent last);
// callers must not modify the flows.
func (c *Clusterer) StandingFlows() []*neat.FlowCluster {
	out := make([]*neat.FlowCluster, len(c.standing))
	for i, e := range c.standing {
		out[i] = e.flow
	}
	return out
}

// Batches returns how many batches have been ingested.
func (c *Clusterer) Batches() int { return c.batch }
