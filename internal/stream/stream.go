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
	"sync/atomic"
	"time"

	"repro/internal/commit"
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
	// Persist makes the clusterer durable through its commit envelope
	// (DESIGN.md §12.4): every acknowledged batch is in a write-ahead
	// log in Persist.Dir before it is published, the full state
	// (standing flows, batch index, ε-graph rows) is checkpointed every
	// Persist.CheckpointEvery batches and on Close, and New recovers by
	// loading the newest valid checkpoint and replaying the WAL tail
	// through the normal ingest path — so a reopened clusterer's
	// snapshots are byte-identical to one that never crashed (it loses
	// at most the torn final record a crash left unsynced). Nil (the
	// default) keeps the clusterer in-memory only. Persist.Obs and
	// Persist.Fault default to Config.Obs and Config.Fault.
	Persist *persist.Options
	// Breaker adds a circuit breaker in front of IngestCtx: consecutive
	// infra-class failures (injected faults, contained panics, failed
	// WAL appends) trip it open, after which ingests are rejected with
	// a *guard.QuarantinedError until the cooldown elapses and a probe
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

	// env is the commit envelope: fault draws, containment, the WAL,
	// checkpoints, and guard's breaker (disabled unless Config.Breaker
	// is set).
	env   *commit.Envelope
	guard *guard.Guard

	// current is the last committed snapshot, published atomically
	// after each commit so concurrent readers observe the clustering
	// without synchronizing with Ingest (see Current).
	current atomic.Pointer[Snapshot]

	batch    int
	standing []flowEntry
	// epsDirty flags that the maintained ε-graph no longer mirrors the
	// standing set (a commit failed after its merge began editing the
	// graph); the next merge rebuilds it from empty over the full
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
	c.guard = guard.New(guard.Config{Breaker: cfg.Breaker, Now: cfg.Now})
	c.env = commit.New("stream", c.guard, cfg.Fault, ErrClosed)
	if cfg.Persist != nil {
		// Replayed batches re-run Phases 1-3 exactly as they did
		// originally, so the recovered standing set and ε-graph are
		// byte-identical to an uncrashed clusterer's — not an
		// approximation loaded from disk.
		if err := c.env.Open(*cfg.Persist, cfg.Obs, nil, c.encode, c.restore, c.replay, nil); err != nil {
			return nil, fmt.Errorf("stream: %w", err)
		}
	}
	return c, nil
}

// replay applies one logged batch.
func (c *Clusterer) replay(batch traj.Dataset) error {
	start := time.Now()
	snap, err := c.apply(context.Background(), batch)
	if err == nil {
		c.publish(&snap, start)
	}
	return err
}

// restore loads a checkpoint payload into the empty clusterer.
func (c *Clusterer) restore(payload []byte) error {
	st, err := persist.DecodeStreamState(payload)
	if err != nil {
		return err
	}
	flows := make([]*neat.FlowCluster, len(st.Entries))
	for i, e := range st.Entries {
		c.standing = append(c.standing, flowEntry{flow: e.Flow, batch: e.Batch})
		flows[i] = e.Flow
	}
	c.batch = st.Batch
	if st.Adjacency == nil {
		// The checkpoint was taken while the graph was dirty; the next
		// merge rebuilds it over the full standing set.
		c.epsDirty = true
		return nil
	}
	c.eps, err = neat.RestoreEpsGraph(c.g, c.cfg.Neat.Refine, flows, st.Adjacency)
	return err
}

// Ingest processes one batch: Phases 1-2 over the batch only, window
// eviction, then Phase 3 over the standing flow set.
func (c *Clusterer) Ingest(batch traj.Dataset) (Snapshot, error) {
	return c.IngestCtx(context.Background(), batch)
}

// IngestCtx is Ingest with cooperative cancellation: the context is
// threaded through the batch run and the standing-set merge. On any
// failure — cancellation, deadline, an injected fault, a contained
// panic, or a failed WAL append — the clusterer's state is exactly as
// it was before the call (nothing is committed, the batch index does
// not advance), so the same batch can be retried; a later successful
// retry produces output byte-identical to a never-failed run.
//
// With Config.Breaker enabled, consecutive infra-class failures trip
// the breaker: further calls fail fast with a *guard.QuarantinedError
// until the cooldown elapses and a probe batch succeeds. Cancellation
// and validation failures never trip it — they are the caller's
// condition, not the pipeline's.
func (c *Clusterer) IngestCtx(ctx context.Context, batch traj.Dataset) (Snapshot, error) {
	start := time.Now()
	prevStanding, prevBatch := append([]flowEntry(nil), c.standing...), c.batch
	undo := func() {
		if c.batch != prevBatch {
			// The merge may have edited the ε-graph: the next merge
			// rebuilds it over the restored standing set.
			c.epsDirty = true
		}
		c.standing, c.batch = prevStanding, prevBatch
	}
	var snap Snapshot
	err := c.env.Commit(ctx, undo, func(ctx context.Context) (traj.Dataset, error) {
		var err error
		snap, err = c.apply(ctx, batch)
		return batch, err
	}, func() { c.publish(&snap, start) })
	if err != nil {
		return Snapshot{}, fmt.Errorf("stream: batch %d: %w", c.batch, err)
	}
	return snap, nil
}

// Quarantined reports whether the breaker currently rejects ingests.
func (c *Clusterer) Quarantined() bool { return c.guard.Breaker().Quarantined() }

// Breaker exposes the ingest circuit breaker; nil when disabled.
func (c *Clusterer) Breaker() *guard.Breaker {
	if b := c.guard.Breaker(); b.Enabled() {
		return b
	}
	return nil
}

// apply is the in-memory commit of one batch: Phases 1-2 over the
// batch, window eviction, then the Phase 3 merge over the standing
// set. A failure leaves the undo of IngestCtx to restore the state.
func (c *Clusterer) apply(ctx context.Context, batch traj.Dataset) (Snapshot, error) {
	var root *obs.Span
	if c.cfg.Trace {
		root = obs.StartSpan("stream.ingest")
		root.Annotate("batch", c.batch)
	}
	res, err := c.pipeline.RunPlanCtx(ctx, c.ingestPlan, neat.Input{Dataset: batch})
	if err != nil {
		return Snapshot{}, err
	}
	root.Adopt(res.Trace)
	snap := Snapshot{Batch: c.batch, NewFlows: len(res.Flows), Timing: res.Timing, Trace: root}
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
		return Snapshot{}, fmt.Errorf("merge: %w", err)
	}
	return snap, nil
}

// publish hands a committed snapshot to Current. Its clusters become
// deep copies: snapshots must never alias the live flows the clusterer
// keeps merging (see TestSnapshotDoesNotAlias).
func (c *Clusterer) publish(snap *Snapshot, start time.Time) {
	snap.Clusters = neat.CloneClusters(snap.Clusters)
	snap.Trace.End()
	c.m.batches.Inc()
	c.m.newFlows.Add(int64(snap.NewFlows))
	c.m.evictions.Add(int64(snap.EvictedFlows))
	c.m.standing.Set(float64(snap.StandingFlows))
	c.m.ingest.ObserveDuration(time.Since(start))
	pub := *snap
	c.current.Store(&pub)
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
func (c *Clusterer) Close() error { return c.env.Close() }

// Abort closes the clusterer without flushing or checkpointing — the
// process-internal equivalent of kill -9, for crash-recovery tests.
// Whatever the WAL holds on disk (plus the OS page cache for
// same-process reopens) is what recovery will see.
func (c *Clusterer) Abort() { c.env.Abort() }

// PersistStats snapshots the durability layer's counters; the zero
// Stats when persistence is disabled.
func (c *Clusterer) PersistStats() persist.Stats { return c.env.PersistStats() }

// encode renders the checkpoint payload: the standing flows with their
// batch indices and the maintained ε-graph's adjacency rows (omitted
// while dirty — recovery then rebuilds the graph).
func (c *Clusterer) encode() []byte {
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
	return persist.EncodeStreamState(st)
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
