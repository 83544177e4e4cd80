package session

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"

	"repro/internal/neat"
	"repro/internal/roadnet"
	"repro/internal/traj"
	"repro/internal/trajindex"
)

// ErrNoData is returned by read paths before the session's first
// ingest; test with errors.Is. Its text is the API error body the
// server has always used for the empty case.
var ErrNoData = errors.New("no trajectories ingested yet")

// maxResults bounds the per-snapshot result cache: distinct parameter
// combinations are few in practice, but a scan of query space must
// not grow memory (the same bound the pre-session server applied to
// its version-keyed cache).
const maxResults = 32

// Snapshot is one immutable published state of a session: the dataset
// as of a committed ingest, plus lazily built read-side artifacts (the
// spatio-temporal index, the Phase 1–2 flow set and its flows' encoded
// objects, memoized clustering responses). A snapshot is reachable
// only through Session.Current's atomic pointer, so readers hold it
// without any lock and concurrent ingest can never mutate what they
// see — a new ingest publishes a new Snapshot instead.
//
// The Fragments and Trajs slices are three-index views into the
// session's live backing arrays: ingest, serialized by the session's
// ingest mutex, appends only at indices at or beyond every published
// view's length (or into a fresh array after reallocation), and the
// atomic publication orders those writes before any reader's loads.
// The capped capacity keeps a snapshot consumer's own append from ever
// touching shared memory.
type Snapshot struct {
	// Version counts committed ingest batches; it is also the WAL
	// sequence the next batch will be appended under.
	Version uint64
	// Fragments is every t-fragment ingested, in commit order.
	Fragments []traj.TFragment
	// Trajs is every trajectory ingested, in commit order.
	Trajs []traj.Trajectory
	// epoch is the session's epoch at publication: within one epoch each
	// snapshot's Fragments is a prefix of every later one's.
	epoch uint64

	// Lazily built spatio-temporal index over Trajs; built at most once
	// per snapshot, shared by every reader of this snapshot.
	idxOnce sync.Once
	idx     *trajindex.Index
	idxErr  error

	// flows is the snapshot's Phase 1–2 memo slot: nil, an in-flight
	// computation, or a completed one. Only successes stay in the slot.
	flowsMu sync.Mutex
	flows   *flowsCall

	// objs keeps each flow's encoded response object, built at most
	// once per snapshot by the first read that renders the flow (see
	// FlowObjects). The session never looks inside the bytes.
	objsMu sync.RWMutex
	objs   map[*neat.FlowCluster]*flowObject

	// results memoizes rendered clustering responses by parameter key.
	// Publication of a new snapshot is the invalidation: a result is
	// only ever correct for the exact dataset the snapshot froze.
	results   sync.Map
	resultCnt atomic.Int32
}

// Index returns the snapshot's spatio-temporal index, building it on
// first use (wait-free for ingest: the build touches only the frozen
// snapshot). ErrNoData before any ingest.
func (sn *Snapshot) Index(g *roadnet.Graph) (*trajindex.Index, error) {
	if len(sn.Trajs) == 0 {
		return nil, ErrNoData
	}
	sn.idxOnce.Do(func() {
		// Cell size near the average segment length keeps occupancy low.
		cell := 150.0
		if n := g.NumSegments(); n > 0 {
			cell = g.TotalLength() / float64(n)
		}
		sn.idx, sn.idxErr = trajindex.New(traj.Dataset{Name: "server", Trajectories: sn.Trajs}, cell)
	})
	return sn.idx, sn.idxErr
}

// flowsCall is one computation of a snapshot's flow set; done closes
// when fs and err are final.
type flowsCall struct {
	done chan struct{}
	fs   *neat.FlowSet
	err  error
}

// Flows returns the snapshot's Phase 1–2 product, calling compute at
// most once per success. Concurrent callers share one in-flight
// computation, run by the caller that found the slot empty under its
// own context; the others wait on their own ctx and give up with its
// error when it expires first. A failed or cancelled computation is
// never kept: its waiters retry, and the next caller computes afresh.
// The slot is unkeyed, so every caller on a snapshot must pass the same
// flow configuration (a session serves exactly one).
func (sn *Snapshot) Flows(ctx context.Context, compute func(context.Context) (*neat.FlowSet, error)) (*neat.FlowSet, error) {
	for {
		sn.flowsMu.Lock()
		c := sn.flows
		lead := c == nil
		if lead {
			c = &flowsCall{done: make(chan struct{})}
			sn.flows = c
		}
		sn.flowsMu.Unlock()
		if lead {
			return sn.computeFlows(ctx, c, compute)
		}
		select {
		case <-c.done:
			if c.err == nil {
				return c.fs, nil
			}
		case <-ctx.Done():
			return nil, ctx.Err()
		}
		if err := ctx.Err(); err != nil {
			return nil, err
		}
	}
}

// errFlowsPanicked stands in for the error of a computation that
// panicked, so its waiters retry instead of taking a nil flow set.
var errFlowsPanicked = errors.New("session: flow set computation panicked")

// computeFlows runs the leader's computation into c. Whatever ends it —
// success, error, cancellation or a panic — closes c.done; anything but
// success also frees the slot for the next caller.
func (sn *Snapshot) computeFlows(ctx context.Context, c *flowsCall, compute func(context.Context) (*neat.FlowSet, error)) (*neat.FlowSet, error) {
	c.err = errFlowsPanicked
	defer func() {
		if c.err != nil {
			sn.flowsMu.Lock()
			sn.flows = nil
			sn.flowsMu.Unlock()
		}
		close(c.done)
	}()
	c.fs, c.err = compute(ctx)
	return c.fs, c.err
}

// flowObject is one flow's encoded object; once runs its encode.
type flowObject struct {
	once sync.Once
	b    []byte
	err  error
}

// FlowObjects sets dst[i] to the encoded object of flows[i], calling
// encode only for the flows no earlier call on this snapshot encoded:
// each flow is encoded at most once per snapshot, and every read of the
// snapshot shares the same bytes, which callers must not modify. A flow
// set belongs to one snapshot, so its flows' objects live and die with
// it. dst must be as long as flows. Concurrent calls are safe, and a
// call that needs a flow another call is encoding waits for it. An
// encode error is returned as is and keeps nothing for that flow, so a
// later call encodes it again.
func (sn *Snapshot) FlowObjects(flows []*neat.FlowCluster, dst [][]byte, encode func(*neat.FlowCluster) ([]byte, error)) error {
	objs := make([]*flowObject, len(flows))
	missing := false
	sn.objsMu.RLock()
	for i, f := range flows {
		objs[i] = sn.objs[f]
		missing = missing || objs[i] == nil
	}
	sn.objsMu.RUnlock()
	if missing {
		sn.objsMu.Lock()
		if sn.objs == nil {
			sn.objs = make(map[*neat.FlowCluster]*flowObject, len(flows))
		}
		for i, f := range flows {
			if objs[i] != nil {
				continue
			}
			if objs[i] = sn.objs[f]; objs[i] == nil {
				objs[i] = new(flowObject)
				sn.objs[f] = objs[i]
			}
		}
		sn.objsMu.Unlock()
	}
	for i, o := range objs {
		o.once.Do(func() { o.b, o.err = encode(flows[i]) })
		if o.err != nil {
			sn.objsMu.Lock()
			if sn.objs[flows[i]] == o {
				delete(sn.objs, flows[i])
			}
			sn.objsMu.Unlock()
			return o.err
		}
		dst[i] = o.b
	}
	return nil
}

// Result returns the memoized response stored under key, if any.
func (sn *Snapshot) Result(key string) (any, bool) {
	return sn.results.Load(key)
}

// StoreResult memoizes a response for key; past maxResults distinct
// keys further stores are dropped (the bound, not an LRU — parameter
// scans repeat few combinations).
func (sn *Snapshot) StoreResult(key string, v any) {
	if sn.resultCnt.Load() >= maxResults {
		return
	}
	if _, loaded := sn.results.LoadOrStore(key, v); !loaded {
		sn.resultCnt.Add(1)
	}
}
