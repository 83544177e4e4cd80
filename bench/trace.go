package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/url"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"time"

	"repro/internal/geo"
	"repro/internal/mapgen"
	"repro/internal/neat"
	"repro/internal/obs"
	"repro/internal/persist"
	"repro/internal/server"
	"repro/internal/session"
	"repro/internal/traj"
)

// The traced replay re-executes a workload's setup and schedule
// in-process, one request at a time in schedule order, against a stack
// built from the layers' public constructors: a session registry
// configured like the server's, a bench-owned neat.Pipeline per session
// sharing that session's distance cache, and — for the durable workload
// — a persist.Store fed the same batches on the server's checkpoint
// cadence. Bench-owned spans around each layer call give the per-layer
// split. Spans inside the program are not used.

// slowestTrees is how many op span trees a traced replay keeps.
const slowestTrees = 20

type replayStats struct {
	ops               int
	opTime, setupTime time.Duration
	// Inclusive wall time per span name, over the ops and over setup.
	spans, setupSpans map[string]time.Duration
	// Work counters over the replayed ops: pipeline runs (memo misses)
	// with their flows, pairs and ELB-pruned pairs summed, and range
	// queries with the ids they returned.
	runs, flows, pairs, elb int
	queries, ids            int
	replayed                int // WAL records replayed at setup
	slowest                 []*obs.Span
}

type replayer struct {
	traced   bool
	ctx      context.Context
	reg      *session.Registry
	pipes    map[*session.Session]*neat.Pipeline
	indexed  map[*session.Snapshot]bool
	store    *persist.Store
	lastCkpt uint64
	logging  bool // append ingests to store (after setup)
	st       replayStats
}

// replay runs one pass. maxOps < 0 replays ops until budget of op time
// is spent; otherwise exactly maxOps ops. prepared, for the durable
// workload, is a pristine copy of the server's data directory as setup
// left it; the pass works on its own copy under scratch.
func replay(pl *plan, traced bool, maxOps int, budget time.Duration, prepared, scratch string) (replayStats, error) {
	obsReg := obs.NewRegistry()
	reg, err := session.NewRegistry(session.Options{
		Graph: pl.graph,
		// The server's defaults: 4 data nodes, batch cap 10000, serial
		// Phase 3, per-session window seeded at the global cap of 16.
		Session: session.Config{DataNodes: 4, MaxBatch: 10000, MaxInflight: 16, Obs: obsReg},
	})
	if err != nil {
		return replayStats{}, err
	}
	defer reg.Close()
	r := &replayer{
		traced: traced, ctx: context.Background(), reg: reg,
		pipes:   map[*session.Session]*neat.Pipeline{},
		indexed: map[*session.Snapshot]bool{},
		st:      replayStats{spans: map[string]time.Duration{}, setupSpans: map[string]time.Duration{}},
	}
	root := r.span("setup")
	start := time.Now()
	if prepared != "" {
		dir, err := os.MkdirTemp(scratch, "replay-")
		if err != nil {
			return replayStats{}, err
		}
		defer os.RemoveAll(dir)
		if err := copyFiles(prepared, dir); err != nil {
			return replayStats{}, err
		}
		sp := root.StartChild("persist.open")
		store, err := persist.Open(persist.Options{Dir: dir, Fsync: persist.FsyncAlways, Obs: obsReg})
		if err != nil {
			return replayStats{}, err
		}
		defer store.Abort()
		seq, _, _ := store.Checkpoint()
		err = store.Replay(seq, func(uint64, traj.Dataset) error { r.st.replayed++; return nil })
		sp.End()
		if err != nil {
			return replayStats{}, err
		}
		r.store, r.lastCkpt = store, seq
	}
	for _, t := range pl.tenants {
		if t.create != nil {
			if err := r.createSession(t.create); err != nil {
				return replayStats{}, err
			}
		}
		for _, s := range append(t.preload[:len(t.preload):len(t.preload)], t.warm...) {
			if err := r.exec(root, s); err != nil {
				return replayStats{}, fmt.Errorf("replay setup: %w", err)
			}
		}
	}
	r.st.setupTime = time.Since(start)
	root.End()
	addSpans(r.st.setupSpans, root)
	r.logging = r.store != nil
	// The work counters describe the replayed ops, not the warm-ups.
	r.st.runs, r.st.flows, r.st.pairs, r.st.elb, r.st.queries, r.st.ids = 0, 0, 0, 0, 0, 0

	for i, o := range pl.ops {
		if (maxOps >= 0 && i >= maxOps) || (maxOps < 0 && r.st.opTime >= budget) {
			break
		}
		root := r.span("op")
		root.Annotate("op", i)
		start := time.Now()
		for _, s := range o.steps {
			root.Annotate("req", s.method+" "+s.path)
			if err := r.exec(root, s); err != nil {
				return replayStats{}, fmt.Errorf("replay op %d: %w", i, err)
			}
		}
		r.st.opTime += time.Since(start)
		r.st.ops++
		root.End()
		if traced {
			addSpans(r.st.spans, root)
			r.keepSlowest(root)
		}
	}
	return r.st, nil
}

func (r *replayer) span(name string) *obs.Span {
	if !r.traced {
		return nil
	}
	return obs.StartSpan(name)
}

func addSpans(into map[string]time.Duration, sp *obs.Span) {
	for _, c := range sp.Children() {
		into[c.Name()] += c.Duration()
		addSpans(into, c)
	}
}

func (r *replayer) keepSlowest(sp *obs.Span) {
	r.st.slowest = append(r.st.slowest, sp)
	sort.Slice(r.st.slowest, func(i, j int) bool { return r.st.slowest[i].Duration() > r.st.slowest[j].Duration() })
	if len(r.st.slowest) > slowestTrees {
		r.st.slowest = r.st.slowest[:slowestTrees]
	}
}

// createSession mirrors POST /v1/sessions: the session's network comes
// from the mapgen preset, as the server generates it.
func (r *replayer) createSession(body []byte) error {
	var req server.CreateSessionRequest
	if err := json.Unmarshal(body, &req); err != nil {
		return err
	}
	g, err := mapgen.Generate(mapgen.Presets()[req.Region].Scaled(req.Scale))
	if err != nil {
		return err
	}
	_, err = r.reg.Create(req.Name, g, session.CreateOptions{})
	return err
}

func (r *replayer) exec(root *obs.Span, s step) error {
	u, err := url.Parse(s.path)
	if err != nil {
		return err
	}
	q := u.Query()
	sess, err := r.reg.Get(q.Get("session"))
	if err != nil {
		return err
	}
	sp := root.StartChild("guard.admit")
	if !sess.Acquire(r.ctx) {
		return fmt.Errorf("session %q shed the request", sess.Name())
	}
	sp.End()
	defer sess.Release()
	switch s.route {
	case routeIngest:
		return r.ingest(root, sess, s.body)
	case routeCluster:
		return r.cluster(root, sess, q)
	case routeQuery:
		return r.query(root, sess, q)
	case routeStats:
		sn := sess.Current()
		sp := root.StartChild("server.encode_stats")
		_, err := json.Marshal(server.StatsResponse{Trajectories: len(sn.Trajs), TotalFragments: len(sn.Fragments), Session: sess.Name()})
		sp.End()
		return err
	}
	return fmt.Errorf("replay: unknown route %q", s.route)
}

// ingest mirrors POST /v1/trajectories: decode, the two rate-limit
// gates, the data-node preprocessing (measured as its own call), the
// transactional commit, and for the durable workload the WAL append and
// periodic checkpoint the server performs inside its commit.
func (r *replayer) ingest(root *obs.Span, sess *session.Session, body []byte) error {
	sp := root.StartChild("server.decode_ingest")
	var req server.IngestRequest
	err := json.Unmarshal(body, &req)
	sp.End()
	if err != nil {
		return err
	}
	sp = root.StartChild("guard.admit")
	points := 0
	for _, t := range req.Trajectories {
		points += len(t.Points)
	}
	okReq, _ := sess.Guard().AllowRequest()
	okPts, _ := sess.Guard().AllowPoints(points)
	sp.End()
	if !okReq || !okPts {
		return fmt.Errorf("session %q rate-limited the ingest", sess.Name())
	}
	ids := make([]traj.ID, len(req.Trajectories))
	for i, t := range req.Trajectories {
		ids[i] = traj.ID(t.ID)
	}
	convert := func(i int) (traj.Trajectory, error) { return toTrajectory(req.Trajectories[i], sess.Graph()) }
	sp = root.StartChild("traj.partition")
	_, trajs, err := sess.Preprocess(r.ctx, len(ids), convert)
	sp.End()
	if err != nil {
		return err
	}
	sp = root.StartChild("session.ingest")
	_, err = sess.Ingest(r.ctx, ids, convert)
	sp.End()
	if err != nil || !r.logging {
		return err
	}
	sn := sess.Current()
	sp = root.StartChild("persist.append")
	err = r.store.AppendBatch(sn.Version-1, traj.Dataset{Trajectories: trajs})
	sp.End()
	if err != nil || sn.Version-r.lastCkpt < uint64(r.store.CheckpointEvery()) {
		return err
	}
	sp = root.StartChild("persist.encode")
	payload := persist.EncodeServerState(persist.ServerState{Batches: sn.Version, Trajs: sn.Trajs, Fragments: sn.Fragments})
	sp.End()
	sp = root.StartChild("persist.checkpoint")
	err = r.store.WriteCheckpoint(sn.Version, payload)
	sp.End()
	r.lastCkpt = sn.Version
	return err
}

// cluster mirrors GET /v1/clusters at level opt: the snapshot memo,
// then on a miss a pipeline run over the snapshot's fragments, and the
// JSON encode of the response.
func (r *replayer) cluster(root *obs.Span, sess *session.Session, q url.Values) error {
	cfg, err := clusterConfig(q, sess.Cache())
	if err != nil {
		return err
	}
	sn := sess.Current()
	key := fmt.Sprintf("%d|%g|%d", neat.LevelOpt, cfg.Refine.Epsilon, cfg.Flow.MinCard)
	resp, hit := sn.Result(key)
	if !hit {
		plan, err := neat.NewPlan(cfg, neat.LevelOpt, neat.FromFragments, neat.Exec{})
		if err != nil {
			return err
		}
		pipe := r.pipes[sess]
		if pipe == nil {
			pipe = neat.NewPipeline(sess.Graph())
			pipe.EnableTracing(r.traced)
			r.pipes[sess] = pipe
		}
		res, err := pipe.RunPlanCtx(r.ctx, plan, neat.Input{Fragments: sn.Fragments})
		if err != nil {
			return err
		}
		root.Adopt(res.Trace)
		resp = clusterResponse(sess.Graph(), res)
		sn.StoreResult(key, resp)
		r.st.runs++
		r.st.flows += len(res.Flows)
		r.st.pairs += res.RefineStats.Pairs
		r.st.elb += res.RefineStats.ELBPruned
	}
	sp := root.StartChild("server.encode_cluster")
	_, err = json.Marshal(resp)
	sp.End()
	return err
}

// query mirrors GET /v1/trajectories/query: the snapshot's lazily built
// index (its first build timed on its own), the range query, and the
// encode.
func (r *replayer) query(root *obs.Span, sess *session.Session, q url.Values) error {
	var v [6]float64
	for i, name := range []string{"x0", "y0", "x1", "y1", "t0", "t1"} {
		f, err := strconv.ParseFloat(q.Get(name), 64)
		if err != nil {
			return err
		}
		v[i] = f
	}
	sn := sess.Current()
	name := "trajindex.get"
	if !r.indexed[sn] {
		name, r.indexed[sn] = "trajindex.build", true
	}
	sp := root.StartChild(name)
	idx, err := sn.Index(sess.Graph())
	sp.End()
	if err != nil {
		return err
	}
	sp = root.StartChild("trajindex.query")
	ids := idx.Query(geo.RectFromPoints(geo.Pt(v[0], v[1]), geo.Pt(v[2], v[3])), v[4], v[5])
	sp.End()
	out := server.QueryResponse{Count: len(ids)}
	for _, id := range ids {
		out.IDs = append(out.IDs, int32(id))
	}
	sp = root.StartChild("server.encode_query")
	_, err = json.Marshal(out)
	sp.End()
	r.st.queries++
	r.st.ids += len(ids)
	return err
}

// copyFiles copies the regular files of src (flat: the default
// session's data directory has no subdirectories) into dst.
func copyFiles(src, dst string) error {
	entries, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, e := range entries {
		if !e.Type().IsRegular() {
			continue
		}
		data, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), data, 0o644); err != nil {
			return err
		}
	}
	return nil
}

// writeTrees renders the span trees of the slowest replayed ops.
func writeTrees(w io.Writer, st replayStats) {
	fmt.Fprintf(w, "span trees of the %d slowest replayed ops:\n", len(st.slowest))
	for _, sp := range st.slowest {
		sp.WriteTree(w)
	}
}
