package main

import (
	"encoding/json"
	"fmt"
	"net/url"
	"strconv"

	"repro/internal/distcache"
	"repro/internal/geo"
	"repro/internal/mapgen"
	"repro/internal/neat"
	"repro/internal/persist"
	"repro/internal/roadnet"
	"repro/internal/server"
	"repro/internal/shortest"
	"repro/internal/traj"
	"repro/internal/trajindex"
)

// model is the correctness gate's reference. It rebuilds each tenant's
// dataset from the requests alone, through the layers' own functions —
// the wire conversion, one sequential partitioner, the NEAT pipeline,
// the trajectory index — and shares no server, session, snapshot, memo
// or persistence code with what it checks. A serving-stack bug that is
// deterministic (a snapshot published late, a memo keyed wrongly, a
// batch recovered twice) therefore still shows as a difference.
type model struct {
	tenants map[string]*modelTenant // by ?session= value; "" is the default
}

type modelTenant struct {
	name    string
	g       *roadnet.Graph
	part    *traj.Partitioner
	cache   *distcache.Cache
	trajs   []traj.Trajectory
	frags   []traj.TFragment
	batches uint64

	idx        *trajindex.Index
	idxBatches uint64 // the state idx was built at
}

// newModel creates the plan's tenants and applies their preloads.
func newModel(pl *plan) (*model, error) {
	m := &model{tenants: map[string]*modelTenant{}}
	for i, t := range pl.tenants {
		name, g := "", pl.graph
		if t.create != nil {
			var req server.CreateSessionRequest
			if err := json.Unmarshal(t.create, &req); err != nil {
				return nil, err
			}
			var err error
			if g, err = mapgen.Generate(mapgen.Presets()[req.Region].Scaled(req.Scale)); err != nil {
				return nil, err
			}
			name = req.Name
		} else if i != 0 {
			return nil, fmt.Errorf("model: tenant %d has no session", i)
		}
		label := name
		if label == "" {
			label = "default"
		}
		m.tenants[name] = &modelTenant{
			name: label, g: g,
			part:  traj.NewPartitioner(g, shortest.New(g, nil)),
			cache: distcache.New(0),
		}
		for _, s := range t.preload {
			if _, err := m.ingest(s); err != nil {
				return nil, err
			}
		}
	}
	return m, nil
}

func (m *model) tenant(path string) (*modelTenant, url.Values, error) {
	u, err := url.Parse(path)
	if err != nil {
		return nil, nil, err
	}
	q := u.Query()
	t, ok := m.tenants[q.Get("session")]
	if !ok {
		return nil, nil, fmt.Errorf("model: unknown session %q", q.Get("session"))
	}
	return t, q, nil
}

// ingest applies one batch and returns the acknowledgement the server
// owes for it.
func (m *model) ingest(s step) (server.IngestResponse, error) {
	t, _, err := m.tenant(s.path)
	if err != nil {
		return server.IngestResponse{}, err
	}
	var req server.IngestRequest
	if err := json.Unmarshal(s.body, &req); err != nil {
		return server.IngestResponse{}, err
	}
	before := len(t.frags)
	for _, dto := range req.Trajectories {
		tr, err := toTrajectory(dto, t.g)
		if err != nil {
			return server.IngestResponse{}, err
		}
		frags, err := t.part.Partition(tr)
		if err != nil {
			return server.IngestResponse{}, err
		}
		t.trajs = append(t.trajs, tr)
		t.frags = append(t.frags, frags...)
	}
	t.batches++
	return server.IngestResponse{Accepted: len(req.Trajectories), Fragments: len(t.frags) - before, TotalFragments: len(t.frags)}, nil
}

// answer is the read's correct response for the model's current state,
// in normalize's form.
func (m *model) answer(s step) ([]byte, error) {
	t, q, err := m.tenant(s.path)
	if err != nil {
		return nil, err
	}
	switch s.route {
	case routeCluster:
		cfg, err := clusterConfig(q, t.cache)
		if err != nil {
			return nil, err
		}
		plan, err := neat.NewPlan(cfg, neat.LevelOpt, neat.FromFragments, neat.Exec{})
		if err != nil {
			return nil, err
		}
		res, err := neat.NewPipeline(t.g).RunPlan(plan, neat.Input{Fragments: t.frags})
		if err != nil {
			return nil, err
		}
		return json.Marshal(clusterResponse(t.g, res))
	case routeQuery:
		var v [6]float64
		for i, name := range []string{"x0", "y0", "x1", "y1", "t0", "t1"} {
			if v[i], err = strconv.ParseFloat(q.Get(name), 64); err != nil {
				return nil, err
			}
		}
		if t.idx == nil || t.idxBatches != t.batches {
			// The server's cell size: the average segment length.
			if t.idx, err = trajindex.New(traj.Dataset{Trajectories: t.trajs}, t.g.TotalLength()/float64(t.g.NumSegments())); err != nil {
				return nil, err
			}
			t.idxBatches = t.batches
		}
		out := server.QueryResponse{}
		for _, id := range t.idx.Query(geo.RectFromPoints(geo.Pt(v[0], v[1]), geo.Pt(v[2], v[3])), v[4], v[5]) {
			out.IDs = append(out.IDs, int32(id))
		}
		out.Count = len(out.IDs)
		return json.Marshal(out)
	case routeStats:
		return json.Marshal(statsFields(t.name, t.g.NumNodes(), t.g.NumSegments(), len(t.trajs), len(t.frags)))
	}
	return nil, fmt.Errorf("model: no answer for route %q", s.route)
}

// state is the default tenant's dataset in checkpoint encoding.
func (m *model) state() []byte {
	t := m.tenants[""]
	return persist.EncodeServerState(persist.ServerState{Batches: t.batches, Trajs: t.trajs, Fragments: t.frags})
}

// clusterConfig is the configuration GET /v1/clusters runs at level
// opt: the server's defaults (ε 6500 m, minCard 5, ELB and bounded
// expansion, serial) overridden by ?eps= and ?mincard=.
func clusterConfig(q url.Values, cache *distcache.Cache) (neat.Config, error) {
	cfg := neat.Config{
		Flow:   neat.FlowConfig{Weights: neat.WeightsFlowOnly, MinCard: 5},
		Refine: neat.RefineConfig{Epsilon: 6500, UseELB: true, Bounded: true, Cache: cache},
	}
	if v := q.Get("eps"); v != "" {
		eps, err := strconv.ParseFloat(v, 64)
		if err != nil {
			return cfg, err
		}
		cfg.Refine.Epsilon = eps
	}
	if v := q.Get("mincard"); v != "" {
		mc, err := strconv.Atoi(v)
		if err != nil {
			return cfg, err
		}
		cfg.Flow.MinCard = mc
	}
	return cfg, nil
}

// statsFields are the dataset fields of a stats response: the rest
// describes the server's history, not the data.
func statsFields(session string, junctions, segments, trajs, frags int) []any {
	return []any{session, junctions, segments, trajs, frags}
}

// toTrajectory is the server's wire-to-model conversion.
func toTrajectory(dto server.TrajectoryDTO, g *roadnet.Graph) (traj.Trajectory, error) {
	tr := traj.Trajectory{ID: traj.ID(dto.ID)}
	for i, p := range dto.Points {
		if p.Seg < 0 || int(p.Seg) >= g.NumSegments() {
			return traj.Trajectory{}, fmt.Errorf("trajectory %d point %d: unknown segment %d", dto.ID, i, p.Seg)
		}
		tr.Points = append(tr.Points, traj.Sample(roadnet.SegID(p.Seg), geo.Pt(p.X, p.Y), p.Time))
	}
	return tr, tr.Validate()
}

// clusterResponse renders a result the way the server does.
func clusterResponse(g *roadnet.Graph, res *neat.Result) server.ClusterResponse {
	flow := func(f *neat.FlowCluster) server.FlowDTO {
		dto := server.FlowDTO{RouteLength: f.RouteLength(g), Cardinality: f.Cardinality(), Density: f.Density()}
		for _, seg := range f.Route {
			dto.Route = append(dto.Route, int32(seg))
		}
		return dto
	}
	out := server.ClusterResponse{Level: res.Level.String(), BaseClusters: len(res.BaseClusters)}
	for _, f := range res.Flows {
		out.Flows = append(out.Flows, flow(f))
	}
	for _, c := range res.Clusters {
		dto := server.ClusterDTO{Cardinality: c.Cardinality()}
		for _, f := range c.Flows {
			dto.Flows = append(dto.Flows, flow(f))
		}
		out.Clusters = append(out.Clusters, dto)
	}
	return out
}
