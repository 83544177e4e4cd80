package main

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"sort"
	"strconv"
	"time"

	"repro/internal/experiments"
	"repro/internal/geo"
	"repro/internal/mobisim"
	"repro/internal/roadnet"
	"repro/internal/server"
	"repro/internal/traj"
)

// Workload inputs come from the repository's own generators: road
// networks from mapgen presets and trips from mobisim, through
// experiments.Env. The trip pools, and the order trips arrive in, are
// fixed; --seed drives the arrival times and the parameters of each
// read. That keeps run-to-run spread down to what the server and its
// host do.
const (
	mainScale    = 0.5  // ATL@0.5: 4593 segments
	tenantScale  = 0.2  // the read_mix tenants t1..t3
	preloadTrajs = 1000 // trajectories standing before the load starts
	tenantTrajs  = 150
	batchSize    = 50 // trajectories per preload POST
)

// Routes, as the load generator and the replay dispatch them.
const (
	routeIngest  = "ingest"
	routeCluster = "cluster"
	routeQuery   = "query"
	routeStats   = "stats"
)

// step is one HTTP request. Steps of an op run in order on one
// connection; the bodies are marshalled while the schedule is built, so
// the measured window contains no client-side encoding.
type step struct {
	method, path, route string
	body                []byte
	// keep retains the response body for the correctness gate: every
	// ingest (commit order) and a fixed sample of reads.
	keep bool
}

// op is one arrival of the open-loop schedule.
type op struct {
	due   time.Duration // offset from the start of the load
	steps []step
}

// tenant is one session's setup: its creation (nil for the default
// session), its preload, and the reads that warm its memo, distance
// cache and index before the load.
type tenant struct {
	create  []byte
	preload []step
	warm    []step
}

// plan is everything a workload sends, generated before the server
// opens.
type plan struct {
	graph   *roadnet.Graph // the default session's road network
	tenants []tenant
	ops     []op
	// pool fingerprints the seed-independent inputs: the road networks
	// and every trip the workload can draw.
	pool uint64
}

type workload struct {
	name string
	why  string
	// rate is the mean arrival rate, ops per second. The rates keep the
	// single-flight clustering pipeline at or below about 25% busy:
	// higher utilisation amplifies run-to-run noise through queueing.
	rate    float64
	durable bool
	// sample is how many reads the correctness gate replays.
	sample int
	// build generates the inputs for the given arrival times; rng draws
	// any per-op parameters.
	build func(p *pools, rng *rand.Rand, dues []time.Duration) (*plan, error)
}

var workloads = []*workload{
	{
		name: "ingest_durable", rate: 10, durable: true,
		why:   "WAL append and fsync on every batch, with every 8th ingest checkpointing the whole dataset inline; no clustering runs",
		build: buildIngestDurable,
	},
	{
		name: "fresh_clusters", rate: 10, sample: 8,
		why:   "each round ingests then reads default clusters, so every read misses the snapshot memo and reruns Phases 1-3",
		build: buildFreshClusters,
	},
	{
		name: "param_sweep", rate: 6, sample: 8,
		why:   "static uniform trips read at 150 distinct (eps, mincard) keys, so Phase 3 with its eps-graph and DBSCAN takes a real share",
		build: buildParamSweep,
	},
	{
		name: "read_mix", rate: 600, sample: 48,
		why:   "four static tenants read through warm memos: JSON encode, routing, admission, trajindex and the obs middleware dominate",
		build: buildReadMix,
	},
}

func workloadByName(name string) (*workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return nil, false
}

// pools lazily generates and caches the trip pools; built once per
// process and shared by every workload run in it.
type pools struct {
	main, tenants *experiments.Env
	uniform       []traj.Trajectory
}

func newPools() (*pools, error) {
	m, err := experiments.NewEnv(mainScale)
	if err != nil {
		return nil, err
	}
	t, err := experiments.NewEnv(tenantScale)
	if err != nil {
		return nil, err
	}
	return &pools{main: m, tenants: t}, nil
}

// hotspot returns ATL@0.5 and 2500 hotspot trips (the paper's trip
// model): the first preloadTrajs are the preload, the rest arrive
// during the load.
func (p *pools) hotspot() (*roadnet.Graph, []traj.Trajectory, error) {
	g, err := p.main.Graph("ATL")
	if err != nil {
		return nil, nil, err
	}
	ds, err := p.main.Dataset("ATL", 5000)
	if err != nil {
		return nil, nil, err
	}
	return g, ds.Trajectories, nil
}

// uniformTrips returns ATL@0.5 and 1000 trips with uniform endpoints:
// diffuse traffic that yields hundreds of flows instead of about 21.
func (p *pools) uniformTrips() (*roadnet.Graph, []traj.Trajectory, error) {
	g, err := p.main.Graph("ATL")
	if err != nil {
		return nil, nil, err
	}
	if p.uniform == nil {
		cfg := mobisim.DefaultConfig("ATL-uniform", preloadTrajs, 1)
		ds, _, err := mobisim.New(g).SimulateModel(cfg, mobisim.TripUniform)
		if err != nil {
			return nil, nil, err
		}
		p.uniform = ds.Trajectories
	}
	return g, p.uniform, nil
}

// arrivals draws the arrival offsets of a Poisson process at rate per
// second, conditioned on its expected count over the run: that many
// uniform times, sorted. Fixing the count keeps the data volume and the
// sample counts the same for every seed; only the timing varies.
func arrivals(rng *rand.Rand, rate float64, seconds int) []time.Duration {
	out := make([]time.Duration, int(rate*float64(seconds)))
	for i := range out {
		out[i] = time.Duration(rng.Float64() * float64(seconds) * float64(time.Second))
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// stream returns a generator of run-time trips: pool trips in pool
// order, cycling if the run outlasts the pool, renumbered sequentially
// after the preload so pool geometry can be reused under fresh ids.
func stream(pool []traj.Trajectory) func(n int) []traj.Trajectory {
	next := 0
	return func(n int) []traj.Trajectory {
		out := make([]traj.Trajectory, n)
		for i := range out {
			out[i] = pool[next%len(pool)]
			out[i].ID = traj.ID(preloadTrajs + next)
			next++
		}
		return out
	}
}

func ingestStep(session string, trs []traj.Trajectory) step {
	body, err := json.Marshal(server.FromDataset(traj.Dataset{Trajectories: trs}))
	if err != nil {
		panic(err) // plain structs of finite numbers always marshal
	}
	return step{method: "POST", path: "/v1/trajectories" + sessionQuery(session, "?"), route: routeIngest, body: body, keep: true}
}

func getStep(route, path string) step {
	return step{method: "GET", path: path, route: route}
}

// sessionQuery renders ?session=name (or &session=name after sep "&");
// empty for the default session.
func sessionQuery(session, sep string) string {
	if session == "" {
		return ""
	}
	return sep + "session=" + session
}

func preloadSteps(session string, trs []traj.Trajectory) []step {
	var out []step
	for i := 0; i < len(trs); i += batchSize {
		out = append(out, ingestStep(session, trs[i:min(i+batchSize, len(trs))]))
	}
	return out
}

func clusterPath(session string, eps float64, mincard int) string {
	return "/v1/clusters?eps=" + strconv.FormatFloat(eps, 'f', -1, 64) + "&mincard=" + strconv.Itoa(mincard) + sessionQuery(session, "&")
}

// poolHash fingerprints road networks and trip pools.
func poolHash(gs []*roadnet.Graph, trips ...[]traj.Trajectory) uint64 {
	h := fnv.New64a()
	for _, g := range gs {
		h.Write([]byte(g.Fingerprint()))
	}
	for _, trs := range trips {
		body, err := json.Marshal(server.FromDataset(traj.Dataset{Trajectories: trs}))
		if err != nil {
			panic(err)
		}
		h.Write(body)
	}
	return h.Sum64()
}

func buildIngestDurable(p *pools, _ *rand.Rand, dues []time.Duration) (*plan, error) {
	g, trips, err := p.hotspot()
	if err != nil {
		return nil, err
	}
	pl := &plan{
		graph:   g,
		tenants: []tenant{{preload: preloadSteps("", trips[:preloadTrajs])}},
		pool:    poolHash([]*roadnet.Graph{g}, trips),
	}
	next := stream(trips[preloadTrajs:])
	for _, due := range dues {
		pl.ops = append(pl.ops, op{due: due, steps: []step{ingestStep("", next(4))}})
	}
	return pl, nil
}

func buildFreshClusters(p *pools, _ *rand.Rand, dues []time.Duration) (*plan, error) {
	g, trips, err := p.hotspot()
	if err != nil {
		return nil, err
	}
	pl := &plan{
		graph: g,
		tenants: []tenant{{
			preload: preloadSteps("", trips[:preloadTrajs]),
			warm:    []step{getStep(routeCluster, "/v1/clusters")},
		}},
		pool: poolHash([]*roadnet.Graph{g}, trips),
	}
	next := stream(trips[preloadTrajs:])
	for _, due := range dues {
		pl.ops = append(pl.ops, op{due: due, steps: []step{
			ingestStep("", next(2)),
			getStep(routeCluster, "/v1/clusters"),
		}})
	}
	return pl, nil
}

// sweepWarmEps is the ε the distance cache is warmed at; the sweep
// itself stays below it so no key repeats a warm-up key (a repeat
// would hit the snapshot memo).
const sweepWarmEps = 1500

func buildParamSweep(p *pools, rng *rand.Rand, dues []time.Duration) (*plan, error) {
	g, trips, err := p.uniformTrips()
	if err != nil {
		return nil, err
	}
	t := tenant{preload: preloadSteps("", trips)}
	for mc := 3; mc <= 5; mc++ {
		t.warm = append(t.warm, getStep(routeCluster, clusterPath("", sweepWarmEps, mc)))
	}
	pl := &plan{graph: g, tenants: []tenant{t}, pool: poolHash([]*roadnet.Graph{g}, trips)}
	// 150 distinct keys in seeded order. At the default duration a run
	// reads each exactly once: every read misses the memo, and every
	// seed does the same work in a different order.
	var keys []string
	for eps := 500; eps < sweepWarmEps; eps += 20 {
		for mc := 3; mc <= 5; mc++ {
			keys = append(keys, clusterPath("", float64(eps), mc))
		}
	}
	rng.Shuffle(len(keys), func(i, j int) { keys[i], keys[j] = keys[j], keys[i] })
	for i, due := range dues {
		pl.ops = append(pl.ops, op{due: due, steps: []step{getStep(routeCluster, keys[i%len(keys)])}})
	}
	return pl, nil
}

// readMixTenant is one read_mix session: its name ("" = default), and
// where its road network and trips come from.
type readMixTenant struct {
	name, region string
	g            *roadnet.Graph
	trips        []traj.Trajectory
	keys         []string // the warm cluster keys
	extent       geo.Rect
	t0, t1       float64
}

func buildReadMix(p *pools, rng *rand.Rand, dues []time.Duration) (*plan, error) {
	g, trips, err := p.hotspot()
	if err != nil {
		return nil, err
	}
	ts := []*readMixTenant{{region: "ATL", g: g, trips: trips[:preloadTrajs]}}
	for i, region := range []string{"SJ", "MIA", "ATL"} {
		tg, err := p.tenants.Graph(region)
		if err != nil {
			return nil, err
		}
		ds, err := p.tenants.Dataset(region, 750) // 150 trips at scale 0.2
		if err != nil {
			return nil, err
		}
		ts = append(ts, &readMixTenant{name: fmt.Sprintf("t%d", i+1), region: region, g: tg, trips: ds.Trajectories[:tenantTrajs]})
	}
	pl := &plan{graph: g}
	var gs []*roadnet.Graph
	var all [][]traj.Trajectory
	for _, t := range ts {
		gs, all = append(gs, t.g), append(all, t.trips)
		t.extent, t.t0, t.t1 = dataExtent(t.trips)
		// Two warm keys per tenant, eight in all: the default
		// parameters and a tighter ε with a lower minCard.
		t.keys = []string{"/v1/clusters" + sessionQuery(t.name, "?"), clusterPath(t.name, 1500, 3)}
		tn := tenant{preload: preloadSteps(t.name, t.trips)}
		if t.name != "" {
			body, err := json.Marshal(server.CreateSessionRequest{Name: t.name, Region: t.region, Scale: tenantScale})
			if err != nil {
				return nil, err
			}
			tn.create = body
		}
		for _, k := range t.keys {
			tn.warm = append(tn.warm, getStep(routeCluster, k))
		}
		// One query builds the snapshot's index during setup.
		tn.warm = append(tn.warm, getStep(routeQuery, queryPath(t, rand.New(rand.NewSource(0)))))
		pl.tenants = append(pl.tenants, tn)
	}
	pl.pool = poolHash(gs, all...)
	// Tenant split 40/20/20/20; route mix 60% clusters over the tenant's
	// warm keys, 25% range queries, 15% stats.
	for _, due := range dues {
		t := ts[0]
		if r := rng.Float64(); r >= 0.4 {
			t = ts[1+int((r-0.4)/0.2)]
		}
		var s step
		switch r := rng.Float64(); {
		case r < 0.60:
			s = getStep(routeCluster, t.keys[rng.Intn(len(t.keys))])
		case r < 0.85:
			s = getStep(routeQuery, queryPath(t, rng))
		default:
			s = getStep(routeStats, "/v1/stats"+sessionQuery(t.name, "?"))
		}
		pl.ops = append(pl.ops, op{due: due, steps: []step{s}})
	}
	return pl, nil
}

// dataExtent is the bounding box and time span of the trips.
func dataExtent(trs []traj.Trajectory) (geo.Rect, float64, float64) {
	box, t0, t1 := geo.EmptyRect(), math.Inf(1), math.Inf(-1)
	for _, tr := range trs {
		for _, pt := range tr.Points {
			box = box.Extend(pt.Pt)
			t0, t1 = math.Min(t0, pt.Time), math.Max(t1, pt.Time)
		}
	}
	return box, t0, t1
}

// queryPath draws a range query of 300-1500 m sides and a 120-600 s
// window inside the tenant's data extent: drawn map-wide, almost every
// query would come back empty.
func queryPath(t *readMixTenant, rng *rand.Rand) string {
	w, h := 300+1200*rng.Float64(), 300+1200*rng.Float64()
	span := 120 + 480*rng.Float64()
	x0 := t.extent.Min.X + rng.Float64()*math.Max(0, t.extent.Max.X-t.extent.Min.X-w)
	y0 := t.extent.Min.Y + rng.Float64()*math.Max(0, t.extent.Max.Y-t.extent.Min.Y-h)
	t0 := t.t0 + rng.Float64()*math.Max(0, t.t1-t.t0-span)
	f := func(v float64) string { return strconv.FormatFloat(v, 'f', 1, 64) }
	return "/v1/trajectories/query?x0=" + f(x0) + "&y0=" + f(y0) + "&x1=" + f(x0+w) + "&y1=" + f(y0+h) +
		"&t0=" + f(t0) + "&t1=" + f(t0+span) + sessionQuery(t.name, "&")
}

// markSamples flags a fixed, evenly spaced sample of n reads whose
// responses the correctness gate replays.
func (pl *plan) markSamples(n int) {
	if n == 0 || len(pl.ops) == 0 {
		return
	}
	stride := max(1, len(pl.ops)/n)
	for i := 0; i < len(pl.ops); i += stride {
		steps := pl.ops[i].steps
		steps[len(steps)-1].keep = true
	}
}

// fingerprint is an FNV-64a hash of everything the workload sends: the
// setup requests, then each op's due time, method, path and body.
func (pl *plan) fingerprint() uint64 {
	h := fnv.New64a()
	var buf [8]byte
	write := func(s step) {
		h.Write([]byte(s.method + " " + s.path + "\n"))
		h.Write(s.body)
		h.Write([]byte{0})
	}
	for _, t := range pl.tenants {
		h.Write(t.create)
		for _, s := range t.preload {
			write(s)
		}
		for _, s := range t.warm {
			write(s)
		}
	}
	for _, o := range pl.ops {
		binary.LittleEndian.PutUint64(buf[:], uint64(o.due))
		h.Write(buf[:])
		for _, s := range o.steps {
			write(s)
		}
	}
	return h.Sum64()
}

// buildPlan generates a workload's inputs for one seed and duration.
func buildPlan(w *workload, p *pools, seed int64, seconds int) (*plan, error) {
	rng := rand.New(rand.NewSource(seed))
	pl, err := w.build(p, rng, arrivals(rng, w.rate, seconds))
	if err != nil {
		return nil, fmt.Errorf("%s: generate inputs: %w", w.name, err)
	}
	pl.markSamples(w.sample)
	return pl, nil
}
