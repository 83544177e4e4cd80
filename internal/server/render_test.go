package server

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/experiments"
	"repro/internal/fault"
	"repro/internal/guard"
	"repro/internal/mobisim"
	"repro/internal/neat"
	"repro/internal/roadnet"
	"repro/internal/session"
	"repro/internal/traj"
)

// flowDTO and clusterResponse build a read's response the way the
// handler did before it rendered bodies by hand: DTO values, encoded by
// encoding/json. They stay here as the reference the served bytes are
// held to.
func flowDTO(g *roadnet.Graph, f *neat.FlowCluster) FlowDTO {
	dto := FlowDTO{
		RouteLength: f.RouteLength(g),
		Cardinality: f.Cardinality(),
		Density:     f.Density(),
	}
	for _, seg := range f.Route {
		dto.Route = append(dto.Route, int32(seg))
	}
	return dto
}

func clusterResponse(g *roadnet.Graph, res *neat.Result, baseClusters int) ClusterResponse {
	resp := ClusterResponse{Level: res.Level.String(), BaseClusters: baseClusters}
	for _, f := range res.Flows {
		resp.Flows = append(resp.Flows, flowDTO(g, f))
	}
	for _, c := range res.Clusters {
		dto := ClusterDTO{Cardinality: c.Cardinality()}
		for _, f := range c.Flows {
			dto.Flows = append(dto.Flows, flowDTO(g, f))
		}
		resp.Clusters = append(resp.Clusters, dto)
	}
	return resp
}

// encodeReference is what the handler wrote for v before: the bytes of
// json.NewEncoder(w).Encode(v).
func encodeReference(v ClusterResponse) ([]byte, error) {
	var buf bytes.Buffer
	err := json.NewEncoder(&buf).Encode(v)
	return buf.Bytes(), err
}

// bodyOf is v with each flow's object encoded as encodeFlow encodes
// it, ready for render.
func bodyOf(v ClusterResponse) (clusterBody, error) {
	objects := func(flows []FlowDTO) ([][]byte, error) {
		if flows == nil {
			return nil, nil
		}
		out := make([][]byte, len(flows))
		for i, f := range flows {
			b, err := json.Marshal(f)
			if err != nil {
				return nil, err
			}
			out[i] = b
		}
		return out, nil
	}
	b := clusterBody{level: v.Level, baseClusters: v.BaseClusters, elapsedMs: v.ElapsedMs}
	var err error
	if b.flows, err = objects(v.Flows); err != nil {
		return b, err
	}
	for _, c := range v.Clusters {
		objs, err := objects(c.Flows)
		if err != nil {
			return b, err
		}
		b.clusters = append(b.clusters, bodyCluster{flows: objs, cardinality: c.Cardinality})
	}
	return b, nil
}

// checkRender fails t unless render and encoding/json both reject v,
// or both accept it with the same bytes, in a slice of exactly that
// length. It checks v fresh and flagged stale: the stale form, as the
// server serves it, is the stale splice of the fresh body. It returns
// whether encoding/json accepted v.
func checkRender(t *testing.T, v ClusterResponse) bool {
	t.Helper()
	v.Stale = false
	want, wantErr := encodeReference(v)
	b, err := bodyOf(v)
	var got []byte
	if err == nil {
		got, err = b.render()
	}
	switch {
	case (err == nil) != (wantErr == nil):
		t.Fatalf("%+v: render error %v, encoding/json error %v", v, err, wantErr)
	case err != nil:
		return false
	case !bytes.Equal(got, want):
		t.Fatalf("%+v:\nrender        %q\nencoding/json %q", v, got, want)
	case cap(got) != len(got):
		t.Fatalf("%+v: body of %d bytes in a slice of capacity %d", v, len(got), cap(got))
	}
	v.Stale = true
	want, _ = encodeReference(v)
	if st := staleBody(got); !bytes.Equal(st, want) || cap(st) != len(st) {
		t.Fatalf("%+v: stale splice %q (capacity %d), want %q", v, st, cap(st), want)
	}
	return true
}

// renderCases covers each part of the envelope, the flow objects, and
// the number and string forms encoding/json has rules for.
var renderCases = []struct {
	name string
	v    ClusterResponse
}{
	{"zero", ClusterResponse{}},
	{"base level", ClusterResponse{Level: "base", BaseClusters: 381, ElapsedMs: 0.412}},
	{"flow level", ClusterResponse{Level: "flow", BaseClusters: 12, ElapsedMs: 2.5, Flows: []FlowDTO{
		{Route: []int32{3, 4, 5}, RouteLength: 412.25, Cardinality: 7, Density: 30},
		{Route: []int32{9}, RouteLength: 88, Cardinality: 3, Density: 3},
	}}},
	{"opt level", ClusterResponse{Level: "opt", BaseClusters: 40, ElapsedMs: 17.031,
		Flows: []FlowDTO{{Route: []int32{1, 2}, RouteLength: 301.5, Cardinality: 5, Density: 9}, {Route: []int32{7}, RouteLength: 150, Cardinality: 4, Density: 4}},
		Clusters: []ClusterDTO{
			{Flows: []FlowDTO{{Route: []int32{1, 2}, RouteLength: 301.5, Cardinality: 5, Density: 9}, {Route: []int32{7}, RouteLength: 150, Cardinality: 4, Density: 4}}, Cardinality: 8},
			{Flows: []FlowDTO{{Route: []int32{7}, RouteLength: 150, Cardinality: 4, Density: 4}}, Cardinality: 4},
		}}},
	{"stale", ClusterResponse{Level: "opt", BaseClusters: 2, ElapsedMs: 1, Stale: true,
		Clusters: []ClusterDTO{{Flows: []FlowDTO{{Route: []int32{0}}}, Cardinality: 1}}}},
	{"nil, empty and long routes", ClusterResponse{Level: "flow", Flows: []FlowDTO{
		{Route: nil}, {Route: []int32{}}, {Route: longRoute(600)},
	}}},
	{"empty flow list", ClusterResponse{Level: "flow", Flows: []FlowDTO{}, Clusters: []ClusterDTO{}}},
	{"cluster with nil flows", ClusterResponse{Level: "opt", Clusters: []ClusterDTO{{Flows: nil, Cardinality: 3}}}},
	{"cluster with empty flows", ClusterResponse{Level: "opt", Clusters: []ClusterDTO{{Flows: []FlowDTO{}, Cardinality: 0}, {Cardinality: -1}}}},
	{"float magnitudes", ClusterResponse{Level: "flow", ElapsedMs: 1e21, Flows: []FlowDTO{
		{RouteLength: 1e-7}, {RouteLength: 1e-6}, {RouteLength: 9.99999e-7}, {RouteLength: 1e20},
		{RouteLength: 1e21}, {RouteLength: 1.5e300}, {RouteLength: math.SmallestNonzeroFloat64},
		{RouteLength: math.MaxFloat64}, {RouteLength: -0.0}, {RouteLength: math.Copysign(0, -1)},
		{RouteLength: -1e-9}, {RouteLength: 123456789.123456789}, {RouteLength: 0.1 + 0.2},
	}}},
	{"elapsed below 1e-6", ClusterResponse{Level: "opt", ElapsedMs: 5e-7}},
	{"elapsed at 1e-6", ClusterResponse{Level: "opt", ElapsedMs: 1e-6}},
	{"elapsed of exponent 1e-10", ClusterResponse{Level: "opt", ElapsedMs: 1.25e-10}},
	{"elapsed just below 1e21", ClusterResponse{Level: "opt", ElapsedMs: 999999999999999900000}},
	{"elapsed above 1e21", ClusterResponse{Level: "opt", ElapsedMs: 3.5e22}},
	{"negative zero elapsed", ClusterResponse{Level: "opt", ElapsedMs: math.Copysign(0, -1)}},
	{"negative elapsed", ClusterResponse{Level: "opt", ElapsedMs: -2.75}},
	{"extreme ints", ClusterResponse{Level: "opt", BaseClusters: math.MinInt64,
		Flows:    []FlowDTO{{Route: []int32{math.MinInt32, math.MaxInt32, -1}, Cardinality: math.MaxInt64, Density: math.MinInt64}},
		Clusters: []ClusterDTO{{Flows: []FlowDTO{{Cardinality: -7}}, Cardinality: math.MaxInt64}, {Cardinality: math.MinInt64}},
	}},
	{"large ints", ClusterResponse{Level: "base", BaseClusters: math.MaxInt64}},
	{"html in level", ClusterResponse{Level: "<a href=\"x\">&amp;</a>"}},
	{"line separators in level", ClusterResponse{Level: "a\u2028b\u2029c"}},
	{"invalid UTF-8 in level", ClusterResponse{Level: "opt\xff\xfe\xc0"}},
	{"controls and escapes in level", ClusterResponse{Level: "\x00\x01\b\f\n\r\t\x1f\"\\/\x7f"}},
	{"non-ASCII level", ClusterResponse{Level: "ébène 雪 😀"}},
	{"long level", ClusterResponse{Level: strings.Repeat("opt", 200)}},
	{"NaN elapsed", ClusterResponse{Level: "opt", ElapsedMs: math.NaN()}},
	{"infinite elapsed", ClusterResponse{Level: "opt", ElapsedMs: math.Inf(1)}},
	{"infinite route length", ClusterResponse{Level: "flow", Flows: []FlowDTO{{RouteLength: math.Inf(-1)}}}},
	{"NaN route length in a cluster", ClusterResponse{Level: "opt", Clusters: []ClusterDTO{{Flows: []FlowDTO{{RouteLength: math.NaN()}}}}}},
}

func longRoute(n int) []int32 {
	out := make([]int32, n)
	for i := range out {
		out[i] = int32(i*7919) - 1_000_000
	}
	return out
}

// TestRenderMatchesEncodingJSON runs FuzzEncodeClusters' seeds: every
// case directly, and every case through the fuzz input form.
func TestRenderMatchesEncodingJSON(t *testing.T) {
	for _, c := range renderCases {
		t.Run(c.name, func(t *testing.T) {
			ok := checkRender(t, c.v)
			if enc := encodeFuzzResponse(c.v); !bytes.Equal(encodeFuzzResponse(decodeFuzzResponse(enc)), enc) {
				t.Fatalf("the fuzz form of %+v does not round-trip", c.v)
			}
			if nonFinite := strings.Contains(c.name, "NaN") || strings.Contains(c.name, "infinite"); ok == nonFinite {
				t.Fatalf("encoding/json accepted=%v", ok)
			}
		})
	}
}

// FuzzEncodeClusters is the differential oracle of the rendered body:
// for every ClusterResponse the fuzz input decodes to, render and
// json.NewEncoder(w).Encode either both fail or both give the same
// bytes, and the stale splice gives the stale response's bytes.
func FuzzEncodeClusters(f *testing.F) {
	for _, c := range renderCases {
		f.Add(encodeFuzzResponse(c.v))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		checkRender(t, decodeFuzzResponse(data))
	})
}

// The fuzz input form of a ClusterResponse: level (a 2-byte length and
// its bytes), base_clusters, elapsed_ms's bits and stale, then the
// flows and the clusters, each list led by a 1-byte count (0xff for
// nil). A flow is its route (a 2-byte count, 0xffff for nil, then
// 4-byte segments), the bits of its length, its cardinality and its
// density; a cluster is its flows and its cardinality. Numbers are
// little-endian, input that runs out reads as zeros, and a decoded
// level or route is at most maxFuzzLen long.

const maxFuzzLen = 1023

func encodeFuzzResponse(v ClusterResponse) []byte {
	le := binary.LittleEndian
	out := le.AppendUint16(nil, uint16(len(v.Level)))
	out = append(out, v.Level...)
	out = le.AppendUint64(out, uint64(v.BaseClusters))
	out = le.AppendUint64(out, math.Float64bits(v.ElapsedMs))
	out = append(out, map[bool]byte{false: 0, true: 1}[v.Stale])
	flows := func(fs []FlowDTO) {
		if fs == nil {
			out = append(out, 0xff)
			return
		}
		out = append(out, byte(len(fs)))
		for _, f := range fs {
			if f.Route == nil {
				out = le.AppendUint16(out, 0xffff)
			} else {
				out = le.AppendUint16(out, uint16(len(f.Route)))
			}
			for _, s := range f.Route {
				out = le.AppendUint32(out, uint32(s))
			}
			out = le.AppendUint64(out, math.Float64bits(f.RouteLength))
			out = le.AppendUint64(out, uint64(f.Cardinality))
			out = le.AppendUint64(out, uint64(f.Density))
		}
	}
	flows(v.Flows)
	if v.Clusters == nil {
		out = append(out, 0xff)
	} else {
		out = append(out, byte(len(v.Clusters)))
	}
	for _, c := range v.Clusters {
		flows(c.Flows)
		out = le.AppendUint64(out, uint64(c.Cardinality))
	}
	return out
}

func decodeFuzzResponse(data []byte) ClusterResponse {
	take := func(n int) []byte {
		b := make([]byte, n)
		data = data[copy(b, data):]
		return b
	}
	le := binary.LittleEndian
	u64 := func() uint64 { return le.Uint64(take(8)) }
	v := ClusterResponse{Level: string(take(int(le.Uint16(take(2)) & maxFuzzLen)))}
	v.BaseClusters = int(u64())
	v.ElapsedMs = math.Float64frombits(u64())
	v.Stale = take(1)[0]&1 == 1
	flows := func() []FlowDTO {
		n := take(1)[0]
		if n == 0xff {
			return nil
		}
		fs := make([]FlowDTO, n)
		for i := range fs {
			if k := le.Uint16(take(2)); k != 0xffff {
				fs[i].Route = make([]int32, k&maxFuzzLen)
				for j := range fs[i].Route {
					fs[i].Route[j] = int32(le.Uint32(take(4)))
				}
			}
			fs[i].RouteLength = math.Float64frombits(u64())
			fs[i].Cardinality = int(u64())
			fs[i].Density = int(u64())
		}
		return fs
	}
	v.Flows = flows()
	if n := take(1)[0]; n != 0xff {
		v.Clusters = make([]ClusterDTO, n)
		for i := range v.Clusters {
			v.Clusters[i].Flows = flows()
			v.Clusters[i].Cardinality = int(u64())
		}
	}
	return v
}

// rawRead is one GET's status, headers and raw body.
type rawRead struct {
	code int
	hdr  http.Header
	body []byte
}

func getRaw(t *testing.T, h http.Handler, path string) rawRead {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
	return rawRead{rec.Code, rec.Header(), rec.Body.Bytes()}
}

// checkServed fails t unless r is a 200 JSON body whose bytes are the
// reference encoding of want, with want's elapsed_ms taken from the
// body itself (the one number a test cannot predict), and whose
// Content-Length is its length. It returns want with that elapsed_ms.
func checkServed(t *testing.T, what string, r rawRead, want ClusterResponse) ClusterResponse {
	t.Helper()
	if r.code != http.StatusOK {
		t.Fatalf("%s: %d %s", what, r.code, r.body)
	}
	if ct := r.hdr.Get("Content-Type"); ct != "application/json" {
		t.Fatalf("%s: Content-Type %q", what, ct)
	}
	if cl := r.hdr.Get("Content-Length"); cl != fmt.Sprint(len(r.body)) {
		t.Fatalf("%s: Content-Length %q for a body of %d bytes", what, cl, len(r.body))
	}
	var elapsed struct {
		ElapsedMs float64 `json:"elapsed_ms"`
	}
	if err := json.Unmarshal(r.body, &elapsed); err != nil {
		t.Fatalf("%s: %v", what, err)
	}
	want.ElapsedMs = elapsed.ElapsedMs
	wb, err := encodeReference(want)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(r.body, wb) {
		t.Fatalf("%s: served bytes differ from encoding/json's:\n got %s\nwant %s", what, r.body, wb)
	}
	return want
}

// referenceRead is the response the handler built before for a read of
// the default session's current snapshot at level, ε and minCard: a
// direct FromFragments run over the snapshot's fragments, through the
// DTO builder.
func referenceRead(t *testing.T, s *Server, g *roadnet.Graph, level neat.Level, eps float64, minCard int) ClusterResponse {
	t.Helper()
	cfg := neat.Config{
		Flow:   neat.FlowConfig{Weights: neat.WeightsFlowOnly, MinCard: minCard},
		Refine: neat.RefineConfig{Epsilon: eps, UseELB: true, Bounded: true},
	}
	plan, err := neat.NewPlan(cfg, level, neat.FromFragments, neat.Exec{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := neat.NewPipeline(g).RunPlan(plan, neat.Input{Fragments: s.Sessions().Default().Current().Fragments})
	if err != nil {
		t.Fatal(err)
	}
	return clusterResponse(g, res, len(res.BaseClusters))
}

// TestClusterBodiesMatchEncodingJSON holds the served bytes of every
// /v1/clusters body to json.NewEncoder's encoding of the response the
// handler built before: misses and hits at each level and several
// (ε, minCard) pairs, across ingests, and the stale fallback once the
// session is quarantined. Raw bytes are compared, with Content-Type
// and Content-Length.
func TestClusterBodiesMatchEncodingJSON(t *testing.T) {
	g, ds := testSetup(t)
	clk := guard.NewManualClock(time.Unix(1_700_000_000, 0))
	inj := fault.New(fault.Config{Seed: 4, Points: map[fault.Point]fault.Spec{fault.Ingest: {ErrProb: 1}}})
	inj.SetEnabled(false)
	s := New(g, Config{DataNodes: 2, Fault: inj, Guard: guard.Config{
		Breaker: guard.BreakerConfig{TripAfter: 1, Cooldown: time.Hour},
		Now:     clk.Now,
	}})
	h := s.Handler()
	ingest := func(lo, hi int) {
		t.Helper()
		batch := subset(ds, max(lo, 0), hi)
		if lo < 0 { // a trajectory the session has not seen
			batch = traj.Dataset{Trajectories: []traj.Trajectory{ds.Trajectories[0]}}
			batch.Trajectories[0].ID += 100_000
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/trajectories", marshalIngest(t, batch)))
		if (rec.Code == http.StatusOK) == inj.Enabled() {
			t.Fatalf("ingest [%d, %d) with faults %v: %d %s", lo, hi, inj.Enabled(), rec.Code, rec.Body)
		}
	}
	type read struct {
		level   neat.Level
		eps     float64
		minCard int
	}
	var reads []read
	for _, lv := range []neat.Level{neat.LevelBase, neat.LevelFlow, neat.LevelOpt} {
		for _, p := range []struct {
			eps     float64
			minCard int
		}{{1500, 3}, {900, 2}, {6500, 5}, {300, 0}} {
			reads = append(reads, read{lv, p.eps, p.minCard})
		}
	}
	path := func(r read) string {
		name := map[neat.Level]string{neat.LevelBase: "base", neat.LevelFlow: "flow", neat.LevelOpt: "opt"}[r.level]
		return fmt.Sprintf("/v1/clusters?level=%s&eps=%g&mincard=%d", name, r.eps, r.minCard)
	}
	lastGood := map[read]ClusterResponse{}
	var flows, clusters int
	for _, span := range [][2]int{{0, 20}, {20, 45}, {45, len(ds.Trajectories)}} {
		ingest(span[0], span[1])
		for _, r := range reads {
			want := referenceRead(t, s, g, r.level, r.eps, r.minCard)
			miss := getRaw(t, h, path(r))
			want = checkServed(t, "miss "+path(r), miss, want)
			hit := getRaw(t, h, path(r))
			checkServed(t, "hit "+path(r), hit, want)
			lastGood[r] = want
			flows += len(want.Flows)
			clusters += len(want.Clusters)
		}
	}
	if flows == 0 || clusters == 0 {
		t.Fatalf("the reads served %d flows and %d clusters; the test needs both", flows, clusters)
	}

	inj.SetEnabled(true)
	ingest(-1, 0) // trips the breaker: reads now serve last-good, stale
	for _, r := range reads {
		want := lastGood[r]
		want.Stale = true
		got := checkServed(t, "stale "+path(r), getRaw(t, h, path(r)), want)
		if got.ElapsedMs != lastGood[r].ElapsedMs {
			t.Fatalf("stale %s: elapsed_ms %v, want the miss's %v", path(r), got.ElapsedMs, lastGood[r].ElapsedMs)
		}
	}
	if r := getRaw(t, h, "/v1/clusters?eps=777&mincard=1"); r.code != http.StatusServiceUnavailable {
		t.Fatalf("quarantined read with no last-good: %d %s", r.code, r.body)
	}
}

// TestConcurrentMissesShareFlowObjects runs misses with different keys
// on one snapshot at once (run it under -race): every body must equal
// the reference, and every flow any of them rendered must have its
// object kept on the snapshot, shared by the reads that follow.
func TestConcurrentMissesShareFlowObjects(t *testing.T) {
	g, ds := testSetup(t)
	s := New(g, Config{DataNodes: 2})
	h := s.Handler()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/trajectories", marshalIngest(t, ds)))
	if rec.Code != http.StatusOK {
		t.Fatalf("ingest: %d %s", rec.Code, rec.Body)
	}
	type key struct {
		eps     float64
		minCard int
	}
	var keys []key
	for _, eps := range []float64{600, 1500, 3000, 6500} {
		for mc := 1; mc <= 3; mc++ {
			keys = append(keys, key{eps, mc})
		}
	}
	bodies := make([]rawRead, len(keys))
	var wg sync.WaitGroup
	for i, k := range keys {
		wg.Add(1)
		go func() {
			defer wg.Done()
			w := httptest.NewRecorder()
			h.ServeHTTP(w, httptest.NewRequest(http.MethodGet, fmt.Sprintf("/v1/clusters?eps=%g&mincard=%d", k.eps, k.minCard), nil))
			bodies[i] = rawRead{w.Code, w.Header(), w.Body.Bytes()}
		}()
	}
	wg.Wait()
	for i, k := range keys {
		checkServed(t, fmt.Sprintf("eps=%g mincard=%d", k.eps, k.minCard), bodies[i], referenceRead(t, s, g, neat.LevelOpt, k.eps, k.minCard))
	}

	sess := s.Sessions().Default()
	sn := sess.Current()
	cfg := neat.Config{Flow: neat.FlowConfig{Weights: neat.WeightsFlowOnly, MinCard: 1}}
	fs, err := sess.Flows(context.Background(), sn, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var rendered []*neat.FlowCluster
	for _, f := range fs.Flows {
		if f.Cardinality() >= 1 {
			rendered = append(rendered, f)
		}
	}
	if len(rendered) == 0 {
		t.Fatal("the reads rendered no flow")
	}
	err = sn.FlowObjects(rendered, make([][]byte, len(rendered)), func(f *neat.FlowCluster) ([]byte, error) {
		return nil, fmt.Errorf("flow %v was rendered but its object was not kept", f)
	})
	if err != nil {
		t.Fatal(err)
	}
}

// renderBench is BenchmarkRenderClusters' read: 1,000 uniform ATL@0.5
// trips, as param_sweep preloads, read at ε 1000 and minCard 3 with the
// server's Phase 3 settings.
type renderBench struct {
	g            *roadnet.Graph
	res          *neat.Result
	baseClusters int
}

func newRenderBench(b *testing.B) renderBench {
	env, err := experiments.NewEnv(0.5)
	if err != nil {
		b.Fatal(err)
	}
	g, err := env.Graph("ATL")
	if err != nil {
		b.Fatal(err)
	}
	ds, _, err := mobisim.New(g).SimulateModel(mobisim.DefaultConfig("ATL-uniform", 1000, 1), mobisim.TripUniform)
	if err != nil {
		b.Fatal(err)
	}
	p := neat.NewPipeline(g)
	frags, err := p.Partition(ds)
	if err != nil {
		b.Fatal(err)
	}
	cfg := neat.Config{
		Flow:   neat.FlowConfig{Weights: neat.WeightsFlowOnly, MinCard: 3},
		Refine: neat.RefineConfig{Epsilon: 1000, UseELB: true, Bounded: true, Workers: -1},
	}
	ctx := context.Background()
	fs, _, err := p.BuildFlowSet(ctx, nil, frags, cfg)
	if err != nil {
		b.Fatal(err)
	}
	res, err := p.RunFlowSet(ctx, fs, cfg, neat.LevelOpt)
	if err != nil {
		b.Fatal(err)
	}
	return renderBench{g: g, res: res, baseClusters: fs.BaseClusters}
}

// BenchmarkRenderClusters times one /v1/clusters body: the DTO builder
// and json.NewEncoder the handler used before (dto_encoding_json), and
// the rendered body on a fresh snapshot (render_cold, which encodes
// every flow's object) and on one whose flow objects are kept
// (render_warm, every later read of the snapshot).
func BenchmarkRenderClusters(b *testing.B) {
	rb := newRenderBench(b)
	b.Run("dto_encoding_json", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			resp := clusterResponse(rb.g, rb.res, rb.baseClusters)
			resp.ElapsedMs = 1.234
			var buf bytes.Buffer
			if err := json.NewEncoder(&buf).Encode(resp); err != nil {
				b.Fatal(err)
			}
			renderSink = buf.Bytes()
		}
	})
	render := func(b *testing.B, sn func() *session.Snapshot) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			body, err := renderClusters(sn(), rb.g, rb.res, rb.baseClusters, 1.234)
			if err != nil {
				b.Fatal(err)
			}
			renderSink = body
		}
	}
	b.Run("render_cold", func(b *testing.B) {
		render(b, func() *session.Snapshot { return new(session.Snapshot) })
	})
	b.Run("render_warm", func(b *testing.B) {
		sn := new(session.Snapshot)
		if _, err := renderClusters(sn, rb.g, rb.res, rb.baseClusters, 0); err != nil {
			b.Fatal(err)
		}
		render(b, func() *session.Snapshot { return sn })
	})
}

var renderSink []byte
