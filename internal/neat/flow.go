package neat

import (
	"fmt"
	"math"
	"math/bits"
	"slices"

	"repro/internal/roadnet"
	"repro/internal/traj"
)

// Weights are the merging-selectivity coefficients (wq, wk, wv) of
// Definition 10: the relative importance of the flow factor, density
// factor, and speed-limit factor. They must be non-negative and sum
// to 1.
type Weights struct {
	Flow    float64 // wq
	Density float64 // wk
	Speed   float64 // wv
}

// Validate reports whether the weights satisfy Definition 10's
// constraints.
func (w Weights) Validate() error {
	if w.Flow < 0 || w.Density < 0 || w.Speed < 0 {
		return fmt.Errorf("neat: weights must be non-negative, got %+v", w)
	}
	if sum := w.Flow + w.Density + w.Speed; math.Abs(sum-1) > 1e-9 {
		return fmt.Errorf("neat: weights must sum to 1, got %g", sum)
	}
	return nil
}

// Weight presets discussed in §III-B2.
var (
	// WeightsFlowOnly merges each cluster with its maxFlow-neighbor.
	WeightsFlowOnly = Weights{Flow: 1}
	// WeightsDensityOnly merges with the densest f-neighbor, describing
	// routes where traffic is highly concentrated.
	WeightsDensityOnly = Weights{Density: 1}
	// WeightsSpeedOnly describes the routes where objects can travel
	// the fastest.
	WeightsSpeedOnly = Weights{Speed: 1}
	// WeightsBalanced favors the three factors equally.
	WeightsBalanced = Weights{Flow: 1.0 / 3, Density: 1.0 / 3, Speed: 1.0 / 3}
	// WeightsTrafficMonitoring is the paper's suggestion for traffic
	// monitoring applications: flow and density matter, speed does not.
	WeightsTrafficMonitoring = Weights{Flow: 0.5, Density: 0.5}
)

// FlowConfig parameterizes Phase 2.
type FlowConfig struct {
	// Weights are the merging-selectivity coefficients; the zero value
	// is replaced by WeightsFlowOnly (pure maxFlow-neighbor merging).
	Weights Weights
	// Beta is the domination threshold β: a netflow f1 dominates f2
	// when f1 > 0, f2 > 0 and f1/f2 >= β. Use math.Inf(1) (or 0, the
	// zero value, which is treated as +Inf) to disable domination
	// rework and select pure maxFlow-style merging.
	Beta float64
	// MinCard filters out flow clusters whose trajectory cardinality is
	// below this threshold; 0 keeps everything.
	MinCard int
}

func (c FlowConfig) withDefaults() FlowConfig {
	if c.Weights == (Weights{}) {
		c.Weights = WeightsFlowOnly
	}
	if c.Beta == 0 {
		c.Beta = math.Inf(1)
	}
	return c
}

// Validate reports configuration errors.
func (c FlowConfig) Validate() error {
	c = c.withDefaults()
	if err := c.Weights.Validate(); err != nil {
		return err
	}
	if c.Beta < 1 && !math.IsInf(c.Beta, 1) {
		return fmt.Errorf("neat: domination threshold β must be at least 1 (or +Inf), got %g", c.Beta)
	}
	if c.MinCard < 0 {
		return fmt.Errorf("neat: minCard must be non-negative, got %d", c.MinCard)
	}
	return nil
}

// FlowCluster is an ordered list of base clusters whose representative
// segments form a route in the road network (Definition 8).
type FlowCluster struct {
	// Members are the base clusters in route order.
	Members []*BaseCluster
	// Route is the representative route rF: the members' segments in
	// the same order.
	Route roadnet.Route

	// trajs is PTr(F) as an ascending, repeat-free id list, never
	// written once built: detached flows and clones share it.
	trajs             []traj.ID
	frontEnd, backEnd roadnet.NodeID
	// density is the members' summed t-fragment count, kept by every
	// constructor so a detached flow (Members == nil) reports it too.
	density int
}

// Cardinality returns the flow's trajectory cardinality |PTr(F)|.
func (f *FlowCluster) Cardinality() int { return len(f.trajs) }

// Density returns the total number of t-fragments across members.
func (f *FlowCluster) Density() int { return f.density }

// Participates reports whether trajectory id participates in the flow.
func (f *FlowCluster) Participates(id traj.ID) bool {
	_, ok := slices.BinarySearch(f.trajs, id)
	return ok
}

// ParticipatingTrajectories returns the sorted ids of PTr(F).
func (f *FlowCluster) ParticipatingTrajectories() []traj.ID { return slices.Clone(f.trajs) }

// NetflowWith returns f(F, S): the number of trajectories participating
// in both the flow cluster and the base cluster.
func (f *FlowCluster) NetflowWith(b *BaseCluster) int {
	n := 0
	for _, d := range b.trajs {
		if f.Participates(b.ids[d]) {
			n++
		}
	}
	return n
}

// RouteLength returns the length of the representative route in meters.
func (f *FlowCluster) RouteLength(g *roadnet.Graph) float64 { return f.Route.Length(g) }

// Endpoints returns the two free endpoint junctions of the
// representative route.
func (f *FlowCluster) Endpoints() (front, back roadnet.NodeID) {
	return f.frontEnd, f.backEnd
}

// String implements fmt.Stringer.
func (f *FlowCluster) String() string {
	return fmt.Sprintf("F{|route|=%d |PTr|=%d d=%d}", len(f.Route), f.Cardinality(), f.Density())
}

// newFlow starts a flow at b. Its participants are the flow builder's
// to track until it finishes the flow.
func newFlow(b *BaseCluster, g *roadnet.Graph) *FlowCluster {
	seg := g.Segment(b.Seg)
	return &FlowCluster{
		Members:  []*BaseCluster{b},
		Route:    roadnet.Route{b.Seg},
		frontEnd: seg.NI,
		backEnd:  seg.NJ,
		density:  b.Density(),
	}
}

// absorb appends b to the flow's back end, which it leaves at newEnd.
func (f *FlowCluster) absorb(b *BaseCluster, newEnd roadnet.NodeID) {
	f.Members = append(f.Members, b)
	f.Route = append(f.Route, b.Seg)
	f.backEnd = newEnd
	f.density += b.Density()
}

// reverse turns the growing flow around: its route runs the other way
// and its ends swap.
func (f *FlowCluster) reverse() {
	slices.Reverse(f.Members)
	slices.Reverse(f.Route)
	f.frontEnd, f.backEnd = f.backEnd, f.frontEnd
}

// flowBuilder runs the Phase 2 state machine over the indexed base
// clusters, marking merged segments as it goes. It belongs to one
// Phase 2 run, so runs on one set share nothing they write.
type flowBuilder struct {
	*ClusterSet
	cfg    FlowConfig
	merged []bool // indexed by SegID
	// neigh is the current expansion's f-neighborhood, reused.
	neigh []neighbor
	// in marks the growing flow's participants, one bit per
	// trajectory at its dense index in the set's index, so adding a
	// cluster costs its own list and the cardinality is a count.
	in []uint64
}

// FormFlowClusters performs Phase 2: it consumes the density-ordered
// base cluster list produced by FormBaseClusters and merges the
// clusters into flow clusters. It returns the flows that pass the
// minCard filter and the number filtered out. The input order drives
// initialization: each round starts from the densest unmerged base
// cluster (the dense-core of the remainder), which makes the outcome
// deterministic (§III-B1).
func FormFlowClusters(g *roadnet.Graph, base []*BaseCluster, cfg FlowConfig) (flows []*FlowCluster, filtered int, err error) {
	if err := cfg.Validate(); err != nil {
		return nil, 0, err
	}
	cs, err := NewClusterSet(g, base)
	if err != nil {
		return nil, 0, err
	}
	flows, filtered = cs.formFlows(base, cfg.withDefaults())
	return flows, filtered, nil
}

// formFlows is Phase 2 over the set with a validated, defaulted cfg:
// each round seeds a flow from the cluster on the next unmerged
// segment of seeds.
func (cs *ClusterSet) formFlows(seeds []*BaseCluster, cfg FlowConfig) (flows []*FlowCluster, filtered int) {
	fb := &flowBuilder{
		ClusterSet: cs,
		cfg:        cfg,
		merged:     make([]bool, cs.g.NumSegments()),
		in:         make([]uint64, (cs.index.len()+63)/64),
	}
	for _, seed := range seeds {
		if fb.merged[seed.Seg] {
			continue
		}
		seed = cs.bySeg[seed.Seg]
		f := newFlow(seed, cs.g)
		fb.merged[seed.Seg] = true
		fb.add(seed)
		// Grow the back end, then the front one: reversed, the front
		// end is the back, so each absorb appends.
		for fb.expand(f) {
		}
		f.reverse()
		for fb.expand(f) {
		}
		f.reverse()
		fb.finish(f)
		if f.Cardinality() >= cfg.MinCard {
			flows = append(flows, f)
		} else {
			filtered++
		}
	}
	return flows, filtered
}

// add marks b's participants in the growing flow. Its list is
// ascending, so it gathers the bits of one word before it writes it.
func (fb *flowBuilder) add(b *BaseCluster) {
	in := fb.in
	w, set := int32(-1), uint64(0)
	for _, d := range b.trajs {
		if d>>6 != w {
			if w >= 0 {
				in[w] |= set
			}
			w, set = d>>6, 0
		}
		set |= 1 << (d & 63)
	}
	if w >= 0 {
		in[w] |= set
	}
}

// flowWith returns f(F, b) for the growing flow F.
func (fb *flowBuilder) flowWith(b *BaseCluster) int {
	n := 0
	for _, d := range b.trajs {
		n += int(fb.in[d>>6] >> (d & 63) & 1)
	}
	return n
}

// finish gives f its ascending participant list, the marked
// trajectories' ids sorted, and clears the marks for the next flow.
func (fb *flowBuilder) finish(f *FlowCluster) {
	card := 0
	for _, word := range fb.in {
		card += bits.OnesCount64(word)
	}
	if card == 0 {
		return
	}
	ids := fb.index.ids
	f.trajs = make([]traj.ID, 0, card)
	for w, word := range fb.in {
		for ; word != 0; word &= word - 1 {
			f.trajs = append(f.trajs, ids[w<<6|bits.TrailingZeros64(word)])
		}
	}
	slices.Sort(f.trajs)
	clear(fb.in)
}

// expand attempts to grow the flow by one base cluster at its back
// end, returning whether a cluster was absorbed.
func (fb *flowBuilder) expand(f *FlowCluster) bool {
	cur, nu := f.Members[len(f.Members)-1], f.backEnd
	fb.neigh = fb.fNeighbors(fb.neigh[:0], cur, nu, fb.merged)
	neigh := fb.dominationRework(nu, fb.neigh)
	if len(neigh) == 0 {
		return false
	}
	chosen := fb.selectNeighbor(cur, neigh)
	fb.merged[chosen.Seg] = true
	f.absorb(chosen, fb.g.Segment(chosen.Seg).OtherEnd(nu))
	fb.add(chosen)
	return true
}

// dominationRework applies the β rule of §III-B2 to Nf(S, nu): while
// some netflow between two f-neighbors of S dominates the maxFlow of S
// at this endpoint, those two neighbors belong to a different flow —
// remove them and restart with the updated neighborhood. Both meet S
// at nu, so the table holds their netflow.
func (fb *flowBuilder) dominationRework(nu roadnet.NodeID, neigh []neighbor) []neighbor {
	if math.IsInf(fb.cfg.Beta, 1) {
		return neigh
	}
	for {
		if len(neigh) < 2 {
			return neigh
		}
		maxFlow := 0
		for _, nb := range neigh {
			if nb.flow > maxFlow {
				maxFlow = nb.flow
			}
		}
		if maxFlow == 0 {
			return neigh
		}
		removed := false
		for i := 0; i < len(neigh) && !removed; i++ {
			for j := i + 1; j < len(neigh) && !removed; j++ {
				cross := fb.netflow[fb.pair(nu, neigh[i].at, neigh[j].at)]
				if cross > 0 && float64(cross)/float64(maxFlow) >= fb.cfg.Beta {
					// Drop both; they will seed their own flow later.
					pair := [2]roadnet.SegID{neigh[i].b.Seg, neigh[j].b.Seg}
					kept := neigh[:0]
					for _, nb := range neigh {
						if nb.b.Seg != pair[0] && nb.b.Seg != pair[1] {
							kept = append(kept, nb)
						}
					}
					neigh = kept
					removed = true
				}
			}
		}
		if !removed {
			return neigh
		}
	}
}

// selectNeighbor picks the neighbor of s with the highest merging
// selectivity SF (Definition 10). Ties are broken by the netflow
// between the whole flow cluster and the candidate (§III-B2's "we can
// consider the netflows between the flow cluster under consideration
// ... and the candidate base clusters"), then by segment id.
func (fb *flowBuilder) selectNeighbor(s *BaseCluster, neigh []neighbor) *BaseCluster {
	w := fb.cfg.Weights
	var densSum float64 = float64(s.Density())
	var speedSum float64
	for _, nb := range neigh {
		densSum += float64(nb.b.Density())
		speedSum += fb.g.Segment(nb.b.Seg).SpeedLimit
	}
	card := float64(s.Cardinality())

	const eps = 1e-12
	var best *BaseCluster
	var bestSF float64
	var bestFlowTie int
	for _, n := range neigh {
		nb := n.b
		q := 0.0
		if card > 0 {
			q = float64(n.flow) / card
		}
		k := 0.0
		if densSum > 0 {
			k = float64(nb.Density()) / densSum
		}
		v := 0.0
		if speedSum > 0 {
			v = fb.g.Segment(nb.Seg).SpeedLimit / speedSum
		}
		sf := w.Flow*q + w.Density*k + w.Speed*v
		switch {
		case best == nil || sf > bestSF+eps:
			best, bestSF, bestFlowTie = nb, sf, -1
		case sf > bestSF-eps:
			// Tie on SF: compare f(F, candidate).
			if bestFlowTie < 0 {
				bestFlowTie = fb.flowWith(best)
			}
			ft := fb.flowWith(nb)
			if ft > bestFlowTie || (ft == bestFlowTie && nb.Seg < best.Seg) {
				best, bestSF, bestFlowTie = nb, sf, ft
			}
		}
	}
	return best
}
