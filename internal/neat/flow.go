package neat

import (
	"fmt"
	"math"
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
	// written once built (see BaseCluster.trajs).
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
func (f *FlowCluster) NetflowWith(b *BaseCluster) int { return intersectCount(f.trajs, b.trajs) }

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

func newFlow(b *BaseCluster, g *roadnet.Graph) *FlowCluster {
	seg := g.Segment(b.Seg)
	f := &FlowCluster{
		Members:  []*BaseCluster{b},
		Route:    roadnet.Route{b.Seg},
		trajs:    b.trajs,
		frontEnd: seg.NI,
		backEnd:  seg.NJ,
		density:  b.Density(),
	}
	return f
}

func (f *FlowCluster) absorb(b *BaseCluster, atBack bool, newEnd roadnet.NodeID) {
	if atBack {
		f.Members = append(f.Members, b)
		f.Route = append(f.Route, b.Seg)
		f.backEnd = newEnd
	} else {
		f.Members = append([]*BaseCluster{b}, f.Members...)
		f.Route = append(roadnet.Route{b.Seg}, f.Route...)
		f.frontEnd = newEnd
	}
	f.density += b.Density()
	f.trajs = union(f.trajs, b.trajs)
}

// flowBuilder runs the Phase 2 state machine over the indexed base
// clusters, marking merged segments as it goes.
type flowBuilder struct {
	*ClusterSet
	cfg    FlowConfig
	merged []bool // indexed by SegID
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
// each round seeds a flow from the next unmerged cluster of seeds.
func (cs *ClusterSet) formFlows(seeds []*BaseCluster, cfg FlowConfig) (flows []*FlowCluster, filtered int) {
	fb := &flowBuilder{ClusterSet: cs, cfg: cfg, merged: make([]bool, cs.g.NumSegments())}
	for _, seed := range seeds {
		if fb.merged[seed.Seg] {
			continue
		}
		f := newFlow(seed, cs.g)
		fb.merged[seed.Seg] = true
		for fb.expand(f, true) {
		}
		for fb.expand(f, false) {
		}
		if f.Cardinality() >= cfg.MinCard {
			flows = append(flows, f)
		} else {
			filtered++
		}
	}
	return flows, filtered
}

// expand attempts to grow the flow by one base cluster at the back or
// front end, returning whether a cluster was absorbed.
func (fb *flowBuilder) expand(f *FlowCluster, atBack bool) bool {
	var cur *BaseCluster
	var nu roadnet.NodeID
	if atBack {
		cur = f.Members[len(f.Members)-1]
		nu = f.backEnd
	} else {
		cur = f.Members[0]
		nu = f.frontEnd
	}
	neigh := fb.neighborhoodAt(cur, nu, fb.merged)
	if len(neigh) == 0 {
		return false
	}
	neigh = fb.dominationRework(cur, neigh)
	if len(neigh) == 0 {
		return false
	}
	chosen := fb.selectNeighbor(f, cur, neigh)
	fb.merged[chosen.Seg] = true
	f.absorb(chosen, atBack, fb.g.Segment(chosen.Seg).OtherEnd(nu))
	return true
}

// dominationRework applies the β rule of §III-B2: while some netflow
// between two f-neighbors of S dominates the maxFlow of S at this
// endpoint, those two neighbors belong to a different flow — remove
// them and restart with the updated neighborhood.
func (fb *flowBuilder) dominationRework(s *BaseCluster, neigh []*BaseCluster) []*BaseCluster {
	if math.IsInf(fb.cfg.Beta, 1) {
		return neigh
	}
	for {
		if len(neigh) < 2 {
			return neigh
		}
		maxFlow := 0
		for _, nb := range neigh {
			if nf := Netflow(s, nb); nf > maxFlow {
				maxFlow = nf
			}
		}
		if maxFlow == 0 {
			return neigh
		}
		removed := false
		for i := 0; i < len(neigh) && !removed; i++ {
			for j := i + 1; j < len(neigh) && !removed; j++ {
				cross := Netflow(neigh[i], neigh[j])
				if cross > 0 && float64(cross)/float64(maxFlow) >= fb.cfg.Beta {
					// Drop both; they will seed their own flow later.
					pair := [2]roadnet.SegID{neigh[i].Seg, neigh[j].Seg}
					kept := neigh[:0]
					for _, nb := range neigh {
						if nb.Seg != pair[0] && nb.Seg != pair[1] {
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

// selectNeighbor picks the neighbor with the highest merging
// selectivity SF (Definition 10). Ties are broken by the netflow
// between the whole flow cluster and the candidate (§III-B2's "we can
// consider the netflows between the flow cluster under consideration
// ... and the candidate base clusters"), then by segment id.
func (fb *flowBuilder) selectNeighbor(f *FlowCluster, s *BaseCluster, neigh []*BaseCluster) *BaseCluster {
	w := fb.cfg.Weights
	var densSum float64 = float64(s.Density())
	var speedSum float64
	for _, nb := range neigh {
		densSum += float64(nb.Density())
		speedSum += fb.g.Segment(nb.Seg).SpeedLimit
	}
	card := float64(s.Cardinality())

	const eps = 1e-12
	var best *BaseCluster
	var bestSF float64
	var bestFlowTie int
	for _, nb := range neigh {
		q := 0.0
		if card > 0 {
			q = float64(Netflow(s, nb)) / card
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
				bestFlowTie = f.NetflowWith(best)
			}
			ft := f.NetflowWith(nb)
			if ft > bestFlowTie || (ft == bestFlowTie && nb.Seg < best.Seg) {
				best, bestSF, bestFlowTie = nb, sf, ft
			}
		}
	}
	return best
}
