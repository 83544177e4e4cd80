package neat

import (
	"fmt"
	"slices"
	"sort"

	"repro/internal/roadnet"
	"repro/internal/traj"
)

// ClusterSet is an indexed set of base clusters supporting the
// neighborhood queries of Definitions 6 and 7. Phase 2 runs on it,
// adding its own merge state; the public form lets applications
// explore the NEAT model directly (and lets tests check the paper's
// worked examples). A set is never written once built: Extend returns
// a new one.
type ClusterSet struct {
	g     *roadnet.Graph
	bySeg []*BaseCluster // indexed by SegID; nil where no cluster sits
	// order is every cluster by density descending, segment id
	// ascending (byDensity): the order Phase 2 seeds flows in.
	order []*BaseCluster
}

// NewClusterSet indexes the given base clusters over g. Each cluster
// must sit on its own segment of g. With no clusters it is the empty
// set, which Extend grows.
func NewClusterSet(g *roadnet.Graph, clusters []*BaseCluster) (*ClusterSet, error) {
	cs := &ClusterSet{g: g, bySeg: make([]*BaseCluster, g.NumSegments())}
	for _, b := range clusters {
		if b.Seg < 0 || int(b.Seg) >= len(cs.bySeg) {
			return nil, fmt.Errorf("neat: base cluster on unknown segment %d", b.Seg)
		}
		if cs.bySeg[b.Seg] != nil {
			return nil, fmt.Errorf("neat: duplicate base cluster for segment %d", b.Seg)
		}
		cs.bySeg[b.Seg] = b
	}
	cs.order = slices.Clone(clusters)
	slices.SortFunc(cs.order, byDensity)
	return cs, nil
}

// Extend returns the set with frags folded in, which is the set
// FormBaseClusters would build over all the fragments folded so far,
// minus the fragments themselves. It groups frags with FormBaseClusters
// and merges each group into the cluster already on its segment:
// densities add and participant lists unite. The result has its own
// index and a new cluster, holding no fragments, on every segment frags
// touch; it shares every other cluster with cs, which is left as it
// was. A fragment off the set's graph is an error.
func (cs *ClusterSet) Extend(frags []traj.TFragment) (*ClusterSet, error) {
	if err := checkOnGraph(cs.g, frags); err != nil {
		return nil, err
	}
	// Each group is new, so it becomes its segment's new cluster.
	touched := FormBaseClusters(frags)
	next := &ClusterSet{g: cs.g, bySeg: slices.Clone(cs.bySeg)}
	added := 0
	for _, b := range touched {
		b.Fragments = nil
		if old := cs.bySeg[b.Seg]; old != nil {
			b.trajs = union(old.trajs, b.trajs)
			b.density += old.density
		} else {
			added++
		}
		next.bySeg[b.Seg] = b
	}
	// The untouched clusters keep their relative order; merge the
	// re-sorted touched ones in among them.
	slices.SortFunc(touched, byDensity)
	next.order = make([]*BaseCluster, 0, len(cs.order)+added)
	for _, b := range cs.order {
		if next.bySeg[b.Seg] != b {
			continue
		}
		for len(touched) > 0 && byDensity(touched[0], b) < 0 {
			next.order = append(next.order, touched[0])
			touched = touched[1:]
		}
		next.order = append(next.order, b)
	}
	next.order = append(next.order, touched...)
	return next, nil
}

// checkOnGraph reports the first fragment that lies off g. Base
// clusters index segment ids, so caller-supplied fragments, which skip
// the partitioner, are checked before they are grouped.
func checkOnGraph(g *roadnet.Graph, frags []traj.TFragment) error {
	for _, f := range frags {
		if f.Seg < 0 || int(f.Seg) >= g.NumSegments() {
			return fmt.Errorf("neat: fragment of trajectory %d on unknown segment %d", f.Traj, f.Seg)
		}
	}
	return nil
}

// Get returns the base cluster associated with segment s, if any.
func (cs *ClusterSet) Get(s roadnet.SegID) (*BaseCluster, bool) {
	if s < 0 || int(s) >= len(cs.bySeg) {
		return nil, false
	}
	return cs.bySeg[s], cs.bySeg[s] != nil
}

// NeighborhoodAt returns Nf(S, nu) (Definition 6): the base clusters on
// segments adjacent to S's representative at junction nu that share at
// least one participating trajectory with S. The result is sorted by
// segment id. A junction that is not an endpoint of S's segment yields
// nil (the dead-end convention Lnu(e) = ∅).
func (cs *ClusterSet) NeighborhoodAt(s *BaseCluster, nu roadnet.NodeID) []*BaseCluster {
	return cs.neighborhoodAt(s, nu, nil)
}

// neighborhoodAt is the one Definition 6 scan behind NeighborhoodAt and
// Phase 2: it skips every segment marked in merged (indexed by SegID;
// nil skips none).
func (cs *ClusterSet) neighborhoodAt(s *BaseCluster, nu roadnet.NodeID, merged []bool) []*BaseCluster {
	var out []*BaseCluster
	for _, sid := range cs.g.AdjacentAt(s.Seg, nu) {
		if merged != nil && merged[sid] {
			continue
		}
		if cand := cs.bySeg[sid]; cand != nil && intersects(s.trajs, cand.trajs) {
			out = append(out, cand)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Seg < out[j].Seg })
	return out
}

// Neighborhood returns Nf(S) = Nf(S, ni) ∪ Nf(S, nj) over both
// endpoints of S's representative segment.
func (cs *ClusterSet) Neighborhood(s *BaseCluster) []*BaseCluster {
	seg := cs.g.Segment(s.Seg)
	out := append(cs.NeighborhoodAt(s, seg.NI), cs.NeighborhoodAt(s, seg.NJ)...)
	sort.Slice(out, func(i, j int) bool { return out[i].Seg < out[j].Seg })
	// A segment parallel to S's meets it at both ends.
	return slices.Compact(out)
}

// MaxFlowNeighbor returns the maxFlow-neighbor of S at nu
// (Definition 7) and its netflow, or (nil, 0) when the f-neighborhood
// is empty. Ties are broken by segment id for determinism.
func (cs *ClusterSet) MaxFlowNeighbor(s *BaseCluster, nu roadnet.NodeID) (*BaseCluster, int) {
	var best *BaseCluster
	bestFlow := 0
	for _, cand := range cs.NeighborhoodAt(s, nu) {
		f := Netflow(s, cand)
		if f > bestFlow || (f == bestFlow && best != nil && cand.Seg < best.Seg) {
			best, bestFlow = cand, f
		}
	}
	return best, bestFlow
}
