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
//
// Besides the clusters the set keeps what Phase 2 reads of them: a
// trajectory index numbering every cluster's participants densely
// (trajIndex), and a netflow table holding f(Si, Sj) for every pair of
// segments that meet at a junction, 0 where either is empty. Junction
// n's pairs are the pairs of g.SegmentsAt(n), stored as a triangle
// starting at tri[n]: segments meeting at both ends (parallel roads)
// sit in both junctions' triangles with the same netflow. NewClusterSet
// fills the table once; Extend copies it and updates only the pairs
// that touch a cluster the new fragments changed.
type ClusterSet struct {
	g     *roadnet.Graph
	bySeg []*BaseCluster // indexed by SegID; nil where no cluster sits
	// order is every cluster by density descending, segment id
	// ascending (byDensity): the order Phase 2 seeds flows in.
	order []*BaseCluster
	// index numbers the trajectories of every cluster's list.
	index *trajIndex
	// tri, indexed by NodeID, is where each junction's triangle starts
	// in netflow; it depends on g alone, so extended sets share it.
	tri     []int32
	netflow []int32
}

// NewClusterSet indexes the given base clusters over g and fills the
// netflow table. Each cluster must sit on its own segment of g. With
// no clusters it is the empty set, which Extend grows. The set holds
// the given clusters when one numbering covers them, as it does those
// of one FormBaseClusters call; otherwise (clusters of different calls,
// or of RestoreBaseCluster) it holds copies numbered by one index.
func NewClusterSet(g *roadnet.Graph, clusters []*BaseCluster) (*ClusterSet, error) {
	cs := &ClusterSet{g: g, bySeg: make([]*BaseCluster, g.NumSegments()), tri: junctionTriangles(g)}
	cs.netflow = make([]int32, cs.tri[len(cs.tri)-1])
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
	var ids []traj.ID // the longest window of the clusters' one numbering
	mixed := false
	for _, b := range clusters {
		if mixed = !sameNumbering(ids, b.ids); mixed {
			break
		}
		if len(b.ids) > len(ids) {
			ids = b.ids
		}
	}
	if mixed {
		cs.renumber()
	} else {
		cs.index = newTrajIndex(ids)
	}
	// From the empty set every cluster is new, with all its
	// participants gained.
	var folded []fold
	for _, b := range cs.bySeg {
		if b != nil {
			folded = append(folded, fold{b: b, gained: b.trajs})
		}
	}
	cs.foldNetflows(nil, folded)
	slices.SortFunc(cs.order, byDensity)
	return cs, nil
}

// renumber replaces every cluster with a copy numbered by one index
// over all their trajectories.
func (cs *ClusterSet) renumber() {
	num := numbering{}
	lists := make([][]int32, len(cs.order))
	for i, b := range cs.order {
		for _, id := range b.ParticipatingTrajectories() {
			lists[i] = append(lists[i], num.of(id))
		}
	}
	cs.index = num.index()
	for i, b := range cs.order {
		c := &BaseCluster{Seg: b.Seg, Fragments: b.Fragments, trajs: sortedDense(lists[i]), ids: cs.index.numbered(), density: b.density}
		cs.order[i], cs.bySeg[b.Seg] = c, c
	}
}

// junctionTriangles returns, for each junction n of g and one past the
// last, where n's triangle of segment pairs starts in a netflow table.
func junctionTriangles(g *roadnet.Graph) []int32 {
	tri := make([]int32, g.NumNodes()+1)
	for n := range g.NumNodes() {
		d := int32(g.Degree(roadnet.NodeID(n)))
		tri[n+1] = tri[n] + d*(d-1)/2
	}
	return tri
}

// pair returns where the netflow of g.SegmentsAt(nu)[i] and [j], i ≠ j,
// sits in the table.
func (cs *ClusterSet) pair(nu roadnet.NodeID, i, j int) int {
	if i < j {
		i, j = j, i
	}
	return int(cs.tri[nu]) + i*(i-1)/2 + j
}

// fold is a cluster a fold built and the participants it gained over
// the cluster it replaced (all of them for a new one).
type fold struct {
	b      *BaseCluster
	gained []int32
}

// foldNetflows updates cs.netflow, the table of prev (nil: the empty
// set), to cs.bySeg, whose clusters differ from prev's exactly at
// folded, ascending by segment. With S' = S ⊎ dS and N' = N ⊎ dN,
// |S'∩N'| = |S∩N| + |dS∩N| + |dN∩S'|, so folding the changed clusters
// one at a time, each adding |dS ∩ N| for every neighbour N as it
// stands, costs time in the gained indices rather than the lists: a
// neighbour on a smaller segment already stands folded, one on a
// larger segment not yet.
func (cs *ClusterSet) foldNetflows(prev []*BaseCluster, folded []fold) {
	for _, fd := range folded {
		if len(fd.gained) == 0 {
			continue
		}
		seg := cs.g.Segment(fd.b.Seg)
		for _, nu := range [2]roadnet.NodeID{seg.NI, seg.NJ} {
			at := cs.g.SegmentsAt(nu)
			p := slices.Index(at, fd.b.Seg)
			for j, sid := range at {
				var nb *BaseCluster
				switch {
				case j == p:
					continue
				case sid < fd.b.Seg:
					nb = cs.bySeg[sid]
				case prev != nil:
					nb = prev[sid]
				}
				if nb != nil {
					cs.netflow[cs.pair(nu, p, j)] += int32(commonCount(fd.gained, nb.trajs))
				}
			}
		}
	}
}

// Extend returns the set with frags folded in, which is the set
// FormBaseClusters would build over all the fragments folded so far,
// minus the fragments themselves. It groups frags by segment and
// merges each group into the cluster already on its segment: densities
// add and participant lists unite. Trajectories the set has not seen
// are numbered after the ones it has, so every other cluster keeps its
// list. The result has its own index, netflow table and a new cluster,
// holding no fragments, on every segment frags touch; it shares every
// other cluster with cs, which is left as it was. A fragment off the
// set's graph is an error.
func (cs *ClusterSet) Extend(frags []traj.TFragment) (*ClusterSet, error) {
	if err := checkOnGraph(cs.g, frags); err != nil {
		return nil, err
	}
	// Each group is new, so it becomes its segment's new cluster.
	touched, index := groupFragments(frags, cs.index, false)
	next := &ClusterSet{g: cs.g, bySeg: slices.Clone(cs.bySeg), index: index, tri: cs.tri, netflow: slices.Clone(cs.netflow)}
	folded := make([]fold, len(touched))
	added := 0
	for i, b := range touched {
		fd := fold{b: b, gained: b.trajs}
		if old := cs.bySeg[b.Seg]; old != nil {
			fd.gained, b.trajs = gained(old.trajs, b.trajs)
			b.density += old.density
		} else {
			added++
		}
		next.bySeg[b.Seg], folded[i] = b, fd
	}
	next.foldNetflows(cs.bySeg, folded)
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

// neighbor is one member of an f-neighborhood Nf(S, nu): the cluster,
// its position in g.SegmentsAt(nu) and its netflow with S.
type neighbor struct {
	b    *BaseCluster
	at   int
	flow int
}

// fNeighbors appends Nf(s, nu) (Definition 6) to dst in segment order,
// skipping every segment marked in merged (indexed by SegID; nil skips
// none), and returns it: the one scan behind NeighborhoodAt and Phase
// 2. It reads netflows from the table when s is the set's cluster on
// its segment, and otherwise counts them. A junction that is not an
// endpoint of s's segment yields none (the dead-end convention
// Lnu(e) = ∅).
func (cs *ClusterSet) fNeighbors(dst []neighbor, s *BaseCluster, nu roadnet.NodeID, merged []bool) []neighbor {
	if !cs.g.Segment(s.Seg).HasEnd(nu) {
		return dst
	}
	own := cs.bySeg[s.Seg] == s
	at := cs.g.SegmentsAt(nu)
	p := slices.Index(at, s.Seg)
	for j, sid := range at {
		if j == p || (merged != nil && merged[sid]) {
			continue
		}
		cand := cs.bySeg[sid]
		if cand == nil {
			continue
		}
		var flow int
		if own {
			flow = int(cs.netflow[cs.pair(nu, p, j)])
		} else {
			flow = Netflow(s, cand)
		}
		if flow > 0 {
			dst = append(dst, neighbor{b: cand, at: j, flow: flow})
		}
	}
	return dst
}

// NeighborhoodAt returns Nf(S, nu) (Definition 6): the base clusters on
// segments adjacent to S's representative at junction nu that share at
// least one participating trajectory with S. The result is sorted by
// segment id. A junction that is not an endpoint of S's segment yields
// nil (the dead-end convention Lnu(e) = ∅).
func (cs *ClusterSet) NeighborhoodAt(s *BaseCluster, nu roadnet.NodeID) []*BaseCluster {
	var out []*BaseCluster
	for _, nb := range cs.fNeighbors(nil, s, nu, nil) {
		out = append(out, nb.b)
	}
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
	for _, nb := range cs.fNeighbors(nil, s, nu, nil) {
		if nb.flow > bestFlow || (nb.flow == bestFlow && best != nil && nb.b.Seg < best.Seg) {
			best, bestFlow = nb.b, nb.flow
		}
	}
	return best, bestFlow
}
