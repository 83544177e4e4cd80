package neat

import (
	"cmp"
	"fmt"
	"slices"

	"repro/internal/roadnet"
	"repro/internal/traj"
)

// BaseCluster groups the t-fragments that lie on one road segment
// (Definition 2). The segment is the cluster's representative, eS.
type BaseCluster struct {
	// Seg is the representative road segment.
	Seg roadnet.SegID
	// Fragments are the member t-fragments. A cluster ClusterSet.Extend
	// builds holds none: its density and participant list describe the
	// fragments folded into it.
	Fragments []traj.TFragment

	// trajs is PTr(S) as an ascending, repeat-free id list. It is never
	// written once built: flows, detached flows, clones and extended
	// cluster sets share it.
	trajs []traj.ID
	// density is the cluster's t-fragment count, kept by every
	// constructor so a cluster without fragments reports it too.
	density int
}

// Density returns the number of t-fragments in the cluster
// (Definition 4).
func (b *BaseCluster) Density() int { return b.density }

// Cardinality returns the trajectory cardinality |PTr(S)|: the number
// of distinct trajectories participating in the cluster (Definition 3).
func (b *BaseCluster) Cardinality() int { return len(b.trajs) }

// Participates reports whether trajectory id has a t-fragment in the
// cluster.
func (b *BaseCluster) Participates(id traj.ID) bool {
	_, ok := slices.BinarySearch(b.trajs, id)
	return ok
}

// ParticipatingTrajectories returns the sorted ids of PTr(S).
func (b *BaseCluster) ParticipatingTrajectories() []traj.ID { return slices.Clone(b.trajs) }

// String implements fmt.Stringer.
func (b *BaseCluster) String() string {
	return fmt.Sprintf("S{seg=%d d=%d |PTr|=%d}", b.Seg, b.Density(), b.Cardinality())
}

// Netflow returns f(Si, Sj): the number of trajectories participating
// in both clusters (Definition 5).
func Netflow(a, b *BaseCluster) int { return intersectCount(a.trajs, b.trajs) }

// FormBaseClusters performs Phase 1, step 2: it groups t-fragments by
// their road segment into base clusters and returns the clusters sorted
// by density in descending order, so the first element is the
// dense-core of the set (Definition 4). Ties are broken by segment id
// for determinism. Each cluster holds its fragments in input order, in
// a slice of its own. Segment ids index a table up to the largest one,
// so every fragment must lie on a segment of a road network (a
// non-negative SegID); the pipeline checks this against its graph.
func FormBaseClusters(frags []traj.TFragment) []*BaseCluster {
	// Pass 1 counts the fragments per segment; pass 2 copies each
	// fragment into its cluster's exact-size slice.
	var counts []int
	for _, f := range frags {
		for int(f.Seg) >= len(counts) {
			counts = append(counts, 0)
		}
		counts[f.Seg]++
	}
	bySeg := make([]*BaseCluster, len(counts))
	var order []*BaseCluster
	for seg, n := range counts {
		if n > 0 {
			b := &BaseCluster{Seg: roadnet.SegID(seg), Fragments: make([]traj.TFragment, 0, n), density: n}
			bySeg[seg] = b
			order = append(order, b)
		}
	}
	for _, f := range frags {
		b := bySeg[f.Seg]
		b.Fragments = append(b.Fragments, f)
	}
	var ids []traj.ID
	for _, b := range order {
		ids = ids[:0]
		for _, f := range b.Fragments {
			ids = append(ids, f.Traj)
		}
		b.trajs = sortedIDs(ids)
	}
	slices.SortFunc(order, byDensity)
	return order
}

// byDensity orders base clusters by density descending, then segment id
// ascending: the order FormBaseClusters returns and Phase 2 seeds in.
func byDensity(a, b *BaseCluster) int {
	if c := cmp.Compare(b.density, a.density); c != 0 {
		return c
	}
	return cmp.Compare(a.Seg, b.Seg)
}

// DenseCore returns the base cluster with the highest density among bs,
// or nil for an empty slice. For the slice returned by
// FormBaseClusters this is simply the first element.
func DenseCore(bs []*BaseCluster) *BaseCluster {
	var best *BaseCluster
	for _, b := range bs {
		if best == nil || byDensity(b, best) < 0 {
			best = b
		}
	}
	return best
}

// Participant lists. PTr(S) and PTr(F) are ascending, repeat-free id
// lists shared between clusters, flows and their copies, so the
// functions below never write an input list.

// sortedIDs returns the distinct values of ids in ascending order, in a
// new exact-size list. It reorders ids.
func sortedIDs(ids []traj.ID) []traj.ID {
	slices.Sort(ids)
	return slices.Clone(slices.Compact(ids))
}

// intersects reports whether two participant lists share an id.
func intersects(a, b []traj.ID) bool {
	for i, j := 0, 0; i < len(a) && j < len(b); {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			return true
		}
	}
	return false
}

// intersectCount returns |a ∩ b| for two participant lists.
func intersectCount(a, b []traj.ID) int {
	n := 0
	for i, j := 0, 0; i < len(a) && j < len(b); {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			n++
			i++
			j++
		}
	}
	return n
}

// union returns the participant list a ∪ b. When one list contains the
// other it returns the larger; otherwise the result is a new exact-size
// list.
func union(a, b []traj.ID) []traj.ID {
	common := intersectCount(a, b)
	switch common {
	case len(b):
		return a
	case len(a):
		return b
	}
	out := make([]traj.ID, 0, len(a)+len(b)-common)
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			out = append(out, a[i])
			i++
		case a[i] > b[j]:
			out = append(out, b[j])
			j++
		default:
			out = append(out, a[i])
			i++
			j++
		}
	}
	out = append(out, a[i:]...)
	return append(out, b[j:]...)
}
