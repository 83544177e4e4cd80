package neat

import (
	"cmp"
	"fmt"
	"slices"
	"sync/atomic"

	"repro/internal/roadnet"
	"repro/internal/traj"
)

// BaseCluster groups the t-fragments that lie on one road segment
// (Definition 2). The segment is the cluster's representative, eS.
// It keeps its participants as dense trajectory indices (trajIndex),
// which Phase 2 marks and counts directly; its accessors answer in
// trajectory ids.
type BaseCluster struct {
	// Seg is the representative road segment.
	Seg roadnet.SegID
	// Fragments are the member t-fragments. A cluster ClusterSet.Extend
	// builds holds none: its density and participant list describe the
	// fragments folded into it.
	Fragments []traj.TFragment

	// trajs is PTr(S): its trajectories' dense indices, ascending and
	// repeat-free. It is never written once built: clones and extended
	// cluster sets share it.
	trajs []int32
	// ids maps the dense indices in trajs to trajectory ids: the ids of
	// the trajIndex that numbered them. The clusters of one
	// FormBaseClusters call share one; a ClusterSet's clusters hold
	// prefixes of its index's, which agree with it (see trajIndex).
	ids []traj.ID
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
	return slices.ContainsFunc(b.trajs, func(d int32) bool { return b.ids[d] == id })
}

// ParticipatingTrajectories returns the sorted ids of PTr(S).
func (b *BaseCluster) ParticipatingTrajectories() []traj.ID {
	out := make([]traj.ID, len(b.trajs))
	for i, d := range b.trajs {
		out[i] = b.ids[d]
	}
	slices.Sort(out)
	return out
}

// String implements fmt.Stringer.
func (b *BaseCluster) String() string {
	return fmt.Sprintf("S{seg=%d d=%d |PTr|=%d}", b.Seg, b.Density(), b.Cardinality())
}

// Netflow returns f(Si, Sj): the number of trajectories participating
// in both clusters (Definition 5). Phase 2 reads the netflows of its
// ClusterSet's table instead.
func Netflow(a, b *BaseCluster) int {
	if sameNumbering(a.ids, b.ids) {
		return intersectCount(a.trajs, b.trajs)
	}
	return intersectCount(a.ParticipatingTrajectories(), b.ParticipatingTrajectories())
}

// sameNumbering reports whether two clusters' ids are windows of one
// array, which numbers trajectories alike wherever both reach.
func sameNumbering(a, b []traj.ID) bool {
	return len(a) == 0 || len(b) == 0 || &a[0] == &b[0]
}

// FormBaseClusters performs Phase 1, step 2: it groups t-fragments by
// their road segment into base clusters and returns the clusters sorted
// by density in descending order, so the first element is the
// dense-core of the set (Definition 4). Ties are broken by segment id
// for determinism. Each cluster holds its fragments in input order, in
// a slice of its own. Segment ids index a table up to the largest one,
// so every fragment must lie on a segment of a road network (a
// non-negative SegID); the pipeline checks this against its graph.
func FormBaseClusters(frags []traj.TFragment) []*BaseCluster {
	order, _ := groupFragments(frags, nil, true)
	slices.SortFunc(order, byDensity)
	return order
}

// groupFragments groups frags by segment into new base clusters,
// ascending by segment, and numbers their trajectories in x extended
// by those frags are the first to carry (see trajIndex.with), which
// it returns as the clusters' index. With keep, each cluster holds its
// fragments in input order.
func groupFragments(frags []traj.TFragment, x *trajIndex, keep bool) ([]*BaseCluster, *trajIndex) {
	// Pass 1 counts the fragments per segment; pass 2 writes each
	// fragment's trajectory, and with keep the fragment, into its
	// cluster's range.
	maxSeg := roadnet.SegID(-1)
	for _, f := range frags {
		maxSeg = max(maxSeg, f.Seg)
	}
	slot := make([]int32, maxSeg+1) // per segment: its count, then its cluster
	for _, f := range frags {
		slot[f.Seg]++
	}
	var order []*BaseCluster
	var next []int32 // per cluster: where its next fragment goes
	at := int32(0)
	for seg, n := range slot {
		if n > 0 {
			b := &BaseCluster{Seg: roadnet.SegID(seg), density: int(n)}
			if keep {
				b.Fragments = make([]traj.TFragment, 0, n)
			}
			slot[seg] = int32(len(order))
			order, next = append(order, b), append(next, at)
			at += n
		}
	}
	dense := make([]int32, len(frags))
	num := numbering{x: x}
	for _, f := range frags {
		c := slot[f.Seg]
		dense[next[c]] = num.of(f.Traj)
		next[c]++
		if keep {
			order[c].Fragments = append(order[c].Fragments, f)
		}
	}
	index := num.index()
	at = 0
	for _, b := range order {
		b.trajs = sortedDense(dense[at : at+int32(b.density)])
		b.ids = index.ids
		at += int32(b.density)
	}
	return order, index
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

// trajIndex numbers trajectories densely, in the order they first
// appear: index i is the i-th distinct trajectory of the fragments
// FormBaseClusters grouped, or of a ClusterSet's folds, each fold
// numbering after the last only the trajectories it is the first to
// carry. A fold keeps every number it had, so the clusters it leaves
// untouched keep their lists, and Phase 2 can mark a flow's
// participants in a bit set (flowBuilder). An index is never written
// once built: a fold that adds trajectories builds a new one, and the
// sets holding the old one keep it. A nil index numbers nothing.
//
// Clusters hold only ids, which the indexes of a chain of folds share:
// the first fold to extend an index appends to its ids in place when
// the array has room, claiming its spare capacity (extended), and any
// other fold copies. No slot is written twice, so every holder reads
// its own window unchanged, and the clusters a fold leaves untouched
// pin one growing array rather than an index per fold.
type trajIndex struct {
	ids      []traj.ID // by dense index
	extended atomic.Bool
	sorted   []traj.ID // every id, ascending
	byRank   []int32   // by position in sorted: the id's dense index
}

// newTrajIndex indexes ids, trajectories by dense index, holding no
// claim on the array's spare capacity.
func newTrajIndex(ids []traj.ID) *trajIndex {
	if len(ids) == 0 {
		return nil
	}
	x := &trajIndex{ids: slices.Clip(ids), byRank: make([]int32, len(ids)), sorted: make([]traj.ID, len(ids))}
	for d := range x.byRank {
		x.byRank[d] = int32(d)
	}
	slices.SortFunc(x.byRank, func(a, b int32) int { return cmp.Compare(ids[a], ids[b]) })
	for r, d := range x.byRank {
		x.sorted[r] = ids[d]
	}
	return x
}

// len returns how many trajectories x numbers.
func (x *trajIndex) len() int {
	if x == nil {
		return 0
	}
	return len(x.ids)
}

// numbered returns the ids x numbers, by dense index.
func (x *trajIndex) numbered() []traj.ID {
	if x == nil {
		return nil
	}
	return x.ids
}

// lookup returns id's dense index, if x numbers it.
func (x *trajIndex) lookup(id traj.ID) (int32, bool) {
	if x == nil {
		return 0, false
	}
	r, ok := slices.BinarySearch(x.sorted, id)
	if !ok {
		return 0, false
	}
	return x.byRank[r], true
}

// with returns x extended by fresh, ids x does not number, in the
// order given: fresh[i] gets index x.len()+i.
func (x *trajIndex) with(fresh []traj.ID) *trajIndex {
	n, old := x.len()+len(fresh), x.len()
	y := &trajIndex{
		sorted: make([]traj.ID, 0, n),
		byRank: make([]int32, 0, n),
	}
	switch {
	case x == nil:
		y.ids = fresh
	case x.extended.CompareAndSwap(false, true):
		y.ids = append(x.ids, fresh...)
	default:
		y.ids = append(slices.Clip(x.ids), fresh...)
	}
	add := make([]int32, len(fresh)) // fresh's dense indices, by id
	for i := range add {
		add[i] = int32(old + i)
	}
	slices.SortFunc(add, func(a, b int32) int { return cmp.Compare(y.ids[a], y.ids[b]) })
	for i, j := 0, 0; i < old || j < len(add); {
		var d int32
		if j == len(add) || (i < old && x.sorted[i] < y.ids[add[j]]) {
			d, i = x.byRank[i], i+1
		} else {
			d, j = add[j], j+1
		}
		y.byRank = append(y.byRank, d)
		y.sorted = append(y.sorted, y.ids[d])
	}
	return y
}

// numbering numbers the trajectories of a stream of fragments in x,
// extended by the ones x lacks in first-appearance order. Fragments
// arrive grouped by trajectory, so it looks an id up only when it
// changes.
type numbering struct {
	x     *trajIndex
	fresh []traj.ID
	seen  map[traj.ID]int32 // fresh's indices
	last  traj.ID           // the id of the last call, once begun
	lastD int32             // last's index
	begun bool
}

// of returns id's dense index.
func (n *numbering) of(id traj.ID) int32 {
	if n.begun && id == n.last {
		return n.lastD
	}
	d, ok := n.x.lookup(id)
	if !ok {
		if d, ok = n.seen[id]; !ok {
			if n.seen == nil {
				n.seen = make(map[traj.ID]int32)
			}
			d = int32(n.x.len() + len(n.fresh))
			n.seen[id] = d
			n.fresh = append(n.fresh, id)
		}
	}
	n.last, n.lastD, n.begun = id, d, true
	return d
}

// index returns the index that numbers every id seen so far.
func (n *numbering) index() *trajIndex {
	if len(n.fresh) == 0 {
		return n.x
	}
	return n.x.with(n.fresh)
}

// Participant lists. PTr(S) is an ascending, repeat-free list of dense
// indices shared between clusters and their copies, and PTr(F) an
// ascending, repeat-free id list; the functions below never write an
// input list.

// sortedDense returns the distinct values of d in ascending order, in a
// new exact-size list. It reorders d.
func sortedDense(d []int32) []int32 {
	slices.Sort(d)
	return slices.Clone(slices.Compact(d))
}

// intersectCount returns |a ∩ b| for two ascending, repeat-free lists.
func intersectCount[T cmp.Ordered](a, b []T) int {
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

// commonCount returns |a ∩ b| for two participant lists where a is
// usually the far shorter (a fold's new indices against a whole list):
// it binary-searches each of a's entries in b when that is cheaper
// than a merge.
func commonCount(a, b []int32) int {
	if len(a)*8 >= len(b) {
		return intersectCount(a, b)
	}
	n := 0
	for _, d := range a {
		if _, ok := slices.BinarySearch(b, d); ok {
			n++
		}
	}
	return n
}

// gained returns the entries of group missing from old, ascending, and
// old ∪ group: old itself when nothing is missing, and otherwise a new
// exact-size list. Both lists are ascending and repeat-free.
func gained(old, group []int32) (delta, merged []int32) {
	switch {
	case len(old) == 0:
		return group, group
	case group[0] > old[len(old)-1]:
		// Trajectories new to the set number after every old one.
		merged = make([]int32, len(old)+len(group))
		copy(merged[copy(merged, old):], group)
		return group, merged
	}
	for _, d := range group {
		if _, ok := slices.BinarySearch(old, d); !ok {
			delta = append(delta, d)
		}
	}
	if len(delta) == 0 {
		return nil, old
	}
	merged = make([]int32, 0, len(old)+len(delta))
	i, j := 0, 0
	for i < len(old) && j < len(delta) {
		if old[i] < delta[j] {
			merged = append(merged, old[i])
			i++
		} else {
			merged = append(merged, delta[j])
			j++
		}
	}
	merged = append(merged, old[i:]...)
	return delta, append(merged, delta[j:]...)
}
