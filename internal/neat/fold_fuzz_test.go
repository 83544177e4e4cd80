package neat

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"

	"repro/internal/geo"
	"repro/internal/roadnet"
	"repro/internal/traj"
)

// foldGraph is FuzzClusterSetFold's road network: a junction where
// four segments meet, two parallel segments and a chain, so netflow
// triangles of several sizes, pairs meeting at both ends and dead ends
// all occur.
func foldGraph(t testing.TB) *roadnet.Graph {
	var b roadnet.Builder
	var n []roadnet.NodeID
	for _, p := range []geo.Point{{X: 0, Y: 0}, {X: 100, Y: 0}, {X: 0, Y: 100}, {X: -100, Y: 0}, {X: 0, Y: -100}, {X: 0, Y: -200}} {
		n = append(n, b.AddJunction(p))
	}
	for _, e := range [][2]int{{0, 1}, {0, 2}, {0, 3}, {0, 4}, {1, 2}, {1, 2}, {3, 4}, {4, 5}} {
		if _, err := b.AddSegment(n[e[0]], n[e[1]], roadnet.SegmentOpts{}); err != nil {
			t.Fatal(err)
		}
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// foldBatches decodes fuzz input into fragment batches on g. Each
// fragment takes a control byte and a segment byte. Control bit 0
// starts a new batch; bit 1 repeats an id already drawn, folded or
// not, chosen by the remaining bits; otherwise the next four bytes are
// the id, any int32. Every fold is checked against every earlier set,
// so the input is cut at maxFoldFrags fragments in maxFolds batches.
func foldBatches(g *roadnet.Graph, data []byte) [][]traj.TFragment {
	const maxFolds, maxFoldFrags = 12, 256
	var batches [][]traj.TFragment
	var batch []traj.TFragment
	var drawn []traj.ID
	for n := 0; len(data) >= 2 && n < maxFoldFrags; n++ {
		ctl, seg := data[0], data[1]
		data = data[2:]
		if ctl&1 != 0 && len(batches) < maxFolds-1 {
			batches = append(batches, batch)
			batch = nil
		}
		var id traj.ID
		switch {
		case ctl&2 != 0 && len(drawn) > 0:
			id = drawn[int(ctl>>2)%len(drawn)]
		case len(data) >= 4:
			id = traj.ID(int32(binary.LittleEndian.Uint32(data)))
			data = data[4:]
			drawn = append(drawn, id)
		default:
			id = traj.ID(ctl >> 2)
		}
		batch = append(batch, traj.TFragment{Traj: id, Seg: roadnet.SegID(int(seg) % g.NumSegments()), Index: len(batch)})
	}
	return append(batches, batch)
}

// renderFlows renders Phase 2's output as a server reads it: routes,
// ends, densities, cardinalities and participant lists, in order.
func renderFlows(flows []*FlowCluster, filtered int) string {
	var b strings.Builder
	for _, f := range flows {
		front, back := f.Endpoints()
		fmt.Fprintf(&b, "route=%v ends=%d,%d d=%d card=%d ptr=%v\n", f.Route, front, back, f.Density(), f.Cardinality(), f.ParticipatingTrajectories())
	}
	fmt.Fprintf(&b, "filtered=%d\n", filtered)
	return b.String()
}

// checkFlowParticipants checks every flow's participant list against
// its members' own: their union, ascending.
func checkFlowParticipants(t *testing.T, what string, flows []*FlowCluster) {
	t.Helper()
	for i, f := range flows {
		var want []traj.ID
		for _, m := range f.Members {
			want = append(want, m.ParticipatingTrajectories()...)
		}
		slices.Sort(want)
		if got := f.ParticipatingTrajectories(); !slices.Equal(got, slices.Compact(want)) {
			t.Fatalf("%s: flow %d participants %v, members' union %v", what, i, got, want)
		}
	}
}

// checkNetflowTable checks cs's netflow table against Definition 5,
// computed from frags, the fragments folded into cs, independently of
// the fold and of the table's offsets: entries run junction by
// junction and, within junction n, by position i of g.SegmentsAt(n)
// and then by j < i, and each must count the trajectories with a
// fragment on both segments, 0 when either has none.
func checkNetflowTable(t *testing.T, what string, cs *ClusterSet, frags []traj.TFragment) {
	t.Helper()
	on := make(map[roadnet.SegID]map[traj.ID]bool) // each segment's trajectories
	for _, f := range frags {
		if on[f.Seg] == nil {
			on[f.Seg] = make(map[traj.ID]bool)
		}
		on[f.Seg][f.Traj] = true
	}
	k := 0
	for n := range cs.g.NumNodes() {
		nu := roadnet.NodeID(n)
		at := cs.g.SegmentsAt(nu)
		for i := range at {
			for j := range i {
				want := 0
				for id := range on[at[i]] {
					if on[at[j]][id] {
						want++
					}
				}
				if k >= len(cs.netflow) {
					t.Fatalf("%s: netflow table of %d entries ends before junction %d's pairs", what, len(cs.netflow), n)
				}
				if got := int(cs.netflow[k]); got != want || cs.pair(nu, i, j) != k || cs.pair(nu, j, i) != k {
					t.Fatalf("%s: junction %d, segments %d and %d: netflow %d at entry %d (pair offsets %d, %d), want %d",
						what, n, at[i], at[j], got, k, cs.pair(nu, i, j), cs.pair(nu, j, i), want)
				}
				k++
			}
		}
	}
	if k != len(cs.netflow) {
		t.Fatalf("%s: netflow table holds %d entries, the junctions %d pairs", what, len(cs.netflow), k)
	}
}

// FuzzClusterSetFold folds fuzzed batches into a cluster set, one
// Extend each, with arbitrary int32 ids that repeat within and across
// batches. After each fold the set must equal a set built from scratch
// over everything folded so far: the clusters FormBaseClusters forms,
// the netflow table NewClusterSet fills, which must also hold
// Definition 5's netflows (checkNetflowTable), and the flows
// FormFlowClusters forms (flow weights alone, and balanced weights
// with β = 2). Every earlier set must still render as it did when
// built.
func FuzzClusterSetFold(f *testing.F) {
	f.Add([]byte{0, 0, 1, 0, 0, 0, 2, 1, 0, 3, 6, 1, 0, 0, 0, 0})
	f.Add([]byte{0, 4, 0xff, 0xff, 0xff, 0x7f, 0, 5, 0, 0, 0, 0x80, 1, 4, 0xfe, 0xff, 0xff, 0xff, 2, 5, 6, 4, 1, 7, 3, 0, 0, 0})
	f.Add([]byte{0, 0, 9, 0, 0, 0, 0, 1, 8, 0, 0, 0, 3, 2, 7, 3, 0, 0, 0, 0, 2, 6, 3, 4, 5, 0, 0, 0, 3, 0, 6, 5})
	g := foldGraph(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		cs, err := NewClusterSet(g, nil)
		if err != nil {
			t.Fatal(err)
		}
		sets, renders := []*ClusterSet{cs}, []string{renderSet(cs)}
		var folded []traj.TFragment
		for i, batch := range foldBatches(g, data) {
			next, err := cs.Extend(batch)
			if err != nil {
				t.Fatalf("fold %d: %v", i, err)
			}
			folded = append(folded, batch...)
			base := FormBaseClusters(folded)
			if got, want := renderBase(next.order), renderBase(base); got != want {
				t.Fatalf("fold %d: set\n%s\nwant FormBaseClusters over everything folded:\n%s", i, got, want)
			}
			fresh, err := NewClusterSet(g, base)
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(next.netflow, fresh.netflow) {
				t.Fatalf("fold %d: netflow table %v, built from scratch %v", i, next.netflow, fresh.netflow)
			}
			checkNetflowTable(t, fmt.Sprintf("fold %d", i), next, folded)
			for _, cfg := range []FlowConfig{{Weights: WeightsFlowOnly}, {Weights: WeightsBalanced, Beta: 2, MinCard: 2}} {
				want, wantFiltered, err := FormFlowClusters(g, base, cfg)
				if err != nil {
					t.Fatal(err)
				}
				got, gotFiltered := next.formFlows(next.order, cfg.withDefaults())
				if a, b := renderFlows(got, gotFiltered), renderFlows(want, wantFiltered); a != b {
					t.Fatalf("fold %d %+v: flows\n%s\nwant FormFlowClusters from scratch:\n%s", i, cfg, a, b)
				}
				checkFlowParticipants(t, fmt.Sprintf("fold %d", i), got)
			}
			for j, prev := range sets {
				if renderSet(prev) != renders[j] {
					t.Fatalf("fold %d: set %d changed", i, j)
				}
			}
			cs = next
			sets, renders = append(sets, next), append(renders, renderSet(next))
		}
	})
}

// TestFoldIDExtremes folds the extreme int32 ids, negative ones and
// an already-folded trajectory onto new segments, and checks the set
// against one built from scratch, as FuzzClusterSetFold does.
func TestFoldIDExtremes(t *testing.T) {
	g := foldGraph(t)
	frag := func(id traj.ID, seg roadnet.SegID) traj.TFragment { return traj.TFragment{Traj: id, Seg: seg} }
	batches := [][]traj.TFragment{
		{frag(math.MaxInt32, 0), frag(math.MaxInt32, 1), frag(-1, 0), frag(-1, 3)},
		{frag(math.MinInt32, 1), frag(math.MinInt32, 2), frag(0, 2), frag(0, 0)},
		{frag(-1, 2), frag(-1, 1), frag(math.MaxInt32, 3), frag(7, 4), frag(7, 5)},
		{frag(-1, 6), frag(math.MinInt32, 4), frag(7, 0)},
	}
	cs, err := NewClusterSet(g, nil)
	if err != nil {
		t.Fatal(err)
	}
	var folded []traj.TFragment
	for i, batch := range batches {
		if cs, err = cs.Extend(batch); err != nil {
			t.Fatal(err)
		}
		folded = append(folded, batch...)
		base := FormBaseClusters(folded)
		fresh, err := NewClusterSet(g, base)
		if err != nil {
			t.Fatal(err)
		}
		if renderBase(cs.order) != renderBase(base) || !slices.Equal(cs.netflow, fresh.netflow) {
			t.Fatalf("fold %d: set or netflow table differs from one built from scratch", i)
		}
		for _, b := range cs.order {
			for _, id := range b.ParticipatingTrajectories() {
				if !b.Participates(id) {
					t.Fatalf("fold %d: segment %d does not report participant %d", i, b.Seg, id)
				}
			}
		}
		cfg := FlowConfig{Weights: WeightsBalanced, Beta: 2}
		want, wantFiltered, err := FormFlowClusters(g, base, cfg)
		if err != nil {
			t.Fatal(err)
		}
		got, gotFiltered := cs.formFlows(cs.order, cfg.withDefaults())
		if a, b := renderFlows(got, gotFiltered), renderFlows(want, wantFiltered); a != b {
			t.Fatalf("fold %d: flows\n%s\nwant:\n%s", i, a, b)
		}
		checkFlowParticipants(t, fmt.Sprintf("fold %d", i), got)
	}
}

// TestFlowParticipantsOutOfIDOrder forms small flows over many
// trajectories whose ids fall as they appear, so dense order is the
// reverse of id order and each flow's list must be sorted
// (flowBuilder.finish): twenty two-segment roads, each crossed end to
// end by three trajectories.
func TestFlowParticipantsOutOfIDOrder(t *testing.T) {
	var b roadnet.Builder
	var frags []traj.TFragment
	for c := 0; c < 20; c++ {
		var n [3]roadnet.NodeID
		for k := range n {
			n[k] = b.AddJunction(geo.Point{X: float64(100 * k), Y: float64(1000 * c)})
		}
		var segs [2]roadnet.SegID
		for k := range segs {
			s, err := b.AddSegment(n[k], n[k+1], roadnet.SegmentOpts{})
			if err != nil {
				t.Fatal(err)
			}
			segs[k] = s
		}
		for j := 0; j < 3; j++ {
			id := traj.ID(1000 - 3*c - j)
			for k, s := range segs {
				frags = append(frags, traj.TFragment{Traj: id, Seg: s, Index: k})
			}
		}
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	flows, _, err := FormFlowClusters(g, FormBaseClusters(frags), FlowConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if len(flows) != 20 {
		t.Fatalf("%d flows, want one per road", len(flows))
	}
	checkFlowParticipants(t, "descending ids", flows)
}

// TestClusterSetRenumbersMixedIndexes builds a set from clusters that
// RestoreBaseCluster numbered one by one, as a decoded checkpoint's
// are: the set must hold renumbered copies whose netflow table and
// flows equal those of the same clusters formed in one call.
func TestClusterSetRenumbersMixedIndexes(t *testing.T) {
	g := foldGraph(t)
	frags := foldBatches(g, []byte{0, 0, 9, 0, 0, 0, 0, 1, 8, 0, 0, 0, 2, 1, 2, 2, 0, 4, 3, 0, 0, 0, 2, 3, 6, 5, 2, 4, 0, 6, 1, 0, 0, 0, 6, 7, 2, 7})[0]
	base := FormBaseClusters(frags)
	restored := make([]*BaseCluster, len(base))
	for i, b := range base {
		restored[i] = RestoreBaseCluster(b.Seg, b.Fragments)
	}
	want, err := NewClusterSet(g, base)
	if err != nil {
		t.Fatal(err)
	}
	got, err := NewClusterSet(g, restored)
	if err != nil {
		t.Fatal(err)
	}
	if renderBase(got.order) != renderBase(want.order) || !slices.Equal(got.netflow, want.netflow) {
		t.Fatal("renumbered set or netflow table differs from the one-call set")
	}
	for _, b := range got.order {
		if !sameNumbering(b.ids, got.index.numbered()) {
			t.Fatalf("segment %d keeps its own numbering", b.Seg)
		}
	}
	cfg := FlowConfig{Weights: WeightsBalanced, Beta: 2}
	wantFlows, wantFiltered, err := FormFlowClusters(g, base, cfg)
	if err != nil {
		t.Fatal(err)
	}
	gotFlows, gotFiltered, err := FormFlowClusters(g, restored, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a, b := renderFlows(gotFlows, gotFiltered), renderFlows(wantFlows, wantFiltered); a != b {
		t.Fatalf("flows over restored clusters\n%s\nwant:\n%s", a, b)
	}
	for _, m := range gotFlows[0].Members {
		if Netflow(m, restored[0]) != Netflow(base[slices.IndexFunc(base, func(b *BaseCluster) bool { return b.Seg == m.Seg })], base[0]) {
			t.Fatalf("netflow across indexes differs for segment %d", m.Seg)
		}
	}
}

// TestForkedFolds extends one set twice, and one child again: the
// first fold appends its new trajectory to the parent's id array in
// place, the second, whose one new trajectory would fit there too,
// must copy, and every set must still equal one built from scratch
// over its own fragments.
func TestForkedFolds(t *testing.T) {
	g := foldGraph(t)
	frag := func(id traj.ID, seg roadnet.SegID) traj.TFragment { return traj.TFragment{Traj: id, Seg: seg} }
	root := []traj.TFragment{frag(5, 0), frag(5, 1), frag(9, 1), frag(9, 4), frag(2, 2)}
	forks := [][]traj.TFragment{
		{frag(11, 0), frag(11, 2), frag(5, 3)},
		{frag(12, 1), frag(12, 4), frag(2, 0), frag(9, 6)},
		{frag(14, 3), frag(11, 7)},
	}
	empty, err := NewClusterSet(g, nil)
	if err != nil {
		t.Fatal(err)
	}
	parent, err := empty.Extend(root)
	if err != nil {
		t.Fatal(err)
	}
	check := func(what string, cs *ClusterSet, frags []traj.TFragment) {
		t.Helper()
		base := FormBaseClusters(frags)
		fresh, err := NewClusterSet(g, base)
		if err != nil {
			t.Fatal(err)
		}
		if renderBase(cs.order) != renderBase(base) || !slices.Equal(cs.netflow, fresh.netflow) {
			t.Fatalf("%s: set or netflow table differs from one built from scratch", what)
		}
		want, wantFiltered, err := FormFlowClusters(g, base, FlowConfig{})
		if err != nil {
			t.Fatal(err)
		}
		got, gotFiltered := cs.formFlows(cs.order, FlowConfig{}.withDefaults())
		if a, b := renderFlows(got, gotFiltered), renderFlows(want, wantFiltered); a != b {
			t.Fatalf("%s: flows\n%s\nwant:\n%s", what, a, b)
		}
	}
	a, err := parent.Extend(forks[0])
	if err != nil {
		t.Fatal(err)
	}
	b, err := parent.Extend(forks[1])
	if err != nil {
		t.Fatal(err)
	}
	c, err := a.Extend(forks[2])
	if err != nil {
		t.Fatal(err)
	}
	check("parent", parent, root)
	check("first fork", a, append(slices.Clone(root), forks[0]...))
	check("second fork", b, append(slices.Clone(root), forks[1]...))
	check("first fork extended", c, slices.Concat(root, forks[0], forks[2]))
}
