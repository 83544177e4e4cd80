package neat

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/proptest"
	"repro/internal/roadnet"
	"repro/internal/traj"
)

// distinctIDs returns the sorted distinct trajectory ids of frags.
func distinctIDs(frags []traj.TFragment) []traj.ID {
	seen := map[traj.ID]bool{}
	var out []traj.ID
	for _, f := range frags {
		if !seen[f.Traj] {
			seen[f.Traj] = true
			out = append(out, f.Traj)
		}
	}
	slices.Sort(out)
	return out
}

// checkParticipants checks a participant list answers: list is ascending
// and repeat-free and equals want, card is its size, and participates
// is true exactly for its members, probed at every member, one below
// the minimum, one above the maximum and at each gap inside the range.
func checkParticipants(t *testing.T, what string, list, want []traj.ID, card int, participates func(traj.ID) bool) {
	t.Helper()
	if !slices.Equal(list, want) {
		t.Fatalf("%s: participants %v, want %v", what, list, want)
	}
	if card != len(want) {
		t.Fatalf("%s: cardinality %d, want %d", what, card, len(want))
	}
	if len(want) == 0 {
		return
	}
	for _, id := range want {
		if !participates(id) {
			t.Fatalf("%s: Participates(%d) false for a member", what, id)
		}
	}
	absent := []traj.ID{want[0] - 1, want[len(want)-1] + 1}
	for i := 1; i < len(want); i++ {
		if want[i] > want[i-1]+1 {
			absent = append(absent, want[i-1]+1)
		}
	}
	for _, id := range absent {
		if participates(id) {
			t.Fatalf("%s: Participates(%d) true for an absent id", what, id)
		}
	}
}

// checkBaseCluster checks b's fragments are exactly want, in order, in
// an exact-size slice, and that its participant list matches them.
func checkBaseCluster(t *testing.T, what string, b *BaseCluster, want []traj.TFragment) {
	t.Helper()
	if !reflect.DeepEqual(b.Fragments, want) {
		t.Fatalf("%s: segment %d fragments differ from the input order", what, b.Seg)
	}
	if cap(b.Fragments) != len(b.Fragments) {
		t.Fatalf("%s: segment %d fragment slice has cap %d for %d fragments", what, b.Seg, cap(b.Fragments), len(b.Fragments))
	}
	checkParticipants(t, what, b.ParticipatingTrajectories(), distinctIDs(want), b.Cardinality(), b.Participates)
}

// renderBase renders base clusters in order: segment, density and
// participant list.
func renderBase(bs []*BaseCluster) string {
	var b strings.Builder
	for _, c := range bs {
		fmt.Fprintf(&b, "seg=%d d=%d ptr=%v\n", c.Seg, c.Density(), c.ParticipatingTrajectories())
	}
	return b.String()
}

// renderSet renders a cluster set's order, its index by segment, its
// trajectory index and its netflow table, so that two renders differ
// if anything reachable from the set was written.
func renderSet(cs *ClusterSet) string {
	var b strings.Builder
	b.WriteString(renderBase(cs.order))
	for seg, c := range cs.bySeg {
		if c != nil {
			fmt.Fprintf(&b, "index %d: %s frags=%d\n", seg, renderBase([]*BaseCluster{c}), len(c.Fragments))
		}
	}
	if x := cs.index; x != nil {
		fmt.Fprintf(&b, "ids=%v sorted=%v byRank=%v\n", x.ids, x.sorted, x.byRank)
	}
	fmt.Fprintf(&b, "netflow=%v\n", cs.netflow)
	return b.String()
}

// checkFolds folds frags into an empty ClusterSet in random batches,
// then folds a batch whose ids all sort below the folded ones, a batch
// on folded segments only (half its fragments repeat a folded one, half
// carry new ids) and an empty batch. After each fold the set must equal
// FormBaseClusters over everything folded so far, hold no fragments,
// carry the netflow table NewClusterSet fills over those clusters, whose
// entries are Definition 5's netflows (checkNetflowTable), and
// leave every earlier set unchanged. A batch with an off-graph fragment
// must fail and leave the set unchanged.
func checkFolds(t *testing.T, what string, g *roadnet.Graph, rng *rand.Rand, frags []traj.TFragment) {
	t.Helper()
	var batches [][]traj.TFragment
	for rest := frags; len(rest) > 0; {
		n := 1 + rng.Intn(len(rest))
		batches = append(batches, rest[:n])
		rest = rest[n:]
	}
	ids := distinctIDs(frags)
	var below, existing []traj.TFragment
	for i := traj.ID(0); i < 3; i++ {
		f := frags[rng.Intn(len(frags))]
		f.Traj = ids[0] - 1 - i
		below = append(below, f)
		f = frags[rng.Intn(len(frags))]
		existing = append(existing, f)
		f.Traj = ids[len(ids)-1] + 1 + i
		existing = append(existing, f)
	}
	batches = append(batches, below, existing, nil)

	cs, err := NewClusterSet(g, nil)
	if err != nil {
		t.Fatal(err)
	}
	sets, renders := []*ClusterSet{cs}, []string{renderSet(cs)}
	var folded []traj.TFragment
	for i, batch := range batches {
		for _, seg := range []roadnet.SegID{-1, roadnet.SegID(g.NumSegments())} {
			bad := append(slices.Clone(batch), traj.TFragment{Traj: ids[0], Seg: seg})
			if _, err := cs.Extend(bad); err == nil {
				t.Fatalf("%s fold %d: fragment on segment %d folded without error", what, i, seg)
			}
			if renderSet(cs) != renders[i] {
				t.Fatalf("%s fold %d: a failed fold changed the set", what, i)
			}
		}
		next, err := cs.Extend(batch)
		if err != nil {
			t.Fatalf("%s fold %d: %v", what, i, err)
		}
		folded = append(folded, batch...)
		base := FormBaseClusters(folded)
		if got, want := renderBase(next.order), renderBase(base); got != want {
			t.Fatalf("%s fold %d: set\n%s\nwant FormBaseClusters over everything folded:\n%s", what, i, got, want)
		}
		fresh, err := NewClusterSet(g, base)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(next.netflow, fresh.netflow) {
			t.Fatalf("%s fold %d: netflow table differs from one built from scratch", what, i)
		}
		checkNetflowTable(t, fmt.Sprintf("%s fold %d", what, i), next, folded)
		indexed := 0
		for seg, c := range next.bySeg {
			if c == nil {
				continue
			}
			indexed++
			if c.Seg != roadnet.SegID(seg) || c.Fragments != nil {
				t.Fatalf("%s fold %d: index %d holds cluster %v with %d fragments", what, i, seg, c, len(c.Fragments))
			}
		}
		if indexed != len(next.order) {
			t.Fatalf("%s fold %d: %d clusters indexed, %d ordered", what, i, indexed, len(next.order))
		}
		for j, prev := range sets {
			if renderSet(prev) != renders[j] {
				t.Fatalf("%s fold %d: set %d changed", what, i, j)
			}
		}
		cs = next
		sets, renders = append(sets, next), append(renders, renderSet(next))
	}
}

func TestPropertyBaseClusterInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	split := rand.New(rand.NewSource(8))
	for trial := 0; trial < 40; trial++ {
		g, frags := proptest.RandomScenario(t, rng)
		bs := FormBaseClusters(frags)
		total := 0
		seen := map[roadnet.SegID]bool{}
		for i, b := range bs {
			total += b.Density()
			if seen[b.Seg] {
				t.Fatalf("trial %d: duplicate segment %d", trial, b.Seg)
			}
			seen[b.Seg] = true
			if i > 0 && bs[i-1].Density() < b.Density() {
				t.Fatalf("trial %d: not density sorted", trial)
			}
			if b.Cardinality() > b.Density() {
				t.Fatalf("trial %d: cardinality %d > density %d", trial, b.Cardinality(), b.Density())
			}
			if b.Cardinality() == 0 {
				t.Fatalf("trial %d: empty cluster", trial)
			}
		}
		if total != len(frags) {
			t.Fatalf("trial %d: clusters hold %d fragments, input %d", trial, total, len(frags))
		}
		// Each cluster holds its segment's fragments in input order, and
		// its participant list is their distinct trajectory ids. The
		// input numbers trajectories in ascending order; the shuffled
		// input spreads every trajectory's fragments out of contiguous
		// runs and out of id order, and the permuted one relabels the
		// trajectories with a permutation of their ids.
		shuffled := slices.Clone(frags)
		rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
		perm := split.Perm(len(distinctIDs(frags)))
		permuted := slices.Clone(frags)
		for i := range permuted {
			permuted[i].Traj = traj.ID(perm[permuted[i].Traj])
		}
		for _, tc := range []struct {
			name string
			in   []traj.TFragment
		}{{"input", frags}, {"shuffled", shuffled}, {"permuted", permuted}} {
			name, in := tc.name, tc.in
			bySeg := map[roadnet.SegID][]traj.TFragment{}
			for _, f := range in {
				bySeg[f.Seg] = append(bySeg[f.Seg], f)
			}
			got := FormBaseClusters(in)
			if len(got) != len(bs) {
				t.Fatalf("trial %d %s: %d clusters, want %d", trial, name, len(got), len(bs))
			}
			for i, b := range got {
				if b.Seg != bs[i].Seg {
					t.Fatalf("trial %d %s: cluster %d on segment %d, want %d", trial, name, i, b.Seg, bs[i].Seg)
				}
				checkBaseCluster(t, name, b, bySeg[b.Seg])
			}
			checkFolds(t, fmt.Sprintf("trial %d %s", trial, name), g, split, in)
		}
	}
}

func TestPropertyNetflowBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 40; trial++ {
		_, frags := proptest.RandomScenario(t, rng)
		bs := FormBaseClusters(frags)
		for i := 0; i < len(bs) && i < 8; i++ {
			for j := 0; j < len(bs) && j < 8; j++ {
				f := Netflow(bs[i], bs[j])
				if f != Netflow(bs[j], bs[i]) {
					t.Fatal("netflow not symmetric")
				}
				min := bs[i].Cardinality()
				if c := bs[j].Cardinality(); c < min {
					min = c
				}
				if f < 0 || f > min {
					t.Fatalf("netflow %d out of [0, %d]", f, min)
				}
				if i == j && f != bs[i].Cardinality() {
					t.Fatalf("self netflow %d != cardinality %d", f, bs[i].Cardinality())
				}
			}
		}
	}
}

func TestPropertyFlowFormationPartition(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	weights := []Weights{WeightsFlowOnly, WeightsDensityOnly, WeightsBalanced}
	for trial := 0; trial < 40; trial++ {
		g, frags := proptest.RandomScenario(t, rng)
		bs := FormBaseClusters(frags)
		cfg := FlowConfig{Weights: weights[trial%len(weights)]}
		if trial%2 == 1 {
			cfg.Beta = 2
		}
		flows, filtered, err := FormFlowClusters(g, bs, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if filtered != 0 {
			t.Fatalf("trial %d: filtered %d with minCard 0", trial, filtered)
		}
		// Every base cluster lands in exactly one flow, and a flow's
		// participants are the union of its members'.
		assigned := map[roadnet.SegID]int{}
		for _, f := range flows {
			var members []traj.TFragment
			for _, m := range f.Members {
				members = append(members, m.Fragments...)
			}
			checkParticipants(t, "flow", f.ParticipatingTrajectories(), distinctIDs(members), f.Cardinality(), f.Participates)
			if err := f.Route.Validate(g); err != nil {
				t.Fatalf("trial %d: invalid route: %v", trial, err)
			}
			for _, s := range f.Route {
				assigned[s]++
			}
			if f.Cardinality() == 0 || f.Density() == 0 {
				t.Fatalf("trial %d: degenerate flow", trial)
			}
		}
		for _, b := range bs {
			if assigned[b.Seg] != 1 {
				t.Fatalf("trial %d: segment %d assigned %d times", trial, b.Seg, assigned[b.Seg])
			}
		}
		if len(assigned) != len(bs) {
			t.Fatalf("trial %d: %d assigned vs %d clusters", trial, len(assigned), len(bs))
		}
		// Flows share their members' lists and never write them.
		for _, b := range bs {
			checkParticipants(t, "member", b.ParticipatingTrajectories(), distinctIDs(b.Fragments), b.Cardinality(), b.Participates)
		}
	}
}

func TestPropertyRefinePartition(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 25; trial++ {
		g, frags := proptest.RandomScenario(t, rng)
		bs := FormBaseClusters(frags)
		flows, _, err := FormFlowClusters(g, bs, FlowConfig{})
		if err != nil {
			t.Fatal(err)
		}
		eps := 100 + rng.Float64()*3000
		clusters, stats, err := RefineFlows(g, flows, RefineConfig{Epsilon: eps, UseELB: trial%2 == 0, Bounded: true})
		if err != nil {
			t.Fatal(err)
		}
		count := 0
		for _, c := range clusters {
			if len(c.Flows) == 0 {
				t.Fatalf("trial %d: empty cluster", trial)
			}
			count += len(c.Flows)
			seen := map[traj.ID]bool{}
			for _, f := range c.Flows {
				for _, id := range f.ParticipatingTrajectories() {
					seen[id] = true
				}
			}
			if c.Cardinality() != len(seen) {
				t.Fatalf("trial %d: cluster cardinality %d, union of its flows has %d", trial, c.Cardinality(), len(seen))
			}
		}
		if count != len(flows) {
			t.Fatalf("trial %d: clusters hold %d flows, input %d", trial, count, len(flows))
		}
		wantPairs := len(flows) * (len(flows) - 1) / 2
		if stats.Pairs != wantPairs {
			t.Fatalf("trial %d: pairs %d, want %d", trial, stats.Pairs, wantPairs)
		}
	}
}

// TestPropertyClusterCardinality holds TrajectoryCluster.Cardinality's
// merge count to its definition, the size of the sorted and compacted
// concatenation of the flows' participant lists, over random clusters
// of up to 40 flows (past the merge's 16-list stack buffer). The
// lists are drawn from a small id range so flows overlap, and some
// are empty, including whole clusters of empty lists.
func TestPropertyClusterCardinality(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 500; trial++ {
		c := &TrajectoryCluster{}
		span := 1 + rng.Intn(60)
		var all []traj.ID
		for f := rng.Intn(41); f > 0; f-- {
			var ids []traj.ID
			if rng.Intn(5) > 0 {
				for n := rng.Intn(span + 1); n > 0; n-- {
					ids = append(ids, traj.ID(rng.Intn(span)))
				}
				slices.Sort(ids)
				ids = slices.Compact(ids)
			}
			all = append(all, ids...)
			c.Flows = append(c.Flows, &FlowCluster{trajs: ids})
		}
		slices.Sort(all)
		if got, want := c.Cardinality(), len(slices.Compact(all)); got != want {
			t.Fatalf("trial %d: %d flows over ids [0, %d): cardinality %d, want %d", trial, len(c.Flows), span, got, want)
		}
	}
}
