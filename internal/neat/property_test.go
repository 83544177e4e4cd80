package neat

import (
	"math/rand"
	"reflect"
	"slices"
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

func TestPropertyBaseClusterInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 40; trial++ {
		_, frags := proptest.RandomScenario(t, rng)
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
		// shuffled input spreads every trajectory's fragments out of
		// contiguous runs and out of id order.
		shuffled := slices.Clone(frags)
		rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
		for _, tc := range []struct {
			name string
			in   []traj.TFragment
		}{{"input", frags}, {"shuffled", shuffled}} {
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
