package neat

import (
	"fmt"
	"slices"

	"repro/internal/roadnet"
	"repro/internal/traj"
)

// This file is the reconstruction surface internal/persist decodes
// into: constructors that rebuild the unexported derived state
// (participating-trajectory lists, flow endpoints, ε-graph internals)
// from the serializable fields, plus deep-copy helpers so snapshots
// handed to callers can never alias the clusterer's live state. The
// invariant throughout: a Restore* value is indistinguishable from one
// the pipeline built — the recovery byte-identity tests in
// internal/stream depend on it.

// RestoreBaseCluster rebuilds a base cluster from its serialized
// fields. The participating-trajectory list is derived from the
// fragments, exactly as FormBaseClusters derives it.
func RestoreBaseCluster(seg roadnet.SegID, frags []traj.TFragment) *BaseCluster {
	var num numbering
	dense := make([]int32, len(frags))
	for i, f := range frags {
		dense[i] = num.of(f.Traj)
	}
	return &BaseCluster{Seg: seg, Fragments: frags, trajs: sortedDense(dense), ids: num.index().numbered(), density: len(frags)}
}

// RestoreFlow rebuilds a flow cluster from its serialized fields:
// members in route order, the representative route, and the two free
// endpoint junctions. The trajectory list is the union of the members'
// lists (the invariant Phase 2 maintains). It validates the
// route/member correspondence so a corrupt checkpoint cannot smuggle
// in a flow the pipeline could never have built.
func RestoreFlow(members []*BaseCluster, route roadnet.Route, front, back roadnet.NodeID) (*FlowCluster, error) {
	if len(members) == 0 {
		return nil, fmt.Errorf("neat: restore flow with no members")
	}
	if len(route) != len(members) {
		return nil, fmt.Errorf("neat: restore flow: route length %d != member count %d", len(route), len(members))
	}
	f := &FlowCluster{
		Members:  members,
		Route:    route,
		frontEnd: front,
		backEnd:  back,
	}
	var ids []traj.ID
	for i, m := range members {
		if m == nil {
			return nil, fmt.Errorf("neat: restore flow: nil member %d", i)
		}
		if m.Seg != route[i] {
			return nil, fmt.Errorf("neat: restore flow: member %d on segment %d but route says %d", i, m.Seg, route[i])
		}
		f.density += m.Density()
		for _, d := range m.trajs {
			ids = append(ids, m.ids[d])
		}
	}
	slices.Sort(ids)
	f.trajs = slices.Clip(slices.Compact(ids))
	return f, nil
}

// Adjacency returns a deep copy of the maintained ε-graph's adjacency
// rows (row i lists the neighbors of flow i, in the serial builder's
// append order). Checkpoints persist these rows so recovery skips the
// pair evaluation entirely.
func (eg *EpsGraph) Adjacency() [][]int {
	out := make([][]int, len(eg.adjacency))
	for i, row := range eg.adjacency {
		out[i] = append([]int(nil), row...)
	}
	return out
}

// RestoreEpsGraph rebuilds a maintained ε-graph from checkpointed
// flows and adjacency rows, as if the rows had been built by Extend
// calls. Kernel preprocessing runs as in NewEpsGraph; the endpoints
// table is derived from the flows. len(adjacency) must equal
// len(flows) and neighbor indices must be in range (persist validates
// this at decode time; this constructor re-checks as defense in
// depth).
func RestoreEpsGraph(g *roadnet.Graph, cfg RefineConfig, flows []*FlowCluster, adjacency [][]int) (*EpsGraph, error) {
	if len(adjacency) != len(flows) {
		return nil, fmt.Errorf("neat: restore ε-graph: %d adjacency rows for %d flows", len(adjacency), len(flows))
	}
	eg, err := NewEpsGraph(g, cfg)
	if err != nil {
		return nil, err
	}
	for i, row := range adjacency {
		for _, j := range row {
			if j < 0 || j >= len(flows) || j == i {
				return nil, fmt.Errorf("neat: restore ε-graph: row %d has invalid neighbor %d", i, j)
			}
		}
	}
	eg.flows = flows
	eg.endpoints = flowEndpoints(flows)
	eg.adjacency = adjacency
	return eg, nil
}

// CacheScope is the distance-cache scope string Phase 3 binds a cache
// to for a given graph and configuration. Checkpoints persist it next
// to exported cache entries, so recovery imports them only when the
// graph and kernel still match.
func CacheScope(g *roadnet.Graph, cfg RefineConfig) string {
	return cacheScope(g, cfg.withDefaults())
}

// Clone deep-copies the cluster: the flow list and every flow down to
// the fragment point slices are fresh allocations, so mutating the
// clone can never corrupt pipeline or clusterer state. (The
// participating-trajectory lists and base clusters' id numberings are
// shared — they are immutable after construction and identity does
// not leak through any accessor.)
func (c *TrajectoryCluster) Clone() *TrajectoryCluster {
	if c == nil {
		return nil
	}
	out := &TrajectoryCluster{Flows: make([]*FlowCluster, len(c.Flows))}
	for i, f := range c.Flows {
		out.Flows[i] = f.Clone()
	}
	return out
}

// Clone deep-copies the flow cluster (see TrajectoryCluster.Clone).
func (f *FlowCluster) Clone() *FlowCluster {
	if f == nil {
		return nil
	}
	out := &FlowCluster{
		Members:  make([]*BaseCluster, len(f.Members)),
		Route:    append(roadnet.Route(nil), f.Route...),
		trajs:    f.trajs,
		frontEnd: f.frontEnd,
		backEnd:  f.backEnd,
		density:  f.density,
	}
	for i, m := range f.Members {
		out.Members[i] = m.Clone()
	}
	return out
}

// Clone deep-copies the base cluster (see TrajectoryCluster.Clone).
func (b *BaseCluster) Clone() *BaseCluster {
	if b == nil {
		return nil
	}
	out := &BaseCluster{
		Seg:       b.Seg,
		Fragments: make([]traj.TFragment, len(b.Fragments)),
		trajs:     b.trajs,
		ids:       b.ids,
		density:   b.density,
	}
	for i, fr := range b.Fragments {
		fr.Points = append([]traj.Location(nil), fr.Points...)
		out.Fragments[i] = fr
	}
	return out
}

// CloneClusters deep-copies a clustering (see TrajectoryCluster.Clone).
func CloneClusters(cs []*TrajectoryCluster) []*TrajectoryCluster {
	if cs == nil {
		return nil
	}
	out := make([]*TrajectoryCluster, len(cs))
	for i, c := range cs {
		out[i] = c.Clone()
	}
	return out
}
