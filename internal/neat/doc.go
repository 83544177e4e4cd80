// Package neat implements road-network aware trajectory clustering
// (Han, Liu, Omiecinski — ICDCS 2012).
//
// # Mapping from the paper's definitions to this package
//
//	Definition 1  t-fragment            traj.TFragment (built by traj.Partitioner)
//	Definition 2  base cluster          BaseCluster (built by FormBaseClusters)
//	Definition 3  trajectory cardinality BaseCluster.Cardinality / FlowCluster.Cardinality
//	Definition 4  cluster density        BaseCluster.Density; dense-core = DenseCore
//	Definition 5  netflow                Netflow(a, b); FlowCluster.NetflowWith (Phase 2 reads ClusterSet's netflow table)
//	Definition 6  f-neighborhood         ClusterSet.NeighborhoodAt / Neighborhood (Phase 2 runs the same scan)
//	Definition 7  maxFlow-neighbor       ClusterSet.MaxFlowNeighbor
//	Definition 8  flow cluster           FlowCluster (built by FormFlowClusters)
//	Definition 9  q, k, v factors        flowBuilder.selectNeighbor (internal)
//	Definition 10 merging selectivity    Weights + FlowConfig
//	Definition 11 modified Hausdorff     RefineFlows' withinEps (internal)
//	§III-B2       β-domination           FlowConfig.Beta
//	§III-C2       deterministic DBSCAN   RefineFlows (longest-route-first seeding)
//	§III-C3       ELB optimization       RefineConfig.UseELB
//
// # Phases
//
// Phase 1 (base cluster formation) is FormBaseClusters over the
// t-fragments produced by traj.Partitioner; Phase 2 (flow cluster
// formation) is FormFlowClusters; Phase 3 (refinement) is RefineFlows.
// Pipeline ties the phases together behind the paper's three entry
// points: base-NEAT (LevelBase), flow-NEAT (LevelFlow), and opt-NEAT
// (LevelOpt).
//
// # Determinism
//
// Every phase is deterministic for a fixed input: base clusters sort
// by density with segment-id tie-breaks, Phase 2 seeds each round from
// the remaining dense-core, SF ties break by flow-cluster netflow and
// then segment id, and Phase 3's DBSCAN visits flows longest-route
// first — so repeated runs yield identical clusterings, as the paper
// requires of its design.
package neat
