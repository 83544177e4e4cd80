// Package repro is a from-scratch Go reproduction of "NEAT: Road
// Network Aware Trajectory Clustering" (Han, Liu, Omiecinski —
// ICDCS 2012).
//
// The implementation lives under internal/: see internal/neat for the
// three-phase clustering pipeline (neat.NewPipeline, Pipeline.Run), and
// DESIGN.md for the full system inventory and the per-experiment index.
// The root-level bench_test.go exposes one testing.B benchmark per
// table and figure of the paper's evaluation; cmd/neatbench prints the
// corresponding paper-vs-measured reports.
package repro
