package main

import (
	"fmt"
	"sort"
	"strings"
	"time"
)

// traceLayers computes the per-layer metrics. R metrics are deltas of
// the server's own registry over the untraced run — the series /metrics
// exports. T metrics come from the replay: it runs once with nil spans
// and once traced over the same ops, and the difference is the tracing
// overhead. Layer times are reported as shares of the replay's op time
// (or of its setup, for setup-only layers), so a layer a workload never
// calls reads 0% rather than a time; gen.replay_op_ms turns a share back
// into milliseconds per op.
func traceLayers(pl *plan, lr loadResult, before, after registry, prepared, scratch string, seconds int) (map[string]metric, string, error) {
	budget := time.Duration(seconds) * time.Second / 4
	plain, err := replay(pl, false, -1, budget, prepared, scratch)
	if err != nil {
		return nil, "", err
	}
	tr, err := replay(pl, true, plain.ops, 0, prepared, scratch)
	if err != nil {
		return nil, "", err
	}

	m := map[string]metric{}
	put := func(name string, v float64, unit string) { m[name] = metric{v, unit} }
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	delta := func(name string) float64 { return after.counters[name] - before.counters[name] }
	share := func(spans map[string]time.Duration, total time.Duration, names ...string) float64 {
		var sum time.Duration
		for _, n := range names {
			sum += spans[n]
		}
		return 100 * ratio(float64(sum), float64(total))
	}
	opPct := func(names ...string) float64 { return share(tr.spans, tr.opTime, names...) }
	setupPct := func(names ...string) float64 { return share(tr.setupSpans, tr.setupTime, names...) }
	msOf := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

	var reqs, ops []time.Duration
	for _, o := range lr.ops {
		ops = append(ops, o.total)
		for _, s := range o.steps {
			reqs = append(reqs, s.lat)
		}
	}
	var reqSum time.Duration
	for _, d := range reqs {
		reqSum += d
	}
	put("gen.timer_lag_p50_ms", quantile(ms(lr.timerLag), 0.5), "ms")
	put("gen.late_max_ms", msOf(lr.lateMax), "ms")
	put("gen.request_ms", ratio(msOf(reqSum), float64(len(reqs))), "ms")
	put("gen.op_p95_ms", quantile(ms(ops), 0.95), "ms")
	put("gen.replay_op_ms", ratio(msOf(tr.opTime), float64(tr.ops)), "ms")
	put("gen.replay_setup_ms", msOf(tr.setupTime), "ms")
	put("gen.trace_overhead_pct", 100*(ratio(float64(tr.opTime), float64(plain.opTime))-1), "%")

	handled := after.counts["http_request_duration_seconds"] - before.counts["http_request_duration_seconds"]
	busy := after.sums["http_request_duration_seconds"] - before.sums["http_request_duration_seconds"]
	put("server.handler_ms", 1000*ratio(busy, handled), "ms")
	hits, misses := delta("server_cache_hits_total"), delta("server_cache_misses_total")
	put("server.memo_hits", hits, "count")
	put("server.memo_misses", misses, "count")
	put("server.memo_hit_ratio", ratio(hits, hits+misses), "ratio")
	put("server.decode_ingest_pct", opPct("server.decode_ingest"), "%")
	put("server.encode_cluster_pct", opPct("server.encode_cluster"), "%")
	put("server.encode_query_pct", opPct("server.encode_query"), "%")

	put("guard.admit_pct", opPct("guard.admit"), "%")
	put("guard.shed", delta("neat_shed_requests_total"), "count")

	put("session.ingest_pct", opPct("session.ingest"), "%")
	put("session.ingested_trajs", delta("server_ingest_trajectories_total"), "count")
	put("session.ingested_frags", delta("server_ingest_fragments_total"), "count")
	put("traj.partition_pct", opPct("traj.partition"), "%")

	runs := delta("neat_runs_total")
	put("neat.runs", runs, "count")
	put("neat.phase1_pct", opPct("phase1.partition", "phase1.base_clusters"), "%")
	put("neat.phase2_pct", opPct("phase2.flow_clusters"), "%")
	put("neat.phase3_pct", opPct("phase3.refine"), "%")
	put("neat.eps_graph_pct", opPct("phase3.eps_graph"), "%")
	put("neat.flows", ratio(float64(tr.flows), float64(tr.runs)), "count")
	put("neat.pairs", ratio(float64(tr.pairs), float64(tr.runs)), "count")
	put("neat.elb_pruned", ratio(float64(tr.elb), float64(tr.runs)), "count")
	put("dbscan.run_pct", opPct("phase3.dbscan"), "%")
	put("shortest.sp_queries", ratio(delta("neat_sp_queries_total"), runs), "count")
	put("shortest.settled_nodes", ratio(delta("neat_settled_nodes_total"), runs), "count")

	dh, dm := delta("distcache_hits_total"), delta("distcache_misses_total")
	put("distcache.hits", dh, "count")
	put("distcache.misses", dm, "count")
	put("distcache.hit_ratio", ratio(dh, dh+dm), "ratio")
	put("distcache.evictions", delta("distcache_evictions_total"), "count")
	put("distcache.entries", after.gauges["distcache_entries"], "count")

	put("persist.append_pct", opPct("persist.append"), "%")
	put("persist.encode_pct", opPct("persist.encode"), "%")
	put("persist.checkpoint_pct", opPct("persist.checkpoint"), "%")
	put("persist.open_pct", setupPct("persist.open"), "%")
	put("persist.replayed_records", float64(tr.replayed), "count")
	put("persist.appends", delta("neat_wal_appends_total"), "count")
	put("persist.fsyncs", delta("neat_wal_fsyncs_total"), "count")
	put("persist.wal_bytes", delta("neat_wal_bytes_total"), "bytes")
	put("persist.checkpoints", delta("neat_checkpoint_writes_total"), "count")
	put("persist.checkpoint_bytes", after.gauges["neat_checkpoint_bytes"], "bytes")

	put("trajindex.build_pct", setupPct("trajindex.build"), "%")
	put("trajindex.query_pct", opPct("trajindex.query"), "%")
	put("trajindex.ids_per_query", ratio(float64(tr.ids), float64(tr.queries)), "count")

	var b strings.Builder
	fmt.Fprintf(&b, "per-layer metrics (registry deltas over the run; replay of %d ops, %.1f ms setup, traced vs untraced op time %v vs %v):\n",
		tr.ops, msOf(tr.setupTime), tr.opTime.Round(time.Microsecond), plain.opTime.Round(time.Microsecond))
	names := make([]string, 0, len(m))
	for k := range m {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Fprintf(&b, "  %-28s %14.4f %s\n", k, m[k].Value, m[k].Unit)
	}
	writeTrees(&b, tr)
	return m, b.String(), nil
}
