// Command neatserver runs the NEAT trajectory-clustering service of
// §II-C over a road network: clients POST trajectories and GET
// clustering results. The process is fully observable: every request,
// cache lookup, and pipeline run records into an internal/obs registry
// scraped at /metrics, and SIGINT/SIGTERM drain in-flight requests
// before exit.
//
// Usage:
//
//	neatserver -map map.csv [-addr :8080] [-datanodes 4] [-cache-entries 262144]
//	neatserver -region ATL -scale 0.1 [-addr :8080] [-drain 10s] [-max-inflight 16] [-request-timeout 30s]
//	neatserver -region ATL -data-dir /var/lib/neat [-fsync always] [-checkpoint-every 8]
//	neatserver -region ATL -max-sessions 32
//	neatserver -region ATL -guard-qps 50 -guard-points-per-sec 100000 -guard-trip-after 5 -guard-watchdog 30s
//
// The -guard-* flags arm per-session tenant-isolation guardrails:
// token-bucket rate limits on ingest requests and points (shed with
// 429 + Retry-After), a circuit breaker that quarantines a session
// after consecutive infra-class ingest failures (writes shed 503,
// reads serve the last-good snapshot flagged stale, and a successful
// probe after the cooldown heals it by replaying its WAL), and a
// watchdog converting stuck ingests into typed failures. Limits can
// be overridden per session at runtime via POST /v1/sessions/limits
// (`neatcli sessions -limits`).
//
// With -data-dir the server is durable: every acknowledged ingest is
// written to a WAL before the response, the dataset is checkpointed
// periodically and on shutdown, and a restart over the same directory
// recovers every acknowledged batch (see /v1/stats' persistence
// block).
//
// API:
//
//	POST /v1/trajectories  {"trajectories":[{"trid":1,"points":[{"sid":0,"x":1,"y":2,"t":0}, ...]}]}
//	GET  /v1/clusters?level=opt&eps=6500&mincard=5
//	GET  /v1/stats
//	GET  /v1/sessions      list tenants; POST creates one, DELETE ?name= removes one
//
// Every data route accepts ?session=<name> to target a tenant created
// via POST /v1/sessions (or recovered from <data-dir>/sessions/ on
// boot); without it the default session answers, exactly as before
// multi-tenancy existed.
//
//	GET  /metrics          Prometheus text exposition
//	GET  /debug/vars       expvar-style JSON exposition
//	GET  /debug/pprof/     net/http/pprof profiling
package main

import (
	"context"
	"flag"
	"fmt"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/guard"
	"repro/internal/mapgen"
	"repro/internal/obs"
	"repro/internal/persist"
	"repro/internal/roadnet"
	"repro/internal/server"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "neatserver:", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("neatserver", flag.ContinueOnError)
	fs.SetOutput(os.Stderr)
	var (
		addr      = fs.String("addr", ":8080", "listen address")
		mapPath   = fs.String("map", "", "road network file (alternative to -region)")
		region    = fs.String("region", "", "generate a preset map: ATL, SJ, or MIA")
		scale     = fs.Float64("scale", 0.1, "scale for -region maps")
		dataNodes = fs.Int("datanodes", 4, "preprocessing data nodes")
		cacheEnt  = fs.Int("cache-entries", 0, "distance cache entry budget shared across clustering requests (0 = default budget, <0 = no cache)")
		inflight  = fs.Int("max-inflight", 0, "admission control: concurrent requests served before shedding with 429/503 (0 = 16, <0 = unbounded)")
		maxSess   = fs.Int("max-sessions", 0, "cap on live sessions, the default session included (0 = 16)")
		reqTO     = fs.Duration("request-timeout", 0, "per-request deadline; expired requests degrade to the last-good snapshot or shed with 503 (0 = 30s, <0 = none)")
		drain     = fs.Duration("drain", 10*time.Second, "graceful shutdown timeout for in-flight requests")
		dataDir   = fs.String("data-dir", "", "durable data directory (WAL + checkpoints); empty = in-memory only")
		fsyncPol  = fs.String("fsync", "always", "WAL fsync policy with -data-dir: always, interval, or off")
		ckptEvery = fs.Int("checkpoint-every", 0, "checkpoint the dataset every N ingests with -data-dir (0 = default 8, <0 = only on shutdown)")

		// Tenant-isolation guardrails: per-session defaults, overridable
		// at runtime via POST /v1/sessions/limits.
		guardQPS      = fs.Float64("guard-qps", 0, "per-session ingest requests/sec before shedding 429 (0 = unlimited)")
		guardBurst    = fs.Int("guard-burst", 0, "per-session ingest burst (0 = derived from -guard-qps)")
		guardPPS      = fs.Float64("guard-points-per-sec", 0, "per-session trajectory points/sec before shedding 429 (0 = unlimited)")
		guardPtBurst  = fs.Int("guard-point-burst", 0, "per-session point burst (0 = derived from -guard-points-per-sec)")
		guardTrip     = fs.Int("guard-trip-after", 0, "consecutive infra-class ingest failures that quarantine a session (0 = breaker off)")
		guardCooldown = fs.Duration("guard-cooldown", 0, "quarantine cooldown before a half-open probe (0 = 30s)")
		guardProbes   = fs.Int("guard-probes", 0, "successful probes required to heal a quarantined session (0 = 1)")
		guardWatchdog = fs.Duration("guard-watchdog", 0, "per-ingest watchdog budget; stuck ingests fail typed and count toward the breaker (0 = off)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	var g *roadnet.Graph
	switch {
	case *mapPath != "":
		f, err := os.Open(*mapPath)
		if err != nil {
			return fmt.Errorf("open map: %w", err)
		}
		defer f.Close()
		g, err = roadnet.Read(f)
		if err != nil {
			return fmt.Errorf("parse map: %w", err)
		}
	case *region != "":
		cfg, ok := mapgen.Presets()[strings.ToUpper(*region)]
		if !ok {
			return fmt.Errorf("unknown region %q", *region)
		}
		if *scale < 1 {
			cfg = cfg.Scaled(*scale)
		}
		var err error
		g, err = mapgen.Generate(cfg)
		if err != nil {
			return err
		}
	default:
		return fmt.Errorf("one of -map or -region is required")
	}

	reg := obs.NewRegistry()
	scfg := server.Config{
		DataNodes: *dataNodes, CacheEntries: *cacheEnt,
		MaxInflight: *inflight, MaxSessions: *maxSess, RequestTimeout: *reqTO, Obs: reg,
		Guard: guard.Config{
			Limits: guard.Limits{
				IngestQPS: *guardQPS, IngestBurst: *guardBurst,
				PointsPerSec: *guardPPS, PointBurst: *guardPtBurst,
			},
			Breaker: guard.BreakerConfig{
				TripAfter: *guardTrip, Cooldown: *guardCooldown, ProbeSuccesses: *guardProbes,
			},
			Watchdog: *guardWatchdog,
		},
	}
	if *dataDir != "" {
		pol, err := persist.ParseFsyncPolicy(*fsyncPol)
		if err != nil {
			return err
		}
		scfg.Persist = &persist.Options{Dir: *dataDir, Fsync: pol, CheckpointEvery: *ckptEvery}
	}
	srv, err := server.Open(g, scfg)
	if err != nil {
		return err
	}
	if *dataDir != "" {
		fmt.Printf("neatserver durable in %s (fsync=%s): recovered %d batches\n",
			*dataDir, *fsyncPol, srv.Sessions().Default().RecoveredBatches())
		for _, sess := range srv.Sessions().List() {
			fmt.Printf("neatserver session %q: %d batches recovered, %d trajectories\n",
				sess.Name(), sess.RecoveredBatches(), len(sess.Current().Trajs))
		}
	}
	httpSrv := &http.Server{
		Addr:              *addr,
		Handler:           newMux(srv, reg),
		ReadHeaderTimeout: 5 * time.Second,
	}
	fmt.Printf("neatserver listening on %s — %s\n", *addr, roadnet.ComputeStats(g))
	return serve(ctx, httpSrv, srv, reg, *drain)
}

// newMux assembles the full handler: the API (already wrapped in the
// obs middleware by server.Handler), the metrics expositions, and the
// pprof profiling endpoints.
func newMux(srv *server.Server, reg *obs.Registry) *http.ServeMux {
	mux := http.NewServeMux()
	mux.Handle("/", srv.Handler())
	mux.Handle("/metrics", reg.MetricsHandler())
	mux.Handle("/debug/vars", reg.VarsHandler())
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// serve runs httpSrv until it fails or ctx is cancelled (SIGINT or
// SIGTERM in production). On cancellation it drains in-flight requests
// via http.Server.Shutdown bounded by the drain timeout, closes the
// server's durability layer (final checkpoint + WAL flush), then logs
// the final metrics snapshot so a scrape gap around termination loses
// nothing.
func serve(ctx context.Context, httpSrv *http.Server, srv *server.Server, reg *obs.Registry, drain time.Duration) error {
	errc := make(chan error, 1)
	go func() { errc <- httpSrv.ListenAndServe() }()
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	fmt.Fprintf(os.Stderr, "neatserver: signal received, draining in-flight requests (timeout %s)\n", drain)
	sctx, cancel := context.WithTimeout(context.Background(), drain)
	defer cancel()
	shutdownErr := httpSrv.Shutdown(sctx)
	if err := srv.Close(); err != nil && shutdownErr == nil {
		shutdownErr = fmt.Errorf("close durability layer: %w", err)
	}
	fmt.Fprintln(os.Stderr, "neatserver: final metrics snapshot:")
	_ = reg.WritePrometheus(os.Stderr)
	if shutdownErr != nil {
		return fmt.Errorf("shutdown: %w", shutdownErr)
	}
	fmt.Fprintln(os.Stderr, "neatserver: shutdown complete")
	return nil
}
