package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/geo"

	"repro/internal/fault"
	"repro/internal/guard"
	"repro/internal/neat"
	"repro/internal/obs"
	"repro/internal/persist"
	"repro/internal/roadnet"
	"repro/internal/session"
	"repro/internal/traj"
	"repro/internal/viz"
)

// Config parameterizes a Server. No field selects how Phase 3 runs:
// every /v1/clusters miss builds its ε-graph with the batched
// one-to-many builder over all CPUs (neat.RefineConfig.Workers -1),
// whose clustering is byte-identical to the paper's serial scan.
type Config struct {
	// DataNodes is the number of preprocessing workers each session's
	// ingestion path shards trajectories across (the paper's data
	// nodes). Zero selects 4.
	DataNodes int
	// MaxBatch caps the number of trajectories per ingest request.
	// Zero selects 10000.
	MaxBatch int
	// CacheEntries sizes the junction-pair distance cache budget shared
	// by every session (internal/distcache): each session keeps its own
	// cache instance — scoped to its graph by fingerprint — but all of
	// them draw on one entry budget, so N tenants never multiply the
	// cache memory. 0 selects the default budget, a negative value
	// disables caching. It changes only the work performed, never the
	// response bytes.
	CacheEntries int
	// Obs is the metrics registry the server records into: request
	// latency/status per route, result-cache hits and misses, ingest
	// volume (all session-labeled, with bounded cardinality), and the
	// clustering pipeline's own series. Nil (the default) disables all
	// instrumentation at zero cost; responses are byte-identical either
	// way.
	Obs *obs.Registry
	// MaxInflight bounds concurrently served requests across all
	// sessions (global admission control): up to MaxInflight requests
	// run, up to another MaxInflight wait for a slot, and beyond that
	// requests are shed immediately with 429 and a Retry-After header.
	// A waiter whose deadline expires before a slot frees is shed with
	// 503. Zero selects 16; negative disables admission control
	// entirely.
	//
	// The same value is each session's slot count
	// (session.Config.MaxInflight). A request holds its global slot
	// while it takes a session slot, so that gate never blocks here.
	MaxInflight int
	// Guard is the per-session isolation template applied to every
	// session (the default session included): token-bucket ingest rate
	// limits, circuit-breaker trip policy, and the ingest watchdog.
	// Individual sessions can be overridden at runtime through the
	// /v1/sessions/limits admin endpoint. The zero value disables all
	// of it, preserving pre-guard behavior exactly.
	Guard guard.Config
	// MaxSessions caps live sessions (the default session included);
	// Create beyond it is rejected. Zero selects 16. The per-session
	// metric label space is capped at the same count — overflow
	// sessions aggregate into session="other" series.
	MaxSessions int
	// RequestTimeout is the per-request deadline attached to every
	// request context; work in flight observes it cooperatively (the
	// clustering pipeline polls it pair-by-pair). Zero selects 30s;
	// negative disables deadlines.
	RequestTimeout time.Duration
	// Fault is an optional fault injector threaded into the ingest
	// path (slow/failed ingests), the clustering pipeline (shortest-
	// path faults), and the distance caches (pressure). It applies to
	// the default session and to created sessions that do not bring
	// their own injector. With a nil or disabled injector the server's
	// responses are byte-identical to an un-faulted build.
	Fault *fault.Injector
	// Persist makes the ingested datasets durable: every acknowledged
	// ingest batch is appended to a per-session write-ahead log under
	// Persist.Dir (the default session keeps the root itself, named
	// sessions live in sessions/<name> beneath it, with their road
	// network persisted alongside), datasets are checkpointed every
	// Persist.CheckpointEvery batches and on Close, and Open recovers
	// every namespace found on boot. Requires the Open constructor; New
	// ignores it. Persist.Obs and Persist.Fault default to Config.Obs
	// and Config.Fault.
	Persist *persist.Options
}

func (c Config) withDefaults() Config {
	if c.DataNodes <= 0 {
		c.DataNodes = 4
	}
	if c.MaxBatch <= 0 {
		c.MaxBatch = 10000
	}
	if c.MaxInflight == 0 {
		c.MaxInflight = 16
	}
	if c.MaxSessions <= 0 {
		c.MaxSessions = 16
	}
	if c.RequestTimeout == 0 {
		c.RequestTimeout = 30 * time.Second
	}
	return c
}

// Server is the NEAT trajectory-clustering service: a registry of
// isolated sessions (each one road network + dataset + pipeline +
// distance cache + durability namespace) behind one HTTP API. Requests
// route to a session via ?session=; without the parameter they target
// the default session, which behaves exactly like the pre-session
// single-tenant server. It is safe for concurrent use: ingest is
// serialized per session and concurrent across sessions, and every
// read path serves from an immutable published snapshot without ever
// taking an ingest lock.
type Server struct {
	cfg Config
	reg *session.Registry

	// Global admission control (nil channels when cfg.MaxInflight < 0):
	// queued bounds admitted-plus-waiting requests, inflight bounds
	// concurrently served ones. Both are chan-semaphores so waiters
	// can give up on context expiry.
	queued   chan struct{}
	inflight chan struct{}

	// Shed counters surfaced in /v1/stats (global — shedding happens
	// before a session is resolved).
	shedQueueFull  atomic.Int64
	shedTimeout    atomic.Int64
	mShedQueueFull *obs.Counter
	mShedTimeout   *obs.Counter
}

// New creates an in-memory Server over g; Config.Persist is ignored
// (use Open for a durable server — it is the constructor that can
// fail).
func New(g *roadnet.Graph, cfg Config) *Server {
	cfg.Persist = nil
	s, _ := Open(g, cfg)
	return s
}

// Open creates a Server over g (the default session's road network),
// recovering every session from Config.Persist's data directory when
// set (see Config.Persist).
func Open(g *roadnet.Graph, cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:            cfg,
		mShedQueueFull: cfg.Obs.Counter("neat_shed_requests_total", obs.L("reason", "queue_full")),
		mShedTimeout:   cfg.Obs.Counter("neat_shed_requests_total", obs.L("reason", "timeout")),
	}
	if cfg.MaxInflight > 0 {
		s.inflight = make(chan struct{}, cfg.MaxInflight)
		s.queued = make(chan struct{}, 2*cfg.MaxInflight)
	}
	reg, err := session.NewRegistry(session.Options{
		Graph: g,
		Session: session.Config{
			DataNodes:   cfg.DataNodes,
			MaxBatch:    cfg.MaxBatch,
			MaxInflight: cfg.MaxInflight,
			Guard:       cfg.Guard,
			Obs:         cfg.Obs,
			Fault:       cfg.Fault,
		},
		CacheEntries: cfg.CacheEntries,
		MaxSessions:  cfg.MaxSessions,
		Persist:      cfg.Persist,
	})
	if err != nil {
		return nil, fmt.Errorf("server: %w", err)
	}
	s.reg = reg
	return s, nil
}

// Sessions exposes the session registry (tests, chaos scenarios, and
// cmd/neatserver boot reporting use it; the HTTP API is the public
// surface).
func (s *Server) Sessions() *session.Registry { return s.reg }

// Routes returns the API paths the server responds on; the obs
// middleware uses this closed set as its route label space.
func (s *Server) Routes() []string {
	return []string{
		"/v1/trajectories",
		"/v1/clusters",
		"/v1/stats",
		"/v1/network",
		"/v1/trajectories/query",
		"/v1/sessions",
		"/v1/sessions/limits",
	}
}

// Handler returns the HTTP handler exposing the API. Requests pass
// through admission control (load shedding and per-request deadlines;
// see Config.MaxInflight and Config.RequestTimeout) and, when the
// server was configured with a metrics registry, the obs middleware —
// outermost, so shed requests are counted per route and status too.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/trajectories", s.withSession(s.handleIngest))
	mux.HandleFunc("/v1/clusters", s.withSession(s.handleClusters))
	mux.HandleFunc("/v1/stats", s.withSession(s.handleStats))
	mux.HandleFunc("/v1/network", s.withSession(s.handleNetwork))
	mux.HandleFunc("/v1/trajectories/query", s.withSession(s.handleQuery))
	mux.HandleFunc("/v1/sessions", s.handleSessions)
	mux.HandleFunc("/v1/sessions/limits", s.handleSessionLimits)
	return obs.Middleware(s.cfg.Obs, s.admission(mux), s.Routes()...)
}

// admission is the global load-shedding middleware: a bounded queue in
// front of a bounded in-flight pool, plus the per-request deadline. An
// overloaded server answers immediately — 429 when even the queue is
// full, 503 when the deadline expires while queued — always with a
// Retry-After header, and never hangs a client or surfaces a timeout
// as a 500.
func (s *Server) admission(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		ctx := r.Context()
		if s.cfg.RequestTimeout > 0 {
			var cancel context.CancelFunc
			ctx, cancel = context.WithTimeout(ctx, s.cfg.RequestTimeout)
			defer cancel()
		}
		if s.inflight == nil {
			next.ServeHTTP(w, r.WithContext(ctx))
			return
		}
		select {
		case s.queued <- struct{}{}:
			defer func() { <-s.queued }()
		default:
			s.shedQueueFull.Add(1)
			s.mShedQueueFull.Inc()
			w.Header().Set("Retry-After", "1")
			writeError(w, http.StatusTooManyRequests, "server overloaded: admission queue full")
			return
		}
		select {
		case s.inflight <- struct{}{}:
			defer func() { <-s.inflight }()
		case <-ctx.Done():
			s.shedTimeout.Add(1)
			s.mShedTimeout.Inc()
			w.Header().Set("Retry-After", "1")
			writeError(w, http.StatusServiceUnavailable, "server overloaded: no slot within deadline")
			return
		}
		next.ServeHTTP(w, r.WithContext(ctx))
	})
}

// withSession resolves the ?session= query parameter (default session
// without it) and takes one of the session's slots underneath the
// global cap (see Config.MaxInflight). An unknown session is a typed
// 404 with a JSON body.
func (s *Server) withSession(h func(http.ResponseWriter, *http.Request, *session.Session)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		sess, err := s.reg.Get(r.URL.Query().Get("session"))
		if err != nil {
			writeError(w, http.StatusNotFound, "%v", err)
			return
		}
		if !sess.Acquire(r.Context()) {
			// A per-tenant shed, not a global one: record it under the
			// session's own capped label and reason so /metrics can tell
			// which tenant was shed.
			sess.Metrics().ShedSessionSlot.Inc()
			w.Header().Set("Retry-After", "1")
			writeError(w, http.StatusServiceUnavailable, "session %q overloaded: no session slot within deadline", sess.Name())
			return
		}
		defer sess.Release()
		h(w, r, sess)
	}
}

// handleQuery answers spatio-temporal range queries over the ingested
// trajectories: GET /v1/trajectories/query?x0=&y0=&x1=&y1=&t0=&t1=.
// It serves from a SETI-style index built lazily per published
// snapshot — wait-free with respect to ingest.
func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request, sess *session.Session) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, "GET required")
		return
	}
	q := r.URL.Query()
	parse := func(name string) (float64, bool) {
		v, err := strconv.ParseFloat(q.Get(name), 64)
		if err != nil {
			writeError(w, http.StatusBadRequest, "bad %s %q", name, q.Get(name))
			return 0, false
		}
		return v, true
	}
	x0, ok := parse("x0")
	if !ok {
		return
	}
	y0, ok := parse("y0")
	if !ok {
		return
	}
	x1, ok := parse("x1")
	if !ok {
		return
	}
	y1, ok := parse("y1")
	if !ok {
		return
	}
	t0, ok := parse("t0")
	if !ok {
		return
	}
	t1, ok := parse("t1")
	if !ok {
		return
	}
	idx, err := sess.Current().Index(sess.Graph())
	if err != nil {
		writeError(w, http.StatusConflict, "%v", err)
		return
	}
	ids := idx.Query(geo.RectFromPoints(geo.Pt(x0, y0), geo.Pt(x1, y1)), t0, t1)
	out := QueryResponse{Count: len(ids)}
	for _, id := range ids {
		out.IDs = append(out.IDs, int32(id))
	}
	writeJSON(w, http.StatusOK, out)
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, ErrorResponse{Error: fmt.Sprintf(format, args...)})
}

// retryAfter formats a duration for the Retry-After header (whole
// seconds, at least 1).
func retryAfter(d time.Duration) string {
	secs := int((d + time.Second - 1) / time.Second)
	if secs < 1 {
		secs = 1
	}
	return strconv.Itoa(secs)
}

func (s *Server) handleIngest(w http.ResponseWriter, r *http.Request, sess *session.Session) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, "POST required")
		return
	}
	// Rate-limit gate 1: the per-session request bucket, consulted
	// before the body is even decoded so an abusive tenant costs the
	// server nothing but this check.
	if ok, retry := sess.Guard().AllowRequest(); !ok {
		sess.Metrics().ShedRateLimit.Inc()
		w.Header().Set("Retry-After", retryAfter(retry))
		writeError(w, http.StatusTooManyRequests, "session %q rate limited: ingest QPS budget exhausted", sess.Name())
		return
	}
	req, err := decodeIngest(r.Body, r.ContentLength)
	if err != nil {
		sess.Metrics().IngestRejected.Inc()
		writeError(w, http.StatusBadRequest, "decode: %v", err)
		return
	}
	if len(req.Trajectories) == 0 {
		sess.Metrics().IngestRejected.Inc()
		writeError(w, http.StatusBadRequest, "no trajectories")
		return
	}
	if len(req.Trajectories) > sess.MaxBatch() {
		sess.Metrics().IngestRejected.Inc()
		writeError(w, http.StatusRequestEntityTooLarge, "batch of %d exceeds limit %d", len(req.Trajectories), sess.MaxBatch())
		return
	}
	// Rate-limit gate 2: the point budget, now that the batch size is
	// known — still before any pipeline work.
	points := 0
	for _, dto := range req.Trajectories {
		points += len(dto.Points)
	}
	if ok, retry := sess.Guard().AllowPoints(points); !ok {
		sess.Metrics().ShedPointBudget.Inc()
		w.Header().Set("Retry-After", retryAfter(retry))
		writeError(w, http.StatusTooManyRequests, "session %q rate limited: point budget exhausted (%d points)", sess.Name(), points)
		return
	}
	ids := make([]traj.ID, len(req.Trajectories))
	for i, dto := range req.Trajectories {
		ids[i] = traj.ID(dto.ID)
	}
	st, err := sess.Ingest(r.Context(), ids, func(i int) (traj.Trajectory, error) {
		return req.Trajectories[i].toTrajectory(sess.Graph())
	})
	if err != nil {
		var dup *session.DuplicateError
		var quar *guard.QuarantinedError
		var pan *guard.PanicError
		switch {
		case errors.As(err, &dup):
			writeError(w, http.StatusConflict, "%s", dup)
		case errors.As(err, &quar):
			// The session's breaker is open: writes shed until the
			// cooldown elapses and a probe succeeds; reads keep serving
			// the last-good snapshot.
			sess.Metrics().ShedQuarantined.Inc()
			w.Header().Set("Retry-After", retryAfter(quar.RetryAfter))
			writeError(w, http.StatusServiceUnavailable, "%v", quar)
		case errors.As(err, &pan):
			// A contained ingest panic: the batch rolled back atomically
			// and the breaker counted a failure; the batch is retryable.
			w.Header().Set("Retry-After", "1")
			writeError(w, http.StatusServiceUnavailable, "ingest unavailable: %v", pan)
		case errors.Is(err, guard.ErrStuck):
			w.Header().Set("Retry-After", "1")
			writeError(w, http.StatusServiceUnavailable, "ingest unavailable: %v", err)
		case errors.Is(err, session.ErrNotDurable):
			w.Header().Set("Retry-After", "1")
			writeError(w, http.StatusServiceUnavailable, "%v", err)
		case errors.Is(err, session.ErrClosed):
			w.Header().Set("Retry-After", "1")
			writeError(w, http.StatusServiceUnavailable, "%v", err)
		case fault.IsInjected(err):
			// Simulated ingest-path outage: nothing is committed, the
			// session flags itself degraded, and the client may retry.
			w.Header().Set("Retry-After", "1")
			writeError(w, http.StatusServiceUnavailable, "ingest unavailable: %v", err)
		case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
			// Timed out mid-preprocess: nothing was committed (the
			// session's commit is atomic), so the batch is safely
			// retryable — but the server is degraded, not the request
			// malformed.
			w.Header().Set("Retry-After", "1")
			writeError(w, http.StatusServiceUnavailable, "preprocess: %v", err)
		default:
			writeError(w, http.StatusBadRequest, "preprocess: %v", err)
		}
		return
	}
	writeJSON(w, http.StatusOK, IngestResponse{
		Accepted:       st.Accepted,
		Fragments:      st.Fragments,
		TotalFragments: st.TotalFragments,
	})
}

func (s *Server) handleClusters(w http.ResponseWriter, r *http.Request, sess *session.Session) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, "GET required")
		return
	}
	q := r.URL.Query()
	level := neat.LevelOpt
	switch strings.ToLower(q.Get("level")) {
	case "", "opt":
	case "flow":
		level = neat.LevelFlow
	case "base":
		level = neat.LevelBase
	default:
		writeError(w, http.StatusBadRequest, "unknown level %q", q.Get("level"))
		return
	}
	// Phase 3 runs the batched builder on every miss: a cold read
	// costs one bounded expansion per endpoint junction instead of up
	// to four point-to-point queries per flow pair, and a warm one
	// probes the cache once per junction pair (DESIGN.md §6).
	cfg := neat.Config{
		Flow:   neat.FlowConfig{Weights: neat.WeightsFlowOnly, MinCard: 5},
		Refine: neat.RefineConfig{Epsilon: 6500, UseELB: true, Bounded: true, Workers: -1, Cache: sess.Cache(), Fault: sess.Injector()},
	}
	if v := q.Get("eps"); v != "" {
		// !(eps > 0) also rejects NaN. An infinite ε is the library's
		// unbounded serial scan, one full Dijkstra per endpoint pair,
		// and no width a read needs: 1e308 already admits every pair.
		eps, err := strconv.ParseFloat(v, 64)
		if err != nil || !(eps > 0) || math.IsInf(eps, 1) {
			writeError(w, http.StatusBadRequest, "bad eps %q", v)
			return
		}
		cfg.Refine.Epsilon = eps
	}
	if v := q.Get("mincard"); v != "" {
		mc, err := strconv.Atoi(v)
		if err != nil || mc < 0 {
			writeError(w, http.StatusBadRequest, "bad mincard %q", v)
			return
		}
		cfg.Flow.MinCard = mc
	}
	if err := cfg.Validate(); err != nil {
		writeError(w, http.StatusBadRequest, "config: %v", err)
		return
	}

	// The published snapshot is the whole read state: no ingest lock,
	// no copying — the fragment slice is immutable by construction and
	// the pipeline only reads it.
	sn := sess.Current()
	if len(sn.Fragments) == 0 {
		writeError(w, http.StatusConflict, "no trajectories ingested yet")
		return
	}

	cacheKey := fmt.Sprintf("%d|%g|%d", level, cfg.Refine.Epsilon, cfg.Flow.MinCard)
	if sess.Quarantined() {
		// A quarantined session still answers reads, but only from its
		// last-good state, explicitly flagged stale: the pipeline is not
		// trusted until the breaker's probe sequence heals it.
		s.degradeClusters(w, sess, cacheKey, fmt.Errorf("session %q quarantined", sess.Name()))
		return
	}
	if hit, ok := sn.Result(cacheKey); ok {
		sess.Metrics().CacheHits.Inc()
		writeBody(w, hit.([]byte))
		return
	}
	sess.Metrics().CacheMisses.Inc()

	// A miss does only the work its parameters need: Phases 1–2 are
	// memoized on the snapshot (computed by the first miss after a
	// publication), so the read itself is the minCard filter plus, at
	// opt level, Phase 3.
	start := time.Now()
	fs, err := sess.Flows(r.Context(), sn, cfg)
	var res *neat.Result
	if err == nil {
		res, err = sess.Refine(r.Context(), fs, cfg, level)
	}
	if err != nil {
		if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) || fault.IsInjected(err) {
			s.degradeClusters(w, sess, cacheKey, err)
			return
		}
		writeError(w, http.StatusInternalServerError, "clustering: %v", err)
		return
	}
	elapsed := float64(time.Since(start).Microseconds()) / 1000
	body, err := renderClusters(sn, sess.Graph(), res, fs.BaseClusters, elapsed)
	if err != nil {
		writeError(w, http.StatusInternalServerError, "render: %v", err)
		return
	}
	// Memoize the bytes on the snapshot (publication of the successor
	// is the invalidation) and keep them as the degraded-mode fallback.
	sn.StoreResult(cacheKey, body)
	sess.SetLastGood(cacheKey, body)
	writeBody(w, body)
}

// degradeClusters is the graceful-degradation tail of handleClusters:
// when a fresh clustering cannot be computed (deadline expired, or an
// injected fault downed the shortest-path engines), serve the last
// successfully computed response for the same parameters — flagged
// Stale, possibly predating recent ingests — or shed with 503 and
// Retry-After when no last-good state exists. A timeout is never a
// 500: the condition is the server's load, not a server bug.
func (s *Server) degradeClusters(w http.ResponseWriter, sess *session.Session, cacheKey string, cause error) {
	if v, ok := sess.LastGood(cacheKey); ok {
		sess.NoteStale()
		writeBody(w, staleBody(v.([]byte)))
		return
	}
	w.Header().Set("Retry-After", "1")
	writeError(w, http.StatusServiceUnavailable, "clustering unavailable: %v", cause)
}

// handleNetwork serves the session's road network as GeoJSON so
// clients can render clustering results over it.
func (s *Server) handleNetwork(w http.ResponseWriter, r *http.Request, sess *session.Session) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, "GET required")
		return
	}
	w.Header().Set("Content-Type", "application/geo+json")
	if err := viz.WriteNetworkGeoJSON(w, sess.Graph()); err != nil {
		// Headers are out; nothing more to do than log via the error
		// path of the connection.
		return
	}
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request, sess *session.Session) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, "GET required")
		return
	}
	sn := sess.Current()
	var dc *DistCacheDTO
	if cache := sess.Cache(); cache != nil {
		st := cache.CacheStats()
		dc = &DistCacheDTO{
			Entries:   st.Entries,
			Capacity:  st.Capacity,
			Hits:      st.Hits,
			Misses:    st.Misses,
			Evictions: st.Evictions,
			HitRate:   st.HitRate(),
		}
	}
	degraded, lastErr := sess.Health()
	rb := RobustnessDTO{
		MaxInflight:      s.cfg.MaxInflight,
		RequestTimeoutMs: float64(s.cfg.RequestTimeout.Microseconds()) / 1000,
		Degraded:         degraded,
		LastIngestError:  lastErr,
		StaleServed:      sess.StaleServed(),
		ShedQueueFull:    s.shedQueueFull.Load(),
		ShedTimeout:      s.shedTimeout.Load(),
		FaultsEnabled:    sess.Injector().Enabled(),
	}
	gd := guardDTO(sess)
	g := sess.Graph()
	writeJSON(w, http.StatusOK, StatsResponse{
		Junctions:      g.NumNodes(),
		Segments:       g.NumSegments(),
		TotalLengthKm:  g.TotalLength() / 1000,
		Trajectories:   len(sn.Trajs),
		TotalFragments: len(sn.Fragments),
		DataNodes:      s.cfg.DataNodes,
		DistCache:      dc,
		Robustness:     rb,
		Guard:          &gd,
		Persistence:    persistenceDTO(sess),
		Build:          buildDTO(),
		Session:        sess.Name(),
		Sessions:       s.reg.Len(),
	})
}

func buildDTO() BuildDTO {
	b := obs.BuildInfo()
	return BuildDTO{
		GoVersion: b.GoVersion,
		Module:    b.Module,
		Version:   b.Version,
		Revision:  b.Revision,
		Time:      b.Time,
		Dirty:     b.Dirty,
	}
}
