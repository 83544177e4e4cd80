// Package server implements the NEAT service tier sketched in §II-C of
// the paper: "Each client node acts as a mobile device which records
// its locations, sends its trajectories to a NEAT server and makes
// requests to the server to get trajectory clustering results ... NEAT
// server also distributes trajectory datasets across multiple nodes in
// a cluster. These data nodes can perform some data preprocessing
// tasks."
//
// The server exposes an HTTP/JSON API for trajectory ingestion and
// clustering queries, and shards the Phase 1 preprocessing
// (t-fragment extraction) across a pool of data-node workers, each
// with its own partitioning engine.
package server

import (
	"fmt"

	"repro/internal/geo"
	"repro/internal/roadnet"
	"repro/internal/traj"
)

// PointDTO is one trajectory location on the wire.
type PointDTO struct {
	Seg  int32   `json:"sid"`
	X    float64 `json:"x"`
	Y    float64 `json:"y"`
	Time float64 `json:"t"`
}

// TrajectoryDTO is one trajectory on the wire.
type TrajectoryDTO struct {
	ID     int32      `json:"trid"`
	Points []PointDTO `json:"points"`
}

// IngestRequest is the body of POST /v1/trajectories.
type IngestRequest struct {
	Trajectories []TrajectoryDTO `json:"trajectories"`
}

// IngestResponse reports what the ingestion produced.
type IngestResponse struct {
	Accepted  int `json:"accepted"`
	Fragments int `json:"fragments"`
	// TotalFragments is the fragment count standing on the server after
	// this ingestion.
	TotalFragments int `json:"total_fragments"`
}

// FlowDTO describes one flow cluster in a clustering response.
type FlowDTO struct {
	Route       []int32 `json:"route"`
	RouteLength float64 `json:"route_length_m"`
	Cardinality int     `json:"cardinality"`
	Density     int     `json:"density"`
}

// ClusterDTO describes one final trajectory cluster.
type ClusterDTO struct {
	Flows       []FlowDTO `json:"flows"`
	Cardinality int       `json:"cardinality"`
}

// ClusterResponse is the body of GET /v1/clusters.
type ClusterResponse struct {
	Level        string       `json:"level"`
	BaseClusters int          `json:"base_clusters"`
	Flows        []FlowDTO    `json:"flows,omitempty"`
	Clusters     []ClusterDTO `json:"clusters,omitempty"`
	ElapsedMs    float64      `json:"elapsed_ms"`
	// Stale marks a degraded-mode response: a fresh clustering could
	// not be computed in time, so this is the last successfully
	// computed result for the same parameters, possibly predating
	// recent ingests.
	Stale bool `json:"stale,omitempty"`
}

// StatsResponse is the body of GET /v1/stats.
type StatsResponse struct {
	Junctions      int     `json:"junctions"`
	Segments       int     `json:"segments"`
	TotalLengthKm  float64 `json:"total_length_km"`
	Trajectories   int     `json:"trajectories"`
	TotalFragments int     `json:"total_fragments"`
	DataNodes      int     `json:"data_nodes"`
	// DistCache reports the shared junction-pair distance cache behind
	// /v1/clusters; nil when the cache is disabled.
	DistCache *DistCacheDTO `json:"dist_cache,omitempty"`
	// Robustness reports admission-control configuration and the
	// server's degradation state.
	Robustness RobustnessDTO `json:"robustness"`
	// Guard reports the session's isolation state: rate limits and
	// circuit breaker.
	Guard *GuardDTO `json:"guard,omitempty"`
	// Persistence reports the durability layer (WAL + checkpoints);
	// nil when the server runs in-memory only.
	Persistence *PersistenceDTO `json:"persistence,omitempty"`
	// Build identifies the running binary.
	Build BuildDTO `json:"build"`
	// Session names the session this response describes (the ?session=
	// parameter, or "default"); Sessions counts live sessions on the
	// server.
	Session  string `json:"session"`
	Sessions int    `json:"sessions"`
}

// SessionDTO describes one live session in GET /v1/sessions (and is
// the body of a successful POST).
type SessionDTO struct {
	Name           string `json:"name"`
	Junctions      int    `json:"junctions"`
	Segments       int    `json:"segments"`
	Trajectories   int    `json:"trajectories"`
	TotalFragments int    `json:"total_fragments"`
	// Batches is the session's committed ingest-batch count (also its
	// WAL sequence head).
	Batches uint64 `json:"batches"`
	Durable bool   `json:"durable"`
	// RecoveredBatches is how many acknowledged batches boot restored
	// into this session.
	RecoveredBatches uint64 `json:"recovered_batches"`
	Degraded         bool   `json:"degraded"`
	// Quarantined is true while the session's circuit breaker rejects
	// writes (reads serve the last-good snapshot, flagged stale);
	// BreakerState is the full state: closed, open, or half-open.
	Quarantined  bool   `json:"quarantined"`
	BreakerState string `json:"breaker_state,omitempty"`
}

// SessionsResponse is the body of GET /v1/sessions; the default
// session is always first.
type SessionsResponse struct {
	Sessions []SessionDTO `json:"sessions"`
}

// CreateSessionRequest is the body of POST /v1/sessions. The server
// generates the session's road network from a mapgen preset, so a
// client can provision a tenant without shipping a graph.
type CreateSessionRequest struct {
	Name string `json:"name"`
	// Region picks the mapgen preset ("ATL" when empty).
	Region string `json:"region,omitempty"`
	// Scale scales the preset's junction count and lies in (0, 1]; 0
	// keeps the full preset. Any other value is rejected with 400.
	Scale float64 `json:"scale,omitempty"`
	// Fault, when set, attaches a session-private deterministic fault
	// injector (chaos and CI smoke testing): the session fails per the
	// spec while every other tenant stays clean.
	Fault *FaultSpecDTO `json:"fault,omitempty"`
}

// FaultSpecDTO configures a session-private ingest fault injector at
// create time. With IngestMaxErrs > 0 the session fails exactly that
// many ingests and then deterministically heals — which is how an
// HTTP-only harness (the CI smoke test) trips and recovers a circuit
// breaker without an in-process handle on the injector.
type FaultSpecDTO struct {
	Seed          int64   `json:"seed"`
	IngestErrProb float64 `json:"ingest_err_prob"`
	IngestMaxErrs int64   `json:"ingest_max_errs,omitempty"`
	PanicProb     float64 `json:"ingest_panic_prob,omitempty"`
	PanicMaxErrs  int64   `json:"ingest_panic_max_errs,omitempty"`
}

// SessionLimitsDTO is the body of GET and POST /v1/sessions/limits:
// the per-session rate-limit overrides. Zero rate values mean
// unlimited; zero bursts are derived from the rates. A POST carrying
// any other field is rejected with 400.
type SessionLimitsDTO struct {
	Session      string  `json:"session"`
	IngestQPS    float64 `json:"ingest_qps"`
	IngestBurst  int     `json:"ingest_burst"`
	PointsPerSec float64 `json:"points_per_sec"`
	PointBurst   int     `json:"point_burst"`
}

// GuardDTO is the guard section of GET /v1/stats: the session's
// isolation state — rate limits and breaker lifecycle — all
// deterministic functions of the injected clock.
type GuardDTO struct {
	BreakerEnabled bool   `json:"breaker_enabled"`
	BreakerState   string `json:"breaker_state"`
	Quarantined    bool   `json:"quarantined"`
	// ConsecutiveFails is the current failure run while closed; Trips
	// and Heals count lifetime transitions.
	ConsecutiveFails    int     `json:"consecutive_fails"`
	Trips               int64   `json:"trips"`
	Heals               int64   `json:"heals"`
	CooldownRemainingMs float64 `json:"cooldown_remaining_ms,omitempty"`
	// Panics counts contained ingest panics, StuckIngests watchdog
	// abandonments.
	Panics       int64 `json:"panics"`
	StuckIngests int64 `json:"stuck_ingests"`
	// RateLimited* count requests shed by the token buckets.
	RateLimitedRequests int64 `json:"rate_limited_requests"`
	RateLimitedPoints   int64 `json:"rate_limited_points"`
	// Limits echoes the configured budgets.
	Limits     SessionLimitsDTO `json:"limits"`
	WatchdogMs float64          `json:"watchdog_ms,omitempty"`
}

// RobustnessDTO is the robustness section of GET /v1/stats: the
// admission-control envelope plus live degradation state.
type RobustnessDTO struct {
	MaxInflight      int     `json:"max_inflight"`
	RequestTimeoutMs float64 `json:"request_timeout_ms"`
	// Degraded is true while the most recent ingest attempt failed
	// (fault or timeout); the next successful ingest clears it.
	Degraded        bool   `json:"degraded"`
	LastIngestError string `json:"last_ingest_error,omitempty"`
	// StaleServed counts degraded-mode cluster responses served from
	// the last-good snapshot.
	StaleServed int64 `json:"stale_served"`
	// ShedQueueFull / ShedTimeout count requests shed with 429 / 503.
	ShedQueueFull int64 `json:"shed_queue_full"`
	ShedTimeout   int64 `json:"shed_timeout"`
	// FaultsEnabled is true while a fault injector is attached and
	// active (chaos testing).
	FaultsEnabled bool `json:"faults_enabled"`
}

// PersistenceDTO is the durability section of GET /v1/stats: the WAL
// and checkpoint counters plus what the last startup recovered.
type PersistenceDTO struct {
	Dir         string `json:"dir"`
	Fsync       string `json:"fsync"`
	WALSegments int    `json:"wal_segments"`
	WALBytes    int64  `json:"wal_bytes"`
	Appends     int64  `json:"appends"`
	Fsyncs      int64  `json:"fsyncs"`
	// CheckpointSeq is the batch sequence the newest checkpoint
	// covers; Checkpoints counts checkpoints written by this process.
	CheckpointSeq       uint64 `json:"checkpoint_seq"`
	Checkpoints         int64  `json:"checkpoints"`
	LastCheckpointError string `json:"last_checkpoint_error,omitempty"`
	// RecoveredBatches is how many acknowledged batches startup
	// restored; ReplayedRecords how many of those came from WAL
	// replay rather than the checkpoint; TornTails how many torn
	// final records the crash left (each dropped whole).
	RecoveredBatches uint64 `json:"recovered_batches"`
	ReplayedRecords  int    `json:"replayed_records"`
	TornTails        int64  `json:"torn_tails"`
}

// DistCacheDTO is the distance-cache section of GET /v1/stats.
type DistCacheDTO struct {
	Entries   int64   `json:"entries"`
	Capacity  int     `json:"capacity"`
	Hits      int64   `json:"hits"`
	Misses    int64   `json:"misses"`
	Evictions int64   `json:"evictions"`
	HitRate   float64 `json:"hit_rate"`
}

// BuildDTO is the build information embedded in GET /v1/stats.
type BuildDTO struct {
	GoVersion string `json:"go_version"`
	Module    string `json:"module"`
	Version   string `json:"version"`
	Revision  string `json:"vcs_revision,omitempty"`
	Time      string `json:"vcs_time,omitempty"`
	Dirty     bool   `json:"vcs_dirty,omitempty"`
}

// QueryResponse is the body of GET /v1/trajectories/query.
type QueryResponse struct {
	Count int     `json:"count"`
	IDs   []int32 `json:"ids,omitempty"`
}

// ErrorResponse carries an API error.
type ErrorResponse struct {
	Error string `json:"error"`
}

// toTrajectory converts a DTO into the internal representation,
// validating segment ids against the graph.
func (dto TrajectoryDTO) toTrajectory(g *roadnet.Graph) (traj.Trajectory, error) {
	tr := traj.Trajectory{ID: traj.ID(dto.ID), Points: make([]traj.Location, 0, len(dto.Points))}
	for i, p := range dto.Points {
		if p.Seg < 0 || int(p.Seg) >= g.NumSegments() {
			return traj.Trajectory{}, fmt.Errorf("trajectory %d point %d: unknown segment %d", dto.ID, i, p.Seg)
		}
		tr.Points = append(tr.Points, traj.Sample(roadnet.SegID(p.Seg), geo.Pt(p.X, p.Y), p.Time))
	}
	if err := tr.Validate(); err != nil {
		return traj.Trajectory{}, err
	}
	return tr, nil
}

// FromDataset converts an internal dataset into wire DTOs (used by the
// client and by tests).
func FromDataset(ds traj.Dataset) IngestRequest {
	req := IngestRequest{}
	for _, tr := range ds.Trajectories {
		dto := TrajectoryDTO{ID: int32(tr.ID)}
		for _, p := range tr.Points {
			dto.Points = append(dto.Points, PointDTO{Seg: int32(p.Seg), X: p.Pt.X, Y: p.Pt.Y, Time: p.Time})
		}
		req.Trajectories = append(req.Trajectories, dto)
	}
	return req
}
