package server

import (
	"encoding/json"
	"errors"
	"net/http"
	"sort"

	"repro/internal/fault"
	"repro/internal/guard"
	"repro/internal/mapgen"
	"repro/internal/session"
)

// handleSessions is the session admin endpoint:
//
//	GET    /v1/sessions             list live sessions
//	POST   /v1/sessions             create one (body: CreateSessionRequest)
//	DELETE /v1/sessions?name=<name> close and unregister one
//
// It does not route through withSession — it operates on the registry
// itself — but still runs inside the global admission envelope.
func (s *Server) handleSessions(w http.ResponseWriter, r *http.Request) {
	switch r.Method {
	case http.MethodGet:
		out := SessionsResponse{}
		for _, sess := range s.reg.List() {
			out.Sessions = append(out.Sessions, sessionDTO(sess))
		}
		writeJSON(w, http.StatusOK, out)
	case http.MethodPost:
		var req CreateSessionRequest
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			writeError(w, http.StatusBadRequest, "decode: %v", err)
			return
		}
		region := req.Region
		if region == "" {
			region = "ATL"
		}
		preset, ok := mapgen.Presets()[region]
		if !ok {
			names := make([]string, 0, len(mapgen.Presets()))
			for name := range mapgen.Presets() {
				names = append(names, name)
			}
			sort.Strings(names)
			writeError(w, http.StatusBadRequest, "unknown region %q (have %v)", req.Region, names)
			return
		}
		// Generating a network costs memory and time linear in the
		// scale, so a scale past the full preset is refused.
		if !(req.Scale >= 0 && req.Scale <= 1) {
			writeError(w, http.StatusBadRequest, "bad scale %g (want 0 < scale <= 1, or 0 for the full preset)", req.Scale)
			return
		}
		if req.Scale > 0 {
			preset = preset.Scaled(req.Scale)
		}
		g, err := mapgen.Generate(preset)
		if err != nil {
			writeError(w, http.StatusInternalServerError, "generate network: %v", err)
			return
		}
		opts := session.CreateOptions{}
		if req.Fault != nil {
			points := map[fault.Point]fault.Spec{}
			if req.Fault.IngestErrProb > 0 {
				points[fault.Ingest] = fault.Spec{ErrProb: req.Fault.IngestErrProb, MaxErrs: req.Fault.IngestMaxErrs}
			}
			if req.Fault.PanicProb > 0 {
				points[fault.IngestPanic] = fault.Spec{ErrProb: req.Fault.PanicProb, MaxErrs: req.Fault.PanicMaxErrs}
			}
			opts.Fault = fault.New(fault.Config{Seed: req.Fault.Seed, Points: points})
		}
		sess, err := s.reg.Create(req.Name, g, opts)
		switch {
		case err == nil:
			writeJSON(w, http.StatusCreated, sessionDTO(sess))
		case errors.Is(err, session.ErrSessionExists):
			writeError(w, http.StatusConflict, "%v", err)
		case errors.Is(err, session.ErrTooManySessions):
			writeError(w, http.StatusTooManyRequests, "%v", err)
		default:
			writeError(w, http.StatusBadRequest, "%v", err)
		}
	case http.MethodDelete:
		name := r.URL.Query().Get("name")
		err := s.reg.Remove(name)
		switch {
		case err == nil:
			writeJSON(w, http.StatusOK, struct {
				Removed string `json:"removed"`
			}{name})
		case errors.Is(err, session.ErrUnknownSession):
			writeError(w, http.StatusNotFound, "%v", err)
		default:
			writeError(w, http.StatusBadRequest, "%v", err)
		}
	default:
		writeError(w, http.StatusMethodNotAllowed, "GET, POST or DELETE required")
	}
}

func sessionDTO(sess *session.Session) SessionDTO {
	sn := sess.Current()
	degraded, _ := sess.Health()
	g := sess.Graph()
	return SessionDTO{
		Name:             sess.Name(),
		Junctions:        g.NumNodes(),
		Segments:         g.NumSegments(),
		Trajectories:     len(sn.Trajs),
		TotalFragments:   len(sn.Fragments),
		Batches:          sn.Version,
		Durable:          sess.Durable(),
		RecoveredBatches: sess.RecoveredBatches(),
		Degraded:         degraded,
		Quarantined:      sess.Quarantined(),
		BreakerState:     sess.Guard().Breaker().State().String(),
	}
}

// handleSessionLimits is the per-session guard override endpoint:
//
//	GET  /v1/sessions/limits?session=<name>  current limits
//	POST /v1/sessions/limits                 set them (body: SessionLimitsDTO)
//
// A POST replaces the session's whole limit set: the token buckets
// restart full under the new rates. A body field SessionLimitsDTO does
// not declare is a 400, so a setting the server does not know is never
// silently ignored.
func (s *Server) handleSessionLimits(w http.ResponseWriter, r *http.Request) {
	switch r.Method {
	case http.MethodGet:
		sess, err := s.reg.Get(r.URL.Query().Get("session"))
		if err != nil {
			writeError(w, http.StatusNotFound, "%v", err)
			return
		}
		writeJSON(w, http.StatusOK, limitsDTO(sess))
	case http.MethodPost:
		var req SessionLimitsDTO
		dec := json.NewDecoder(r.Body)
		dec.DisallowUnknownFields()
		if err := dec.Decode(&req); err != nil {
			writeError(w, http.StatusBadRequest, "decode: %v", err)
			return
		}
		sess, err := s.reg.Get(req.Session)
		if err != nil {
			writeError(w, http.StatusNotFound, "%v", err)
			return
		}
		if req.IngestQPS < 0 || req.PointsPerSec < 0 || req.IngestBurst < 0 || req.PointBurst < 0 {
			writeError(w, http.StatusBadRequest, "limits must be non-negative")
			return
		}
		sess.Guard().SetLimits(guard.Limits{
			IngestQPS:    req.IngestQPS,
			IngestBurst:  req.IngestBurst,
			PointsPerSec: req.PointsPerSec,
			PointBurst:   req.PointBurst,
		})
		writeJSON(w, http.StatusOK, limitsDTO(sess))
	default:
		writeError(w, http.StatusMethodNotAllowed, "GET or POST required")
	}
}

func limitsDTO(sess *session.Session) SessionLimitsDTO {
	l := sess.Guard().Limits()
	return SessionLimitsDTO{
		Session:      sess.Name(),
		IngestQPS:    l.IngestQPS,
		IngestBurst:  l.IngestBurst,
		PointsPerSec: l.PointsPerSec,
		PointBurst:   l.PointBurst,
	}
}

func guardDTO(sess *session.Session) GuardDTO {
	st := sess.Guard().Snapshot()
	return GuardDTO{
		BreakerEnabled:      st.BreakerEnabled,
		BreakerState:        st.BreakerState,
		Quarantined:         st.BreakerState != "closed",
		ConsecutiveFails:    st.ConsecutiveFails,
		Trips:               st.Trips,
		Heals:               st.Heals,
		CooldownRemainingMs: float64(st.CooldownRemaining.Microseconds()) / 1000,
		Panics:              st.Panics,
		StuckIngests:        st.Stuck,
		RateLimitedRequests: st.RateLimitedRequests,
		RateLimitedPoints:   st.RateLimitedPoints,
		Limits: SessionLimitsDTO{
			Session:      sess.Name(),
			IngestQPS:    st.Limits.IngestQPS,
			IngestBurst:  st.Limits.IngestBurst,
			PointsPerSec: st.Limits.PointsPerSec,
			PointBurst:   st.Limits.PointBurst,
		},
		WatchdogMs: float64(sess.Guard().Watchdog().Microseconds()) / 1000,
	}
}
