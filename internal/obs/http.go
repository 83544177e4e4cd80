package obs

import (
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// Middleware wraps next so every request records a latency histogram
// (http_request_duration_seconds, labeled by route) and a counter
// (http_requests_total, labeled by route and status code) in reg.
//
// routes is the closed set of paths served by next; requests whose
// path is not in the set are recorded under route="other" so arbitrary
// client paths cannot inflate series cardinality. Each route's series
// are looked up in reg once, by the first request that records into
// them, so a series still appears only after a request used it.
// Passing a nil registry returns next unchanged.
func Middleware(reg *Registry, next http.Handler, routes ...string) http.Handler {
	if reg == nil {
		return next
	}
	known := make(map[string]*routeSeries, len(routes))
	for _, rt := range routes {
		known[rt] = &routeSeries{reg: reg, route: rt}
	}
	other := &routeSeries{reg: reg, route: "other"}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		rs, ok := known[r.URL.Path]
		if !ok {
			rs = other
		}
		rec := &statusRecorder{ResponseWriter: w, status: http.StatusOK}
		start := time.Now()
		next.ServeHTTP(rec, r)
		rs.histogram().ObserveDuration(time.Since(start))
		rs.counter(rec.status).Inc()
	})
}

// routeSeries holds one route's series once they are resolved: the
// latency histogram and the counter of each status code. Racing first
// uses resolve the same series.
type routeSeries struct {
	reg   *Registry
	route string
	hist  atomic.Pointer[Histogram]
	codes sync.Map // int status code → *Counter
}

func (s *routeSeries) histogram() *Histogram {
	if h := s.hist.Load(); h != nil {
		return h
	}
	h := s.reg.Histogram("http_request_duration_seconds", DefBuckets, L("route", s.route))
	s.hist.Store(h)
	return h
}

func (s *routeSeries) counter(code int) *Counter {
	if c, ok := s.codes.Load(code); ok {
		return c.(*Counter)
	}
	c, _ := s.codes.LoadOrStore(code, s.reg.Counter("http_requests_total", L("route", s.route), L("code", strconv.Itoa(code))))
	return c.(*Counter)
}

// statusRecorder captures the status code written by the handler;
// handlers that never call WriteHeader implicitly send 200.
type statusRecorder struct {
	http.ResponseWriter
	status int
	wrote  bool
}

func (r *statusRecorder) WriteHeader(status int) {
	if !r.wrote {
		r.status = status
		r.wrote = true
	}
	r.ResponseWriter.WriteHeader(status)
}

func (r *statusRecorder) Write(b []byte) (int, error) {
	r.wrote = true
	return r.ResponseWriter.Write(b)
}
