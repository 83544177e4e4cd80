package obs

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
)

func TestMiddlewareRecords(t *testing.T) {
	r := NewRegistry()
	next := http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		if req.URL.Path == "/missing" {
			http.Error(w, "nope", http.StatusNotFound)
			return
		}
		w.Write([]byte("ok"))
	})
	h := Middleware(r, next, "/v1/stats", "/v1/clusters")

	for _, path := range []string{"/v1/stats", "/v1/stats", "/missing", "/v1/clusters"} {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
	}

	if got := r.Counter("http_requests_total", L("route", "/v1/stats"), L("code", "200")).Value(); got != 2 {
		t.Errorf("stats 200s = %d, want 2", got)
	}
	// Unknown paths collapse into route="other", keeping cardinality
	// bounded, and the handler-written 404 is captured.
	if got := r.Counter("http_requests_total", L("route", "other"), L("code", "404")).Value(); got != 1 {
		t.Errorf("other 404s = %d, want 1", got)
	}
	if got := r.Histogram("http_request_duration_seconds", DefBuckets, L("route", "/v1/clusters")).Count(); got != 1 {
		t.Errorf("clusters latency observations = %d, want 1", got)
	}
	var b strings.Builder
	_ = r.WritePrometheus(&b)
	if !strings.Contains(b.String(), "http_request_duration_seconds_bucket") {
		t.Error("latency histogram missing from exposition")
	}
}

// TestMiddlewareConcurrentFirstUse sends the first requests of several
// routes and status codes from many goroutines at once (run it under
// -race): every request is counted once in its route's series, and a
// route or code no request used has no series.
func TestMiddlewareConcurrentFirstUse(t *testing.T) {
	r := NewRegistry()
	next := http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		code, _ := strconv.Atoi(req.URL.Query().Get("code"))
		w.WriteHeader(code)
	})
	h := Middleware(r, next, "/a", "/b", "/unused")
	paths := []string{"/a", "/b", "/elsewhere"}
	codes := []int{200, 404, 503}
	const workers, rounds = 8, 30
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				p, c := paths[(w+i)%len(paths)], codes[(w*7+i)%len(codes)]
				h.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest("GET", fmt.Sprintf("%s?code=%d", p, c), nil))
			}
		}()
	}
	wg.Wait()

	want := map[[2]string]int64{}
	perRoute := map[string]int64{}
	for w := 0; w < workers; w++ {
		for i := 0; i < rounds; i++ {
			route := paths[(w+i)%len(paths)]
			if route == "/elsewhere" {
				route = "other"
			}
			want[[2]string{route, strconv.Itoa(codes[(w*7+i)%len(codes)])}]++
			perRoute[route]++
		}
	}
	for k, n := range want {
		if got := r.Counter("http_requests_total", L("route", k[0]), L("code", k[1])).Value(); got != n {
			t.Errorf("route %s code %s: %d requests counted, want %d", k[0], k[1], got, n)
		}
	}
	for route, n := range perRoute {
		if got := r.Histogram("http_request_duration_seconds", DefBuckets, L("route", route)).Count(); got != n {
			t.Errorf("route %s: %d latencies observed, want %d", route, got, n)
		}
	}
	var b strings.Builder
	_ = r.WritePrometheus(&b)
	if strings.Contains(b.String(), "/unused") {
		t.Error("a route no request used has series")
	}
}

func TestMiddlewareNilRegistry(t *testing.T) {
	next := http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) { w.WriteHeader(204) })
	h := Middleware(nil, next)
	if _, ok := h.(http.HandlerFunc); !ok {
		t.Log("middleware wrapped despite nil registry (allowed but unexpected)")
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/x", nil))
	if rec.Code != 204 {
		t.Errorf("status = %d", rec.Code)
	}
}

func TestBuildInfo(t *testing.T) {
	b := BuildInfo()
	if b.GoVersion == "" {
		t.Error("no Go version")
	}
	if b.Module == "" || b.Version == "" {
		t.Errorf("module/version empty: %+v", b)
	}
	if s := b.String(); !strings.Contains(s, b.GoVersion) {
		t.Errorf("String() = %q", s)
	}
}
