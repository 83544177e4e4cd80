package main

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"sync"
	"testing"
	"time"
)

var (
	testPoolsOnce sync.Once
	testPools     *pools
	testPoolsErr  error
)

func sharedPools(t *testing.T) *pools {
	t.Helper()
	testPoolsOnce.Do(func() { testPools, testPoolsErr = newPools() })
	if testPoolsErr != nil {
		t.Fatal(testPoolsErr)
	}
	return testPools
}

type specMetric struct {
	Name, Unit string
}

type spec struct {
	Workloads []struct {
		Name, Why string
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

func readSpec(t *testing.T) spec {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s spec
	if err := json.Unmarshal(raw, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

// TestSpecMatchesWorkloads keeps BENCHMARK.json's workload list, and
// the reason recorded for each, the same as the code's.
func TestSpecMatchesWorkloads(t *testing.T) {
	s := readSpec(t)
	if len(s.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json declares %d workloads, the code has %d", len(s.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if got := s.Workloads[i]; got.Name != w.name || got.Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the code %q (%q)", i, got.Name, got.Why, w.name, w.why)
		}
	}
}

// TestSmoke runs every workload for 2 s with tracing, which also runs
// the untraced load and the correctness gate, and checks that each
// metric BENCHMARK.json declares comes out with its unit.
func TestSmoke(t *testing.T) {
	s := readSpec(t)
	p := sharedPools(t)
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			opts := options{seed: 7, seconds: 2, trace: true, workdir: t.TempDir(), reps: 1}
			oc, err := runWorkload(w, p, opts, io.Discard)
			if err != nil {
				t.Fatal(err)
			}
			if oc.attempted == 0 || oc.failed != 0 {
				t.Fatalf("attempted %d, failed %d", oc.attempted, oc.failed)
			}
			check := func(declared []specMetric, got map[string]metric) {
				for _, m := range declared {
					v, ok := got[m.Name]
					if !ok || v.Unit != m.Unit {
						t.Errorf("metric %s: got %+v (present %v), want unit %q", m.Name, v, ok, m.Unit)
					}
				}
				if len(got) != len(declared) {
					t.Errorf("printed %d metrics, BENCHMARK.json declares %d", len(got), len(declared))
				}
			}
			check(s.EndToEnd, oc.endToEnd)
			check(s.PerLayer, oc.layers)
			for _, name := range []string{"setup_s", "p50_ms", "heap_mb"} {
				if oc.endToEnd[name].Value <= 0 {
					t.Errorf("%s = %v, want > 0", name, oc.endToEnd[name].Value)
				}
			}
		})
	}
}

// TestFingerprints pins every workload's inputs: the pools for any seed
// and the whole seed-1 schedule at the default duration.
func TestFingerprints(t *testing.T) {
	p := sharedPools(t)
	for _, w := range workloads {
		pl, err := buildPlan(w, p, 1, defaultSeconds)
		if err != nil {
			t.Fatal(err)
		}
		if err := checkPins(w, pl, options{seed: 1, seconds: defaultSeconds}); err != nil {
			t.Error(err)
		}
	}
}

func generatorSchedule(n int, gap time.Duration) []op {
	ops := make([]op, n)
	for i := range ops {
		ops[i] = op{due: time.Duration(i) * gap, steps: []step{{method: "GET", path: "/v1/stats", route: routeStats}}}
	}
	return ops
}

// TestGeneratorCountsQueueing offers 100 req/s to a 20 ms handler over
// one connection: the k-th request waits behind k earlier ones, so its
// latency from its due time is about 10k+20 ms. A generator that timed
// from the send (coordinated omission) would report about 20 ms.
func TestGeneratorCountsQueueing(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		time.Sleep(20 * time.Millisecond)
		io.WriteString(w, "{}")
	}))
	defer srv.Close()
	const n = 50
	g := &generator{baseURL: srv.URL, conns: 1, sleep: time.Sleep}
	lr := g.run(generatorSchedule(n, 10*time.Millisecond), func() {})
	for i, o := range lr.ops {
		if o.steps[0].err != nil {
			t.Fatalf("op %d: %v", i, o.steps[0].err)
		}
	}
	last := lr.ops[n-1].total
	if want := time.Duration(0.9 * float64(10*(n-1)+20) * float64(time.Millisecond)); last < want {
		t.Errorf("last op latency %v, want at least %v: the queueing wait is missing", last, want)
	}
	if lr.lateMax < 300*time.Millisecond {
		t.Errorf("dispatcher lateness %v: it should have fallen behind the overloaded schedule", lr.lateMax)
	}
}

// TestGeneratorExcludesTimerLag gives the dispatcher a timer that
// overshoots by 10 ms against an instant handler: latency must start at
// the wake-up, and the overshoot must show as timer lag instead.
func TestGeneratorExcludesTimerLag(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, "{}")
	}))
	defer srv.Close()
	const overshoot = 10 * time.Millisecond
	g := &generator{baseURL: srv.URL, conns: 1, sleep: func(d time.Duration) { time.Sleep(d + overshoot) }}
	lr := g.run(generatorSchedule(20, 30*time.Millisecond), func() {})
	var lats []time.Duration
	for _, o := range lr.ops {
		lats = append(lats, o.total)
	}
	if p50 := quantile(ms(lats), 0.5); p50 >= 5 {
		t.Errorf("p50 latency %.2f ms includes the timer's overshoot", p50)
	}
	if lag := quantile(ms(lr.timerLag), 0.5); lag < 10 {
		t.Errorf("timer lag p50 %.2f ms, want the 10 ms overshoot", lag)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1, ..., 10], n=4) == [2.75, 5.5, 8.25]
	got := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if got != [3]float64{2.75, 5.5, 8.25} {
		t.Errorf("quartiles = %v", got)
	}
}

func TestVerdict(t *testing.T) {
	base := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	for _, tc := range []struct {
		head  []float64
		bound float64
		want  string
	}{
		{[]float64{80, 81, 79, 80, 82, 78, 80, 81, 79, 80}, 0.1, "better"},
		{[]float64{120, 121, 119, 120, 122, 118, 120, 121, 119, 120}, 0.1, "worse"},
		{[]float64{101, 100, 100, 99, 101, 99, 100, 100, 101, 100}, 0.1, "within bound"},
		{[]float64{101, 100, 100, 99, 101, 99, 100, 100, 101, 100}, 0.001, "unresolved"},
		{[]float64{101, 100, 100, 99, 101, 99, 100, 100, 101, 100}, -1, "unresolved"},
	} {
		if got, _, _ := verdict(base, tc.head, true, tc.bound); got != tc.want {
			t.Errorf("verdict(head %v, bound %v) = %s, want %s", tc.head, tc.bound, got, tc.want)
		}
	}
}
