package main

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"
)

// maxLate is how far the dispatcher may fall behind the schedule before
// a run is declared invalid: past it the server is no longer being
// offered the stated rate.
const maxLate = time.Second

// requestTimeout bounds one request, so a wedged server fails the run
// instead of hanging it; it matches the server's own request deadline.
const requestTimeout = 30 * time.Second

// stepResult is one request's outcome. lat runs from the step's start
// (the op's start for the first step, the previous step's end after
// that) to the last response byte.
type stepResult struct {
	lat  time.Duration
	body []byte // kept only for steps marked keep
	err  error
}

// opResult is one op's outcome; total runs from the op's start to the
// last byte of its last step.
type opResult struct {
	total time.Duration
	steps []stepResult
}

type loadResult struct {
	ops      []opResult
	timerLag []time.Duration // dispatcher wake-up minus due time, per sleep
	lateMax  time.Duration   // worst dispatch time minus due time
}

// generator is the open-loop load generator: one dispatcher releases
// ops on schedule to a fixed set of keep-alive connections.
type generator struct {
	baseURL string
	conns   int
	// sleep is time.Sleep; tests substitute one that overshoots.
	sleep func(time.Duration)
}

// run executes the schedule. Each op is timed from when it was due, so
// an op waiting for a busy connection counts its wait (no coordinated
// omission). Timer lateness does not count: when the dispatcher had to
// sleep, the clock starts at its wake-up, because the wait past the due
// time was the timer's, not the server's.
//
// Each connection is opened with one GET /v1/stats before the schedule
// starts; ready runs after that, just before the first op.
func (g *generator) run(ops []op, ready func()) loadResult {
	res := loadResult{ops: make([]opResult, len(ops))}
	type job struct {
		i     int
		start time.Time
	}
	jobs := make(chan job) // unbuffered: a blocked send is queueing, and counts
	var opened, wg sync.WaitGroup
	clients := make([]*http.Client, g.conns)
	for c := range clients {
		tr := &http.Transport{Proxy: nil, MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}
		clients[c] = &http.Client{Transport: tr, Timeout: requestTimeout}
		opened.Add(1)
		wg.Add(1)
		go func(cl *http.Client) {
			defer wg.Done()
			_, _, _ = g.request(cl, step{method: "GET", path: "/v1/stats"}) // a failure shows in the ops
			opened.Done()
			for j := range jobs {
				res.ops[j.i] = g.do(cl, ops[j.i], j.start)
			}
		}(clients[c])
	}
	opened.Wait()
	ready()
	base := time.Now().Add(10 * time.Millisecond)
	var lastWake time.Time
	for i, o := range ops {
		due := base.Add(o.due)
		if d := time.Until(due); d > 0 {
			g.sleep(d)
			lastWake = time.Now()
			res.timerLag = append(res.timerLag, lastWake.Sub(due))
		}
		start := due
		if lastWake.After(start) {
			start = lastWake
		}
		jobs <- job{i, start}
		res.lateMax = max(res.lateMax, time.Since(due))
	}
	close(jobs)
	wg.Wait()
	for _, cl := range clients {
		cl.CloseIdleConnections()
	}
	return res
}

// do runs one op's steps in order on one connection.
func (g *generator) do(cl *http.Client, o op, start time.Time) opResult {
	out := opResult{steps: make([]stepResult, len(o.steps))}
	t := start
	for i, s := range o.steps {
		status, body, err := g.request(cl, s)
		end := time.Now()
		// Checked after the clock stops: decoding is the client's cost.
		if err == nil {
			err = checkResponse(s, status, body)
		}
		r := stepResult{lat: end.Sub(t), err: err}
		if s.keep {
			r.body = body
		}
		out.steps[i] = r
		t = end
	}
	out.total = t.Sub(start)
	return out
}

func (g *generator) request(cl *http.Client, s step) (int, []byte, error) {
	req, err := http.NewRequest(s.method, g.baseURL+s.path, bytes.NewReader(s.body))
	if err != nil {
		return 0, nil, err
	}
	if s.body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := cl.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	return resp.StatusCode, body, err
}

// checkResponse is the per-response part of the correctness gate: a
// 2xx whose body decodes strictly into the route's DTO.
func checkResponse(s step, status int, body []byte) error {
	if status/100 != 2 {
		return fmt.Errorf("%s %s: status %d: %s", s.method, s.path, status, bytes.TrimSpace(body))
	}
	if _, err := decodeDTO(s.route, body); err != nil {
		return fmt.Errorf("%s %s: %w", s.method, s.path, err)
	}
	return nil
}
