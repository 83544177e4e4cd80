package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sort"

	"repro/internal/persist"
	"repro/internal/server"
)

// call serves one request in-process through h, without sockets.
func call(h http.Handler, method, path string, body []byte) (int, []byte) {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(method, path, bytes.NewReader(body)))
	return rec.Code, rec.Body.Bytes()
}

// setUp creates the plan's tenants and preloads them through h; with
// warm it also issues the warm-up reads.
func setUp(h http.Handler, pl *plan, warm bool) error {
	for _, t := range pl.tenants {
		if t.create != nil {
			if code, body := call(h, "POST", "/v1/sessions", t.create); code != http.StatusCreated {
				return fmt.Errorf("create session: status %d: %s", code, bytes.TrimSpace(body))
			}
		}
		steps := t.preload
		if warm {
			steps = append(steps[:len(steps):len(steps)], t.warm...)
		}
		for _, s := range steps {
			code, body := call(h, s.method, s.path, s.body)
			if err := checkResponse(s, code, body); err != nil {
				return fmt.Errorf("setup: %w", err)
			}
		}
	}
	return nil
}

// strict decodes body into T, rejecting unknown fields and trailing
// data.
func strict[T any](body []byte) (T, error) {
	var v T
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&v); err != nil {
		return v, err
	}
	if dec.More() {
		return v, fmt.Errorf("trailing data after the response object")
	}
	return v, nil
}

// decodeDTO decodes a response strictly into its route's DTO and checks
// what the response alone can show.
func decodeDTO(route string, body []byte) (any, error) {
	switch route {
	case routeIngest:
		r, err := strict[server.IngestResponse](body)
		if err == nil && (r.Accepted <= 0 || r.TotalFragments < r.Fragments) {
			err = fmt.Errorf("inconsistent ingest response %+v", r)
		}
		return r, err
	case routeCluster:
		r, err := strict[server.ClusterResponse](body)
		if err == nil && r.Stale {
			err = fmt.Errorf("stale clustering served")
		}
		return r, err
	case routeQuery:
		r, err := strict[server.QueryResponse](body)
		if err == nil && r.Count != len(r.IDs) {
			err = fmt.Errorf("query count %d but %d ids", r.Count, len(r.IDs))
		}
		return r, err
	case routeStats:
		return strict[server.StatsResponse](body)
	}
	return nil, fmt.Errorf("unknown route %q", route)
}

// normalize renders a read's answer in the form the model produces:
// the DTO re-marshalled, elapsed_ms zeroed in clusterings, and only the
// dataset fields of a stats response.
func normalize(route string, body []byte) ([]byte, error) {
	v, err := decodeDTO(route, body)
	if err != nil {
		return nil, err
	}
	switch r := v.(type) {
	case server.ClusterResponse:
		r.ElapsedMs = 0
		v = r
	case server.StatsResponse:
		v = statsFields(r.Session, r.Junctions, r.Segments, r.Trajectories, r.TotalFragments)
	}
	return json.Marshal(v)
}

// ack is one acknowledged ingest of the run.
type ack struct {
	op   int
	step step
	resp server.IngestResponse
}

// commitOrder recovers the order in which the server committed the
// run's acknowledged ingests from their total_fragments, and checks the
// chain: each commit's total is the previous total plus its own
// fragments, starting from the preload's total.
func commitOrder(pl *plan, lr loadResult, base int) ([]ack, map[int]int, error) {
	var acks []ack
	for i, o := range pl.ops {
		for si, s := range o.steps {
			r := lr.ops[i].steps[si]
			if s.route != routeIngest || r.err != nil {
				continue
			}
			v, err := decodeDTO(routeIngest, r.body)
			if err != nil {
				return nil, nil, err
			}
			acks = append(acks, ack{op: i, step: s, resp: v.(server.IngestResponse)})
		}
	}
	sort.Slice(acks, func(a, b int) bool { return acks[a].resp.TotalFragments < acks[b].resp.TotalFragments })
	pos := make(map[int]int, len(acks))
	total := base
	for k, a := range acks {
		if a.resp.TotalFragments-a.resp.Fragments != total {
			return nil, nil, fmt.Errorf("commit order: ingest of op %d reports total %d after %d fragments, but the previous commit left %d",
				a.op, a.resp.TotalFragments, a.resp.Fragments, total)
		}
		total = a.resp.TotalFragments
		pos[a.op] = k + 1
	}
	return acks, pos, nil
}

// verify is the correctness gate. The model gets the same setup and then
// the acknowledged ingests in commit order; each acknowledgement must
// equal the one it owes, and the run's sampled reads must equal its
// answers byte for byte. A read issued after its round's own ingest may
// have seen up to two later commits from the other connection, so any
// of those states may match. For a durable run, the run server is
// aborted (kill -9) and reopened: it must recover exactly the model's
// dataset, the preload plus the acknowledged batches.
func verify(pl *plan, lr loadResult, base int, run *server.Server, durableDir string) (int, error) {
	m, err := newModel(pl)
	if err != nil {
		return 0, err
	}
	if want := len(m.tenants[""].frags); base != want {
		return 0, fmt.Errorf("after setup the server holds %d fragments, the preload makes %d", base, want)
	}
	acks, pos, err := commitOrder(pl, lr, base)
	if err != nil {
		return 0, err
	}
	type read struct {
		op, step int
		lo, hi   int // candidate states: commits applied
	}
	var reads []read
	need := map[int][]read{}
	for i, o := range pl.ops {
		failed := false
		for _, r := range lr.ops[i].steps {
			failed = failed || r.err != nil
		}
		for si, s := range o.steps {
			if s.method != "GET" || !s.keep || failed {
				continue
			}
			lo, ok := pos[i]
			rd := read{op: i, step: si, lo: lo, hi: lo}
			if ok {
				rd.hi = min(lo+2, len(acks))
			}
			reads = append(reads, rd)
			for k := rd.lo; k <= rd.hi; k++ {
				need[k] = append(need[k], rd)
			}
		}
	}
	answers := map[int]map[string][]byte{}
	ask := func(k int) error {
		for _, rd := range need[k] {
			s := pl.ops[rd.op].steps[rd.step]
			if answers[k] == nil {
				answers[k] = map[string][]byte{}
			}
			if _, ok := answers[k][s.path]; ok {
				continue
			}
			a, err := m.answer(s)
			if err != nil {
				return fmt.Errorf("model: %s: %w", s.path, err)
			}
			answers[k][s.path] = a
		}
		return nil
	}
	if err := ask(0); err != nil {
		return 0, err
	}
	for k, a := range acks {
		want, err := m.ingest(a.step)
		if err != nil {
			return 0, fmt.Errorf("model, commit %d: %w", k+1, err)
		}
		if want != a.resp {
			return 0, fmt.Errorf("commit %d (op %d): the run acknowledged %+v, the model %+v", k+1, a.op, a.resp, want)
		}
		if err := ask(k + 1); err != nil {
			return 0, err
		}
	}
	for _, rd := range reads {
		s := pl.ops[rd.op].steps[rd.step]
		got, err := normalize(s.route, lr.ops[rd.op].steps[rd.step].body)
		if err != nil {
			return 0, err
		}
		match := false
		for k := rd.lo; k <= rd.hi && !match; k++ {
			match = bytes.Equal(got, answers[k][s.path])
		}
		if !match {
			return 0, fmt.Errorf("op %d: %s differs from the model after %d-%d commits:\nrun:   %.300s\nmodel: %.300s",
				rd.op, s.path, rd.lo, rd.hi, got, answers[rd.lo][s.path])
		}
	}
	if durableDir != "" {
		run.Abort()
		rec, err := server.Open(pl.graph, serverConfig(nil, durableDir))
		if err != nil {
			return 0, fmt.Errorf("reopen after abort: %w", err)
		}
		defer rec.Abort()
		sn := rec.Sessions().Default().Current()
		got := persist.EncodeServerState(persist.ServerState{Batches: sn.Version, Trajs: sn.Trajs, Fragments: sn.Fragments})
		if !bytes.Equal(got, m.state()) {
			t := m.tenants[""]
			return 0, fmt.Errorf("recovery: %d batches / %d trajectories / %d fragments, want %d / %d / %d",
				sn.Version, len(sn.Trajs), len(sn.Fragments), t.batches, len(t.trajs), len(t.frags))
		}
	}
	return len(reads), nil
}
