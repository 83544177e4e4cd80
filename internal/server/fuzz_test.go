package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
)

// FuzzServerIngest throws arbitrary bodies at POST /v1/trajectories:
// the decoder must reject malformed, hostile, or truncated input with
// a 4xx — never panic, never crash the handler, never commit partial
// state that poisons a later valid ingest.
func FuzzServerIngest(f *testing.F) {
	g, ds := testSetup(f)
	h := New(g, Config{DataNodes: 2, MaxBatch: 64}).Handler()

	valid, err := json.Marshal(FromDataset(ds))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"trajectories":[]}`))
	f.Add([]byte(`{"trajectories":[{"trid":1,"points":[{"sid":0,"x":1,"y":2,"t":3}]}]}`))
	f.Add([]byte(`{"trajectories":[{"trid":1,"points":[{"sid":-5,"x":1,"y":2,"t":3}]}]}`))
	f.Add([]byte(`{"trajectories":[{"trid":1},{"trid":1}]}`))
	f.Add([]byte(`{"trajectories":[{"trid":1,"points":[{"sid":999999,"x":0,"y":0,"t":0}]}]}`))
	f.Add([]byte(`{"trajectories": [{"trid": 2, "points": [{"sid": 0, "x": 1e308, "y": -1e308, "t": 1e308}]}]}`))
	f.Add([]byte(`not json at all`))
	f.Add([]byte(``))
	f.Add([]byte(`[1,2,3]`))
	f.Add([]byte(`{"trajectories":`))
	for _, c := range decodeCases {
		f.Add([]byte(c.body))
	}

	f.Fuzz(func(t *testing.T, body []byte) {
		req := httptest.NewRequest(http.MethodPost, "/v1/trajectories", bytes.NewReader(body))
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req) // must not panic
		switch rec.Code {
		case http.StatusOK, http.StatusBadRequest, http.StatusConflict,
			http.StatusRequestEntityTooLarge, http.StatusTooManyRequests,
			http.StatusServiceUnavailable:
		default:
			t.Fatalf("unexpected status %d for body %q", rec.Code, body)
		}
	})
}
