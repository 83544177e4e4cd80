package stream

import (
	"testing"
)

// BenchmarkStreamIngest measures the steady-state per-batch cost of the
// windowed incremental clusterer — the §III-C online path — with the
// persistent distance cache on (the default) and off (every pair that
// involves a new flow recomputes its distances). The window is warmed
// to capacity before the timer starts, so every measured ingest evicts
// one batch and admits one: the cached mode's win is the point of the
// cross-ingest cache.
func BenchmarkStreamIngest(b *testing.B) {
	g, ds := streamSetup(b)
	modes := []struct {
		name    string
		entries int
	}{
		{"cached", 0},    // persistent cache + maintained ε-graph
		{"uncached", -1}, // maintained ε-graph, no cache
	}
	for _, mode := range modes {
		b.Run(mode.name, func(b *testing.B) {
			cfg := streamConfig()
			cfg.Window = 4
			cfg.CacheEntries = mode.entries
			bs := batches(ds, 6)
			c, err := New(g, cfg)
			if err != nil {
				b.Fatal(err)
			}
			// Warm the window to steady state.
			for i := 0; i < cfg.Window; i++ {
				if _, err := c.Ingest(bs[i%len(bs)]); err != nil {
					b.Fatal(err)
				}
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := c.Ingest(bs[(i+cfg.Window)%len(bs)]); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
