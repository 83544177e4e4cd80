package stream

import (
	"fmt"
	"math/rand"
	"os"
	"testing"

	"repro/internal/fault"
	"repro/internal/persist"
	"repro/internal/roadnet"
	"repro/internal/traj"
)

// durableConfig is streamConfig with a WAL + checkpoints in dir.
func durableConfig(dir string, opts persist.Options) Config {
	cfg := streamConfig()
	opts.Dir = dir
	cfg.Persist = &opts
	return cfg
}

// TestCrashRecoveryByteIdentity is the acceptance sweep: across 24
// seeds varying the checkpoint cadence, window size, segment size, and
// distance cache, a clusterer is killed mid-stream (Abort — no flush, no
// final checkpoint), its WAL is truncated at a seeded kill offset —
// exactly at a record boundary, mid-record, or not at all — and then
// reopened. Recovery must restore exactly the batches the surviving
// log + checkpoints cover (a mid-record cut loses at most that one
// torn record), and after re-ingesting the rest of the stream every
// snapshot must be byte-identical to an uncrashed control's.
func TestCrashRecoveryByteIdentity(t *testing.T) {
	g, ds := streamSetup(t)
	bs := batches(ds, 5)

	// Uncrashed controls, one per window/cache combination; the
	// per-batch canonical renders are the oracle.
	controls := map[string][]string{}
	control := func(window, cacheEntries int) []string {
		key := fmt.Sprintf("%d/%d", window, cacheEntries)
		if r, ok := controls[key]; ok {
			return r
		}
		cfg := streamConfig()
		cfg.Window = window
		cfg.CacheEntries = cacheEntries
		c, err := New(g, cfg)
		if err != nil {
			t.Fatal(err)
		}
		var renders []string
		for _, b := range bs {
			snap, err := c.Ingest(b)
			if err != nil {
				t.Fatal(err)
			}
			renders = append(renders, renderClusters(snap.Clusters))
		}
		controls[key] = renders
		return renders
	}

	for seed := 0; seed < 24; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(seed)))
			window := seed % 3
			cacheEntries := 0
			if seed%8 == 7 {
				cacheEntries = -1 // no distance cache
			}
			opts := persist.Options{
				Fsync:           persist.FsyncAlways,
				CheckpointEvery: []int{-1, 1, 2, 3}[seed%4],
			}
			if seed%2 == 1 {
				opts.SegmentBytes = 1 << 12 // force rotation mid-stream
			}
			dir := t.TempDir()
			cfg := durableConfig(dir, opts)
			cfg.Window = window
			cfg.CacheEntries = cacheEntries
			oracle := control(window, cacheEntries)

			crashAt := 1 + seed%(len(bs)-1) // batches ingested before the kill
			c, err := New(g, cfg)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < crashAt; i++ {
				if _, err := c.Ingest(bs[i]); err != nil {
					t.Fatal(err)
				}
			}
			c.Abort() // kill -9: no flush, no final checkpoint

			rep, err := persist.Inspect(dir)
			if err != nil {
				t.Fatal(err)
			}
			fin := rep.Segments[len(rep.Segments)-1]
			if len(fin.Records) == 0 {
				t.Fatalf("final segment %s holds no records", fin.Path)
			}
			last := fin.Records[len(fin.Records)-1]
			ckptSeq := 0
			for _, ck := range rep.Checkpoints {
				if ck.Err == nil {
					ckptSeq = int(ck.Seq)
					break // newest first
				}
			}

			// Place the kill offset: 0 = crash landed exactly after a
			// complete append; 1 = mid-record (torn final record);
			// 2 = at the boundary before the last record (it is lost
			// whole, cleanly).
			cut := seed % 3
			whole := crashAt
			switch cut {
			case 1:
				at := last.Offset + 1 + rng.Int63n(last.Len-1)
				if err := os.Truncate(fin.Path, at); err != nil {
					t.Fatal(err)
				}
				whole = crashAt - 1
			case 2:
				if err := os.Truncate(fin.Path, last.Offset); err != nil {
					t.Fatal(err)
				}
				whole = crashAt - 1
			}
			expected := whole
			if ckptSeq > expected {
				expected = ckptSeq // checkpoint outlives the lost record
			}

			c2, err := New(g, cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer c2.Close()
			if got := c2.Batches(); got != expected {
				t.Fatalf("cut=%d ckpt=%d: recovered %d batches, want %d", cut, ckptSeq, got, expected)
			}
			rec := c2.PersistStats().Recovery
			if wantTorn := cut == 1; (rec.TornTails > 0) != wantTorn {
				t.Fatalf("cut=%d: recovery reported %d torn tails", cut, rec.TornTails)
			}
			// Re-ingest everything the crash lost plus the rest of the
			// stream; each snapshot must match the uncrashed control
			// byte for byte.
			for i := expected; i < len(bs); i++ {
				snap, err := c2.Ingest(bs[i])
				if err != nil {
					t.Fatal(err)
				}
				if got := renderClusters(snap.Clusters); got != oracle[i] {
					t.Fatalf("batch %d after recovery diverged from control\ngot:\n%s\nwant:\n%s", i, got, oracle[i])
				}
			}
			if err := c2.Close(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestRecoveryFromDirtyCheckpoint pins recovery from a checkpoint that
// holds no ε-graph adjacency rows. Close writes one after a failed
// merge has left the maintained graph dirty; the reopened clusterer
// must rebuild the graph on its next merge, and every snapshot after
// the reopen must equal a never-faulted control's.
func TestRecoveryFromDirtyCheckpoint(t *testing.T) {
	g, ds := streamSetup(t)
	bs := batches(ds, 5)
	const failAt = 2 // the batch whose merge fails
	for _, cacheEntries := range []int{0, -1} {
		t.Run(fmt.Sprintf("cache=%d", cacheEntries), func(t *testing.T) {
			dir := t.TempDir()
			cfg := durableConfig(dir, persist.Options{CheckpointEvery: -1})
			cfg.Window = 2
			cfg.CacheEntries = cacheEntries

			ctrl, err := New(g, Config{Neat: cfg.Neat, Window: cfg.Window, CacheEntries: cacheEntries})
			if err != nil {
				t.Fatal(err)
			}
			var want []string
			for _, b := range bs {
				snap, err := ctrl.Ingest(b)
				if err != nil {
					t.Fatal(err)
				}
				want = append(want, renderClusters(snap.Clusters))
			}

			in := fault.New(fault.Config{Seed: 3, Points: map[fault.Point]fault.Spec{
				fault.SPQuery: {ErrProb: 1, MaxErrs: 1},
			}})
			in.SetEnabled(false)
			fcfg := cfg
			fcfg.Fault = in
			c, err := New(g, fcfg)
			if err != nil {
				t.Fatal(err)
			}
			for i, b := range bs[:failAt] {
				snap, err := c.Ingest(b)
				if err != nil {
					t.Fatal(err)
				}
				if got := renderClusters(snap.Clusters); got != want[i] {
					t.Fatalf("batch %d diverged from control\ngot:\n%s\nwant:\n%s", i, got, want[i])
				}
			}
			in.SetEnabled(true)
			if _, err := c.Ingest(bs[failAt]); !fault.IsInjected(err) {
				t.Fatalf("merge of batch %d: err = %v, want an injected SP fault", failAt, err)
			}
			if err := c.Close(); err != nil {
				t.Fatal(err)
			}

			store, err := persist.Open(persist.Options{Dir: dir})
			if err != nil {
				t.Fatal(err)
			}
			seq, payload, ok := store.Checkpoint()
			if !ok || seq != failAt {
				t.Fatalf("checkpoint at seq %d (ok=%v), want %d", seq, ok, failAt)
			}
			st, err := persist.DecodeStreamState(payload)
			if err != nil {
				t.Fatal(err)
			}
			if st.Adjacency != nil {
				t.Fatal("checkpoint written after a failed merge carries adjacency rows")
			}
			if err := store.Close(); err != nil {
				t.Fatal(err)
			}

			c2, err := New(g, cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer c2.Close()
			if c2.Batches() != failAt {
				t.Fatalf("recovered %d batches, want %d", c2.Batches(), failAt)
			}
			for i := failAt; i < len(bs); i++ {
				snap, err := c2.Ingest(bs[i])
				if err != nil {
					t.Fatal(err)
				}
				if got := renderClusters(snap.Clusters); got != want[i] {
					t.Fatalf("batch %d after recovery diverged from control\ngot:\n%s\nwant:\n%s", i, got, want[i])
				}
			}
		})
	}
}

// TestRecoveredSnapshotMatchesCleanRestart pins the clean-shutdown
// path: Close writes a final checkpoint, and a reopened clusterer
// continues the stream byte-identically — with zero WAL replay, since
// the checkpoint covers the whole log.
func TestRecoveredSnapshotMatchesCleanRestart(t *testing.T) {
	g, ds := streamSetup(t)
	bs := batches(ds, 4)
	dir := t.TempDir()
	cfg := durableConfig(dir, persist.Options{CheckpointEvery: -1})
	cfg.Window = 2

	c, err := New(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range bs[:2] {
		if _, err := c.Ingest(b); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Ingest(bs[2]); err == nil {
		t.Fatal("ingest after Close succeeded")
	}

	c2, err := New(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	if c2.Batches() != 2 {
		t.Fatalf("recovered %d batches, want 2", c2.Batches())
	}
	if rec := c2.PersistStats().Recovery; rec.Replayed != 0 {
		t.Fatalf("clean restart replayed %d WAL records, want 0 (checkpoint covers the log)", rec.Replayed)
	}

	ctrl, err := New(g, Config{Neat: cfg.Neat, Window: cfg.Window})
	if err != nil {
		t.Fatal(err)
	}
	var want Snapshot
	for _, b := range bs {
		if want, err = ctrl.Ingest(b); err != nil {
			t.Fatal(err)
		}
	}
	var got Snapshot
	for _, b := range bs[2:] {
		if got, err = c2.Ingest(b); err != nil {
			t.Fatal(err)
		}
	}
	if renderClusters(got.Clusters) != renderClusters(want.Clusters) {
		t.Fatalf("restarted stream diverged\ngot:\n%s\nwant:\n%s",
			renderClusters(got.Clusters), renderClusters(want.Clusters))
	}
	if got.StandingFlows != want.StandingFlows || got.EvictedFlows != want.EvictedFlows {
		t.Fatalf("accounting diverged: %+v vs %+v", got, want)
	}
}

// TestPersistCacheWarmRestart is the restart-hit-rate pin: with
// PersistCache on, checkpoints carry the warm distance-cache entries,
// and a recovered clusterer re-ingesting the identical batch answers
// every junction-pair query from the imported cache — zero
// shortest-path work. The control leg with PersistCache off recomputes
// (proving the assertion is not vacuous).
func TestPersistCacheWarmRestart(t *testing.T) {
	g, ds := streamSetup(t)
	batch := batches(ds, 3)[0]
	for _, warm := range []bool{true, false} {
		t.Run(fmt.Sprintf("persistcache=%v", warm), func(t *testing.T) {
			dir := t.TempDir()
			cfg := durableConfig(dir, persist.Options{CheckpointEvery: 1, PersistCache: warm})
			cfg.Window = 1
			c, err := New(g, cfg)
			if err != nil {
				t.Fatal(err)
			}
			first, err := c.Ingest(batch)
			if err != nil {
				t.Fatal(err)
			}
			if err := c.Close(); err != nil {
				t.Fatal(err)
			}

			c2, err := New(g, cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer c2.Close()
			if rec := c2.PersistStats().Recovery; rec.Replayed != 0 {
				t.Fatalf("replayed %d records; replay would warm the cache and void the test", rec.Replayed)
			}
			second, err := c2.Ingest(batch)
			if err != nil {
				t.Fatal(err)
			}
			if got, want := renderClusters(second.Clusters), renderClusters(first.Clusters); got != want {
				t.Fatalf("restarted re-ingest changed the clustering\ngot:\n%s\nwant:\n%s", got, want)
			}
			if warm {
				if second.RefineStats.SPQueries != 0 || second.RefineStats.CacheMisses != 0 {
					t.Fatalf("warm restart recomputed distances: %d SP queries, %d cache misses",
						second.RefineStats.SPQueries, second.RefineStats.CacheMisses)
				}
				if st := c2.CacheStats(); st.Hits == 0 {
					t.Fatal("warm restart reported zero cache hits")
				}
			} else if second.RefineStats.Pairs > 0 &&
				second.RefineStats.ELBPruned < second.RefineStats.Pairs &&
				second.RefineStats.CacheMisses == 0 && second.RefineStats.SPQueries == 0 {
				t.Fatal("cold restart answered from a cache that was not persisted")
			}
		})
	}
}

// TestSnapshotDoesNotAlias is the aliasing regression pin: the
// clusters a Snapshot carries are deep copies, so a caller that
// mutates them — routes, members, fragment points — cannot corrupt the
// clusterer's standing state or any later snapshot.
func TestSnapshotDoesNotAlias(t *testing.T) {
	g, ds := streamSetup(t)
	bs := batches(ds, 3)
	mk := func() *Clusterer {
		c, err := New(g, streamConfig())
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	victim, ctrl := mk(), mk()
	for i, b := range bs {
		vs, err := victim.Ingest(b)
		if err != nil {
			t.Fatal(err)
		}
		cs, err := ctrl.Ingest(b)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := renderClusters(vs.Clusters), renderClusters(cs.Clusters); got != want {
			t.Fatalf("batch %d: mutation of an earlier snapshot leaked into the clusterer\ngot:\n%s\nwant:\n%s", i, got, want)
		}
		// Vandalize the snapshot as thoroughly as the API exposes.
		for _, cl := range vs.Clusters {
			for _, f := range cl.Flows {
				for l, r := 0, len(f.Route)-1; l < r; l, r = l+1, r-1 {
					f.Route[l], f.Route[r] = f.Route[r], f.Route[l]
				}
				f.Route = append(f.Route, roadnet.SegID(-1))
				for _, m := range f.Members {
					m.Seg = -1
					for fi := range m.Fragments {
						for pi := range m.Fragments[fi].Points {
							m.Fragments[fi].Points[pi] = traj.Location{}
						}
					}
					m.Fragments = nil
				}
				f.Members = f.Members[:0]
			}
			cl.Flows = cl.Flows[:0]
		}
		vs.Clusters = nil
	}
}
