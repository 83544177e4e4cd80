package stream

import (
	"context"
	"sync"
	"testing"
)

// TestCurrentPublishesCommittedSnapshots pins the lock-free read path:
// Current is nil before the first commit, tracks each committed batch
// afterwards, and a failed ingest never publishes. Concurrent readers
// run against a live ingest (meaningful under -race).
func TestCurrentPublishesCommittedSnapshots(t *testing.T) {
	g, ds := streamSetup(t)
	c, err := New(g, streamConfig())
	if err != nil {
		t.Fatal(err)
	}
	if c.Current() != nil {
		t.Fatal("Current non-nil before any ingest")
	}
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if sn := c.Current(); sn != nil && len(sn.Clusters) > 0 {
					_ = sn.Clusters[0].Cardinality()
				}
			}
		}()
	}
	for i, b := range batches(ds, 3) {
		snap, err := c.Ingest(b)
		if err != nil {
			t.Fatal(err)
		}
		cur := c.Current()
		if cur == nil || cur.Batch != snap.Batch || cur.StandingFlows != snap.StandingFlows {
			t.Fatalf("batch %d: Current = %+v, want the committed snapshot %+v", i, cur, snap)
		}
	}
	close(stop)
	wg.Wait()
	before := c.Current()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := c.IngestCtx(ctx, batches(ds, 3)[0]); err == nil {
		t.Fatal("canceled ingest succeeded")
	}
	if c.Current() != before {
		t.Error("failed ingest published a snapshot")
	}
}

// TestSnapshotTimingAndTrace covers the per-ingest observability the
// batch Result always had: each Snapshot carries the phase breakdown,
// and with Config.Trace on, a span tree with the batch run and the
// standing-set merge grafted under one ingest root.
func TestSnapshotTimingAndTrace(t *testing.T) {
	g, ds := streamSetup(t)
	cfg := streamConfig()
	cfg.Trace = true
	c, err := New(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i, b := range batches(ds, 2) {
		snap, err := c.Ingest(b)
		if err != nil {
			t.Fatal(err)
		}
		if snap.Timing.Phase1 <= 0 {
			t.Errorf("batch %d: Timing.Phase1 = %v", i, snap.Timing.Phase1)
		}
		if snap.Timing.Phase3 <= 0 {
			t.Errorf("batch %d: Timing.Phase3 = %v", i, snap.Timing.Phase3)
		}
		if snap.Trace == nil {
			t.Fatalf("batch %d: no trace despite Config.Trace", i)
		}
		if snap.Trace.Name() != "stream.ingest" {
			t.Errorf("batch %d: root span %q", i, snap.Trace.Name())
		}
		if snap.Trace.Find("neat.run") == nil {
			t.Errorf("batch %d: ingest trace lacks the batch run tree", i)
		}
		if snap.Trace.Find("neat.merge") == nil {
			t.Errorf("batch %d: ingest trace lacks the merge tree", i)
		}
		if snap.Trace.Find("phase2.flow_clusters") == nil || snap.Trace.Find("phase3.refine") == nil {
			t.Errorf("batch %d: ingest trace lacks phase spans", i)
		}
	}
}

// TestSnapshotTraceOffByDefault pins the zero-cost default.
func TestSnapshotTraceOffByDefault(t *testing.T) {
	g, ds := streamSetup(t)
	c, err := New(g, streamConfig())
	if err != nil {
		t.Fatal(err)
	}
	snap, err := c.Ingest(batches(ds, 2)[0])
	if err != nil {
		t.Fatal(err)
	}
	if snap.Trace != nil {
		t.Error("trace collected without Config.Trace")
	}
	if snap.Timing.Total() <= 0 {
		t.Error("timing missing without tracing")
	}
}

// TestNewValidatesWholeConfig pins that construction rejects any
// invalid part of the neat config.
func TestNewValidatesWholeConfig(t *testing.T) {
	g, _ := streamSetup(t)
	cfg := streamConfig()
	cfg.Neat.Refine.Epsilon = -5
	if _, err := New(g, cfg); err == nil {
		t.Error("invalid refine config accepted")
	}
	cfg = streamConfig()
	cfg.Neat.Flow.Beta = 0.1
	if _, err := New(g, cfg); err == nil {
		t.Error("invalid flow config accepted")
	}
}
