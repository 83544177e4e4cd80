package persist

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/fault"
	"repro/internal/geo"
	"repro/internal/neat"
	"repro/internal/obs"
	"repro/internal/roadnet"
	"repro/internal/traj"
)

// testBatch builds a small dataset whose floats exercise full float64
// precision (the CSV codecs would quantize these; persist must not).
func testBatch(seed int) traj.Dataset {
	mk := func(id traj.ID) traj.Trajectory {
		tr := traj.Trajectory{ID: id}
		for k := 0; k < 4; k++ {
			f := float64(seed*31+int(id)*7+k) + math.Pi/float64(k+1)
			tr.Points = append(tr.Points, traj.Location{
				Seg:      roadnet.SegID(seed + k),
				Pt:       geo.Point{X: f * 1e3, Y: -f / 3},
				Time:     float64(k) + 0.1234567890123,
				Junction: roadnet.NoNode,
			})
		}
		return tr
	}
	return traj.Dataset{
		Name:         "batch",
		Trajectories: []traj.Trajectory{mk(traj.ID(seed * 10)), mk(traj.ID(seed*10 + 1))},
	}
}

func TestDatasetCodecExactRoundTrip(t *testing.T) {
	ds := testBatch(3)
	// Values the quantizing CSV codec cannot carry.
	ds.Trajectories[0].Points[0].Pt.X = 1e-300
	ds.Trajectories[0].Points[1].Pt.Y = math.Copysign(0, -1)
	ds.Trajectories[0].Points[2].Time = 1.0000000000000002
	got, err := DecodeDataset(EncodeDataset(ds))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, ds) {
		t.Fatalf("round trip diverged:\n got %+v\nwant %+v", got, ds)
	}
	if math.Signbit(got.Trajectories[0].Points[1].Pt.Y) != true {
		t.Error("negative zero lost its sign bit")
	}
}

func TestDatasetDecodeRejectsCorruption(t *testing.T) {
	b := EncodeDataset(testBatch(1))
	if _, err := DecodeDataset(b[:len(b)-3]); err == nil {
		t.Error("truncated dataset decoded")
	}
	if _, err := DecodeDataset(append(append([]byte(nil), b...), 0xEE)); err == nil {
		t.Error("trailing garbage accepted")
	}
	// A hostile trajectory count must not allocate. The count sits
	// right after the length-prefixed name.
	hostile := append([]byte(nil), b...)
	off := 4 + len("batch")
	for i := 0; i < 4; i++ {
		hostile[off+i] = 0xFF
	}
	if _, err := DecodeDataset(hostile); err == nil {
		t.Error("implausible count accepted")
	}
}

func TestWALAppendReplayAndRotation(t *testing.T) {
	dir := t.TempDir()
	opts := Options{Dir: dir, Fsync: FsyncOff, SegmentBytes: 256}
	s, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	const n = 6
	want := make([]traj.Dataset, n)
	for i := 0; i < n; i++ {
		want[i] = testBatch(i)
		if err := s.AppendBatch(uint64(i), want[i]); err != nil {
			t.Fatal(err)
		}
	}
	if st := s.Stats(); st.Segments < 2 {
		t.Fatalf("expected rotation at SegmentBytes=256, got %d segment(s)", st.Segments)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if st := s2.Stats(); st.Recovery.Records != n || st.Recovery.TornTails != 0 {
		t.Fatalf("recovery stats = %+v, want %d clean records", st.Recovery, n)
	}
	var seqs []uint64
	err = s2.Replay(0, func(seq uint64, ds traj.Dataset) error {
		if !reflect.DeepEqual(ds, want[seq]) {
			t.Errorf("record %d body diverged", seq)
		}
		seqs = append(seqs, seq)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, seq := range seqs {
		if seq != uint64(i) {
			t.Fatalf("replay order %v", seqs)
		}
	}
	if len(seqs) != n {
		t.Fatalf("replayed %d records, want %d", len(seqs), n)
	}
	// Replay from the middle: only the tail.
	count := 0
	if err := s2.Replay(4, func(uint64, traj.Dataset) error { count++; return nil }); err != nil {
		t.Fatal(err)
	}
	if count != 2 {
		t.Fatalf("Replay(4) visited %d records, want 2", count)
	}
}

// lastSegment returns the path and records of the final segment.
func lastSegment(t *testing.T, dir string) SegmentInfo {
	t.Helper()
	rep, err := Inspect(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Segments) == 0 {
		t.Fatal("no segments")
	}
	return rep.Segments[len(rep.Segments)-1]
}

func TestTornFinalRecordDroppedOnly(t *testing.T) {
	dir := t.TempDir()
	opts := Options{Dir: dir, Fsync: FsyncOff}
	s, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := s.AppendBatch(uint64(i), testBatch(i)); err != nil {
			t.Fatal(err)
		}
	}
	s.Abort() // simulated kill -9

	// Tear the final record: cut the file inside its frame.
	si := lastSegment(t, dir)
	last := si.Records[len(si.Records)-1]
	if err := os.Truncate(si.Path, last.Offset+last.Len/2); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	st := s2.Stats()
	if st.Recovery.TornTails != 1 {
		t.Fatalf("torn tails = %d, want 1", st.Recovery.TornTails)
	}
	if st.Recovery.Records != 2 {
		t.Fatalf("surviving records = %d, want 2 (only the torn final record drops)", st.Recovery.Records)
	}
	// The log keeps working: the dropped sequence number is reusable.
	if err := s2.AppendBatch(2, testBatch(2)); err != nil {
		t.Fatal(err)
	}
	count := 0
	if err := s2.Replay(0, func(uint64, traj.Dataset) error { count++; return nil }); err != nil {
		t.Fatal(err)
	}
	if count != 3 {
		t.Fatalf("replay after re-append visited %d records, want 3", count)
	}
}

func TestCorruptSealedSegmentRejected(t *testing.T) {
	dir := t.TempDir()
	opts := Options{Dir: dir, Fsync: FsyncOff, SegmentBytes: 256}
	s, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		if err := s.AppendBatch(uint64(i), testBatch(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	rep, err := Inspect(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Segments) < 2 {
		t.Fatal("need at least two segments for this test")
	}
	// Flip a payload byte in the first (sealed) segment: that is not a
	// crash signature, so Open must refuse rather than silently drop
	// acknowledged records.
	first := rep.Segments[0]
	data, err := os.ReadFile(first.Path)
	if err != nil {
		t.Fatal(err)
	}
	data[first.Records[0].Offset+frameHeader+5] ^= 0xFF
	if err := os.WriteFile(first.Path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(opts); err == nil {
		t.Fatal("Open accepted a corrupt sealed segment")
	}
}

func TestCheckpointWriteLoadPruneFallback(t *testing.T) {
	dir := t.TempDir()
	opts := Options{Dir: dir, Fsync: FsyncOff, KeepCheckpoints: 2}
	s, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	for seq := uint64(1); seq <= 4; seq++ {
		payload := EncodeServerState(ServerState{Batches: seq})
		if err := s.WriteCheckpoint(seq, payload); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	rep, err := Inspect(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Checkpoints) != 2 {
		t.Fatalf("prune kept %d checkpoints, want 2", len(rep.Checkpoints))
	}

	s2, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	seq, payload, ok := s2.Checkpoint()
	if !ok || seq != 4 {
		t.Fatalf("loaded checkpoint seq %d ok=%v, want 4", seq, ok)
	}
	st, err := DecodeServerState(payload)
	if err != nil || st.Batches != 4 {
		t.Fatalf("payload decode: %+v, %v", st, err)
	}
	s2.Close()

	// Corrupt the newest checkpoint: recovery must fall back to seq 3,
	// not cold-start.
	newest := filepath.Join(dir, ckptName(4))
	data, err := os.ReadFile(newest)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-1] ^= 0xFF
	if err := os.WriteFile(newest, data, 0o644); err != nil {
		t.Fatal(err)
	}
	s3, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer s3.Close()
	seq, _, ok = s3.Checkpoint()
	if !ok || seq != 3 {
		t.Fatalf("fallback checkpoint seq %d ok=%v, want 3", seq, ok)
	}
	if s3.Stats().Recovery.SkippedCheckpoints != 1 {
		t.Fatalf("skipped = %d, want 1", s3.Stats().Recovery.SkippedCheckpoints)
	}
}

// writeCheckpoints opens a store in dir, writes checkpoints at seqs 1..n
// and closes it.
func writeCheckpoints(t *testing.T, dir string, n uint64) {
	t.Helper()
	s, err := Open(Options{Dir: dir, Fsync: FsyncOff, KeepCheckpoints: int(n)})
	if err != nil {
		t.Fatal(err)
	}
	for seq := uint64(1); seq <= n; seq++ {
		if err := s.WriteCheckpoint(seq, EncodeServerState(ServerState{Batches: seq})); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}

// A live server may be writing a checkpoint's temp file while
// `neatcli wal` inspects its directory: Inspect must leave it, and only
// Open removes it.
func TestInspectLeavesCheckpointTempFiles(t *testing.T) {
	dir := t.TempDir()
	writeCheckpoints(t, dir, 1)
	tmp := filepath.Join(dir, ckptName(2)+".tmp")
	if err := os.WriteFile(tmp, []byte("half-written"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Inspect(dir); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(tmp); err != nil {
		t.Fatalf("Inspect removed %s: %v", filepath.Base(tmp), err)
	}
	s, err := Open(Options{Dir: dir, Fsync: FsyncOff})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if _, err := os.Stat(tmp); !os.IsNotExist(err) {
		t.Fatalf("Open left %s: %v", filepath.Base(tmp), err)
	}
}

// Listing reads no file, so Inspect validates each checkpoint itself.
func TestInspectValidatesCheckpoints(t *testing.T) {
	dir := t.TempDir()
	writeCheckpoints(t, dir, 3)
	corrupt := filepath.Join(dir, ckptName(3))
	data, err := os.ReadFile(corrupt)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-1] ^= 0xFF
	if err := os.WriteFile(corrupt, data, 0o644); err != nil {
		t.Fatal(err)
	}
	// A valid checkpoint under another sequence number's name.
	valid, err := os.ReadFile(filepath.Join(dir, ckptName(2)))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Rename(filepath.Join(dir, ckptName(1)), filepath.Join(dir, ckptName(7))); err != nil {
		t.Fatal(err)
	}

	rep, err := Inspect(dir)
	if err != nil {
		t.Fatal(err)
	}
	var seqs []uint64
	for _, ck := range rep.Checkpoints {
		seqs = append(seqs, ck.Seq)
	}
	if !reflect.DeepEqual(seqs, []uint64{7, 3, 2}) {
		t.Fatalf("checkpoint order %v, want [7 3 2]", seqs)
	}
	if err := rep.Checkpoints[0].Err; err == nil || !strings.Contains(err.Error(), "claims seq 1") {
		t.Errorf("renamed checkpoint: err %v, want a seq mismatch", err)
	}
	if err := rep.Checkpoints[1].Err; err == nil || !strings.Contains(err.Error(), "CRC") {
		t.Errorf("corrupt checkpoint: err %v, want a CRC mismatch", err)
	}
	if ck := rep.Checkpoints[2]; ck.Err != nil || ck.Bytes != int64(len(valid)) {
		t.Errorf("valid checkpoint: bytes %d err %v, want %d bytes and no error", ck.Bytes, ck.Err, len(valid))
	}

	// Recovery skips both invalid files and loads seq 2.
	s, err := Open(Options{Dir: dir, Fsync: FsyncOff})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if seq, _, ok := s.Checkpoint(); !ok || seq != 2 {
		t.Fatalf("Open loaded seq %d ok=%v, want 2", seq, ok)
	}
	if n := s.Stats().Recovery.SkippedCheckpoints; n != 2 {
		t.Fatalf("skipped %d checkpoints, want 2", n)
	}
	if seq, _, ok := s.ReloadCheckpoint(); !ok || seq != 2 {
		t.Fatalf("ReloadCheckpoint loaded seq %d ok=%v, want 2", seq, ok)
	}
}

func TestCheckpointCompactsCoveredSegments(t *testing.T) {
	dir := t.TempDir()
	opts := Options{Dir: dir, Fsync: FsyncOff, SegmentBytes: 256}
	s, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for i := 0; i < 8; i++ {
		if err := s.AppendBatch(uint64(i), testBatch(i)); err != nil {
			t.Fatal(err)
		}
	}
	before := s.Stats().Segments
	if before < 3 {
		t.Fatalf("need >= 3 segments, got %d", before)
	}
	if err := s.WriteCheckpoint(8, EncodeServerState(ServerState{Batches: 8})); err != nil {
		t.Fatal(err)
	}
	after := s.Stats().Segments
	if after != 1 {
		t.Fatalf("compaction left %d segments, want 1 (the active one)", after)
	}
	// Nothing the checkpoint does not cover was lost: replay from 8 is
	// empty, and appends continue.
	if err := s.Replay(8, func(seq uint64, _ traj.Dataset) error {
		t.Errorf("unexpected record %d after full compaction", seq)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if err := s.AppendBatch(8, testBatch(8)); err != nil {
		t.Fatal(err)
	}
}

func TestInjectedFaultsRollBackCleanly(t *testing.T) {
	dir := t.TempDir()
	in := fault.New(fault.Config{Seed: 7, Points: map[fault.Point]fault.Spec{
		fault.WALAppend:       {ErrProb: 1},
		fault.CheckpointWrite: {ErrProb: 1},
	}})
	s, err := Open(Options{Dir: dir, Fsync: FsyncAlways, Fault: in})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.AppendBatch(0, testBatch(0)); !fault.IsInjected(err) {
		t.Fatalf("append error = %v, want injected", err)
	}
	if err := s.WriteCheckpoint(1, []byte("x")); !fault.IsInjected(err) {
		t.Fatalf("checkpoint error = %v, want injected", err)
	}
	if st := s.Stats(); st.Appends != 0 || st.Checkpoints != 0 || st.LastCheckpointError == "" {
		t.Fatalf("stats after injected failures: %+v", st)
	}
	in.SetEnabled(false)
	if err := s.AppendBatch(0, testBatch(0)); err != nil {
		t.Fatal(err)
	}
	if err := s.WriteCheckpoint(1, []byte("x")); err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.LastCheckpointError != "" {
		t.Fatalf("checkpoint error not cleared: %q", st.LastCheckpointError)
	}

	// A failed fsync under FsyncAlways rewinds the segment too: the
	// record must not exist for a batch the caller rolled back.
	in2 := fault.New(fault.Config{Seed: 9, Points: map[fault.Point]fault.Spec{
		fault.WALFsync: {ErrProb: 1},
	}})
	dir2 := t.TempDir()
	s2, err := Open(Options{Dir: dir2, Fsync: FsyncAlways, Fault: in2})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if err := s2.AppendBatch(0, testBatch(0)); !fault.IsInjected(err) {
		t.Fatalf("fsync-failed append error = %v, want injected", err)
	}
	in2.SetEnabled(false)
	if err := s2.AppendBatch(0, testBatch(0)); err != nil {
		t.Fatal(err)
	}
	count := 0
	if err := s2.Replay(0, func(uint64, traj.Dataset) error { count++; return nil }); err != nil {
		t.Fatal(err)
	}
	if count != 1 {
		t.Fatalf("log holds %d records after one rolled-back and one committed append, want 1", count)
	}
}

func TestStoreMetricsRegistered(t *testing.T) {
	reg := obs.NewRegistry()
	dir := t.TempDir()
	s, err := Open(Options{Dir: dir, Fsync: FsyncAlways, Obs: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.AppendBatch(0, testBatch(0)); err != nil {
		t.Fatal(err)
	}
	if err := s.WriteCheckpoint(1, []byte("p")); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"neat_wal_appends_total 1",
		"neat_wal_fsyncs_total 1",
		"neat_wal_segments 1",
		"neat_checkpoint_writes_total 1",
		"neat_checkpoint_seq 1",
	} {
		if !bytes.Contains(buf.Bytes(), []byte(want)) {
			t.Errorf("metrics missing %q", want)
		}
	}
}

// testFlow builds a structurally valid flow without a pipeline run.
func testFlow(segs ...roadnet.SegID) *neat.FlowCluster {
	members := make([]*neat.BaseCluster, len(segs))
	route := make(roadnet.Route, len(segs))
	for i, sg := range segs {
		frag := traj.TFragment{
			Traj: traj.ID(i), Seg: sg, Index: i,
			Points: []traj.Location{{Seg: sg, Pt: geo.Point{X: float64(sg), Y: math.Sqrt2}, Time: float64(i), Junction: roadnet.NoNode}},
		}
		members[i] = neat.RestoreBaseCluster(sg, []traj.TFragment{frag})
		route[i] = sg
	}
	f, err := neat.RestoreFlow(members, route, 1, 2)
	if err != nil {
		panic(err)
	}
	return f
}

// pipelineFlows runs Phases 1–2 over a three-segment path whose
// fragments arrive with out-of-order, non-contiguous trajectory ids.
func pipelineFlows(t *testing.T) []*neat.FlowCluster {
	t.Helper()
	var b roadnet.Builder
	for x := 0; x < 4; x++ {
		b.AddJunction(geo.Point{X: float64(1000 * x)})
	}
	for n := roadnet.NodeID(0); n < 3; n++ {
		if _, err := b.AddSegment(n, n+1, roadnet.SegmentOpts{SpeedLimit: 10}); err != nil {
			t.Fatal(err)
		}
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	var frags []traj.TFragment
	for i, id := range []traj.ID{42, 7, 19, 7, 3, 42, 19, 11} {
		sg := roadnet.SegID(i % 3)
		frags = append(frags, traj.TFragment{
			Traj: id, Seg: sg, Index: i,
			Points: []traj.Location{{Seg: sg, Pt: geo.Point{X: float64(i)}, Junction: roadnet.NoNode}},
		})
	}
	flows, _, err := neat.FormFlowClusters(g, neat.FormBaseClusters(frags), neat.FlowConfig{})
	if err != nil {
		t.Fatal(err)
	}
	return flows
}

func TestStreamStateCodecIdempotent(t *testing.T) {
	st := StreamState{
		Batch: 5,
		Entries: []StreamEntry{
			{Batch: 3, Flow: testFlow(4, 7)},
			{Batch: 4, Flow: testFlow(9)},
		},
		Adjacency: [][]int{{1}, {0}},
	}
	b1 := EncodeStreamState(st)
	got, err := DecodeStreamState(b1)
	if err != nil {
		t.Fatal(err)
	}
	b2 := EncodeStreamState(got)
	if !bytes.Equal(b1, b2) {
		t.Fatal("stream state encode∘decode is not idempotent")
	}
	if got.Batch != 5 || len(got.Entries) != 2 || got.Entries[0].Flow.Cardinality() != 2 {
		t.Fatalf("decoded state diverged: %+v", got)
	}

	// Restoring rebuilds the participant lists the pipeline built.
	flows := pipelineFlows(t)
	built := StreamState{Batch: 1, Adjacency: make([][]int, len(flows))}
	for _, f := range flows {
		built.Entries = append(built.Entries, StreamEntry{Batch: 0, Flow: f})
	}
	restored, err := DecodeStreamState(EncodeStreamState(built))
	if err != nil {
		t.Fatal(err)
	}
	if len(restored.Entries) != len(flows) {
		t.Fatalf("restored %d flows, built %d", len(restored.Entries), len(flows))
	}
	for i, e := range restored.Entries {
		want, got := flows[i], e.Flow
		if !reflect.DeepEqual(got.ParticipatingTrajectories(), want.ParticipatingTrajectories()) {
			t.Errorf("flow %d: restored participants %v, built %v", i, got.ParticipatingTrajectories(), want.ParticipatingTrajectories())
		}
		for k, m := range got.Members {
			if !reflect.DeepEqual(m.ParticipatingTrajectories(), want.Members[k].ParticipatingTrajectories()) {
				t.Errorf("flow %d member %d: restored participants %v, built %v", i, k, m.ParticipatingTrajectories(), want.Members[k].ParticipatingTrajectories())
			}
		}
	}

	// Structural validation: out-of-range adjacency rejects.
	bad := st
	bad.Adjacency = [][]int{{7}, {0}}
	if _, err := DecodeStreamState(EncodeStreamState(bad)); err == nil {
		t.Error("out-of-range adjacency neighbor accepted")
	}
	// Standing batches must precede the batch index.
	bad = st
	bad.Entries = []StreamEntry{{Batch: 9, Flow: testFlow(1)}}
	if _, err := DecodeStreamState(EncodeStreamState(bad)); err == nil {
		t.Error("standing entry from the future accepted")
	}
}

// TestStreamStateDecodesOldCacheRows keeps data directories written
// while stream checkpoints could carry warm distance-cache rows
// readable: the decoder reads past the scope and the rows, and a
// checkpoint without rows keeps the bytes it has always had, ending
// with an empty scope and a zero row count.
func TestStreamStateDecodesOldCacheRows(t *testing.T) {
	st := StreamState{
		Batch:     5,
		Entries:   []StreamEntry{{Batch: 3, Flow: testFlow(4, 7)}, {Batch: 4, Flow: testFlow(9)}},
		Adjacency: [][]int{{1}, {0}},
	}
	cur := EncodeStreamState(st)
	if !bytes.HasSuffix(cur, make([]byte, 8)) {
		t.Fatal("stream checkpoint does not end with an empty cache scope and a zero row count")
	}
	old := enc{b: append([]byte(nil), cur[:len(cur)-8]...)}
	old.str("fp|undirected|dijkstra")
	old.u32(2)
	old.u64(42)
	old.f64(1234.5)
	old.f64(math.Inf(1))
	old.u64(7)
	old.f64(10)
	old.f64(11)
	got, err := DecodeStreamState(old.b)
	if err != nil {
		t.Fatalf("checkpoint with cache rows: %v", err)
	}
	if !bytes.Equal(EncodeStreamState(got), cur) {
		t.Fatal("checkpoint with cache rows decoded to a different state")
	}
	if _, err := DecodeStreamState(old.b[:len(old.b)-1]); err == nil {
		t.Error("truncated cache row accepted")
	}
}

func TestServerStateCodecIdempotent(t *testing.T) {
	ds := testBatch(2)
	st := ServerState{
		Batches: 9,
		Trajs:   ds.Trajectories,
		Fragments: []traj.TFragment{{
			Traj: 20, Seg: 3, Index: 0,
			Points: []traj.Location{{Seg: 3, Pt: geo.Point{X: 1, Y: 2}, Time: 0, Junction: roadnet.NoNode}},
		}},
	}
	b1 := EncodeServerState(st)
	got, err := DecodeServerState(b1)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b1, EncodeServerState(got)) {
		t.Fatal("server state encode∘decode is not idempotent")
	}
	if got.Batches != 9 || len(got.Trajs) != 2 || len(got.Fragments) != 1 {
		t.Fatalf("decoded server state diverged: %+v", got)
	}
}
