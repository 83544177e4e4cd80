// Package persist is the durability layer under the NEAT streaming
// clusterer and HTTP server: an append-only, CRC32C-framed write-ahead
// log of ingested trajectory batches plus periodic versioned binary
// checkpoints of the full derived state, written atomically. Together
// they give the one production property the engine otherwise lacks —
// state that outlives the process:
//
//   - every acknowledged ingest is in the WAL (durable per the fsync
//     policy), so a crash loses at most the unsynced tail;
//   - a checkpoint bounds replay: recovery loads the newest valid
//     checkpoint and replays only the WAL records past it, through the
//     normal ingest path, so the recovered state is byte-identical to
//     the state an uncrashed process would hold;
//   - a torn final record (the signature a crash leaves) is tolerated:
//     it is counted, truncated away, and only that record is lost;
//   - checkpoints retire WAL segments: once a checkpoint covers every
//     record in a segment, the segment is deleted (compaction), so
//     disk stays proportional to the window, not the stream.
//
// The package is storage only: it moves opaque batch bodies and
// checkpoint payloads (see codec.go for the exact binary codecs) and
// knows nothing about clustering. internal/commit drives it for the
// stream clusterer and the server's sessions, which own the mapping
// between their in-memory state and these bytes.
//
// Everything is stdlib: hash/crc32 (Castagnoli), os, encoding by hand.
package persist

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/traj"
)

// FsyncPolicy selects when the WAL is flushed to stable storage.
type FsyncPolicy int

const (
	// FsyncAlways syncs after every append: an acknowledged ingest is
	// on disk. The safest and slowest policy, and the default.
	FsyncAlways FsyncPolicy = iota
	// FsyncInterval syncs on a background ticker (Options.FsyncInterval,
	// default 100ms) and on Close; a crash loses at most one interval
	// of acknowledged batches, but recovery still sees a prefix of the
	// acknowledged sequence — never a gap.
	FsyncInterval
	// FsyncOff never syncs explicitly (the OS flushes at its leisure);
	// for tests and bulk loads.
	FsyncOff
)

// ParseFsyncPolicy maps the CLI spellings (always, interval, off) to a
// policy.
func ParseFsyncPolicy(s string) (FsyncPolicy, error) {
	switch s {
	case "always", "":
		return FsyncAlways, nil
	case "interval":
		return FsyncInterval, nil
	case "off":
		return FsyncOff, nil
	}
	return 0, fmt.Errorf("persist: unknown fsync policy %q (want always, interval, or off)", s)
}

// String implements fmt.Stringer.
func (p FsyncPolicy) String() string {
	switch p {
	case FsyncAlways:
		return "always"
	case FsyncInterval:
		return "interval"
	case FsyncOff:
		return "off"
	}
	return fmt.Sprintf("policy(%d)", int(p))
}

// Options parameterizes a Store.
type Options struct {
	// Dir is the data directory (created if absent). Required.
	Dir string
	// Fsync is the WAL flush policy; the zero value is FsyncAlways.
	Fsync FsyncPolicy
	// FsyncInterval is the FsyncInterval ticker period; 0 means 100ms.
	FsyncInterval time.Duration
	// SegmentBytes rotates the active WAL segment once it reaches this
	// size; 0 means ~4 MiB.
	SegmentBytes int64
	// CheckpointEvery is how many batches between checkpoints (the
	// cadence internal/commit keeps); 0 means 8, negative disables
	// periodic checkpoints (one is still written on a clean Close).
	CheckpointEvery int
	// KeepCheckpoints retains the newest N checkpoint files; 0 means 2.
	KeepCheckpoints int
	// Obs is the metrics registry for the neat_wal_* and
	// neat_checkpoint_* series; nil disables instrumentation.
	Obs *obs.Registry
	// Fault is an optional fault injector consulted at wal_append,
	// wal_fsync, and checkpoint_write. An injected append or fsync
	// failure leaves the log as if the append never happened (the
	// caller can retry); an injected checkpoint failure leaves the
	// previous checkpoint in place.
	Fault *fault.Injector
}

func (o Options) withDefaults() Options {
	if o.FsyncInterval <= 0 {
		o.FsyncInterval = 100 * time.Millisecond
	}
	if o.SegmentBytes <= 0 {
		o.SegmentBytes = defaultSegmentBytes
	}
	if o.CheckpointEvery == 0 {
		o.CheckpointEvery = 8
	}
	if o.KeepCheckpoints <= 0 {
		o.KeepCheckpoints = defaultKeepCheckpoints
	}
	return o
}

// RecoveryStats describes what Open found on disk.
type RecoveryStats struct {
	// CheckpointSeq is the newest valid checkpoint's covered sequence
	// number (0 with no checkpoint).
	CheckpointSeq uint64
	// CheckpointBytes is that checkpoint's payload size.
	CheckpointBytes int64
	// Records is how many valid WAL records the log holds (across all
	// segments, before any Replay filtering).
	Records int
	// Replayed is how many records Replay actually delivered to the
	// owner (those at or past the recovery checkpoint); 0 when the
	// checkpoint covered the whole log.
	Replayed int
	// TornTails is how many torn tails were truncated (0 or 1 per
	// Open; kept cumulative by Stats across the Store's life).
	TornTails int64
	// SkippedCheckpoints is how many invalid checkpoint files were
	// passed over before a valid one (0 when the newest was valid).
	SkippedCheckpoints int
}

// Stats is a point-in-time snapshot of a Store's counters, exposed by
// the server's /v1/stats persistence block and the stream accessor.
type Stats struct {
	Dir                 string
	Fsync               string
	Appends             int64
	AppendedBytes       int64
	Fsyncs              int64
	Segments            int
	WALBytes            int64
	CheckpointSeq       uint64
	CheckpointBytes     int64
	Checkpoints         int64
	LastCheckpointError string
	Recovery            RecoveryStats
}

// Store is one durable log + checkpoint directory. Methods are safe
// for concurrent use; owners nevertheless serialize appends with
// their own commit ordering (a WAL record must not be written for a
// batch whose in-memory commit failed).
type Store struct {
	opts Options

	mu      sync.Mutex
	segs    []segment
	cur     *os.File // active segment (last of segs); nil until first append
	payload []byte   // newest valid checkpoint payload (released by Checkpoint)
	rec     RecoveryStats
	closed  bool

	appends     int64
	appBytes    int64
	fsyncs      int64
	ckpts       int64
	torn        int64
	lastCkptErr string

	stopSync chan struct{}
	syncDone chan struct{}

	// Pre-resolved obs handles; nil without a registry (no-op).
	mAppends  *obs.Counter
	mBytes    *obs.Counter
	mFsyncs   *obs.Counter
	mSegments *obs.Gauge
	mReplayed *obs.Counter
	mTorn     *obs.Counter
	mCkpts    *obs.Counter
	mCkptSeq  *obs.Gauge
	mCkptB    *obs.Gauge
}

// Open creates or recovers the durable store in opts.Dir: it loads the
// newest valid checkpoint (falling back across corrupt ones), scans
// the WAL segments, truncates a torn final tail, and leaves the log
// ready for appends. The caller then applies the checkpoint payload
// (Checkpoint) and replays the tail (Replay) through its ingest path.
func Open(opts Options) (*Store, error) {
	if opts.Dir == "" {
		return nil, errors.New("persist: Options.Dir is required")
	}
	opts = opts.withDefaults()
	if err := os.MkdirAll(opts.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("persist: create data dir: %w", err)
	}
	s := &Store{opts: opts}
	s.instrument(opts.Obs)

	removeStrayTemps(opts.Dir)
	seq, payload, skipped, err := loadNewestCheckpoint(opts.Dir)
	if err != nil {
		return nil, fmt.Errorf("persist: list checkpoints: %w", err)
	}
	s.rec.SkippedCheckpoints = skipped
	if payload != nil {
		s.payload = payload
		s.rec.CheckpointSeq = seq
		s.rec.CheckpointBytes = int64(len(payload))
	}

	segs, torn, err := loadSegments(opts.Dir)
	if err != nil {
		return nil, err
	}
	s.segs = segs
	s.torn = torn
	s.rec.TornTails = torn
	for _, sg := range segs {
		s.rec.Records += sg.records
	}
	if torn > 0 {
		s.mTorn.Add(torn)
	}
	s.mSegments.Set(float64(len(segs)))
	s.mCkptSeq.Set(float64(s.rec.CheckpointSeq))
	s.mCkptB.Set(float64(s.rec.CheckpointBytes))

	if n := len(segs); n > 0 {
		f, err := os.OpenFile(segs[n-1].path, os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return nil, fmt.Errorf("persist: reopen active segment: %w", err)
		}
		s.cur = f
	}
	if opts.Fsync == FsyncInterval {
		s.stopSync = make(chan struct{})
		s.syncDone = make(chan struct{})
		go s.syncLoop()
	}
	return s, nil
}

func (s *Store) instrument(reg *obs.Registry) {
	s.mAppends = reg.Counter("neat_wal_appends_total")
	s.mBytes = reg.Counter("neat_wal_bytes_total")
	s.mFsyncs = reg.Counter("neat_wal_fsyncs_total")
	s.mSegments = reg.Gauge("neat_wal_segments")
	s.mReplayed = reg.Counter("neat_wal_replayed_records_total")
	s.mTorn = reg.Counter("neat_wal_torn_records_total")
	s.mCkpts = reg.Counter("neat_checkpoint_writes_total")
	s.mCkptSeq = reg.Gauge("neat_checkpoint_seq")
	s.mCkptB = reg.Gauge("neat_checkpoint_bytes")
}

// Checkpoint returns the newest valid checkpoint found at Open: the
// sequence number it covers (state after records [0, seq)) and its
// payload. ok is false when the directory held no usable checkpoint.
func (s *Store) Checkpoint() (seq uint64, payload []byte, ok bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.payload == nil {
		return 0, nil, false
	}
	return s.rec.CheckpointSeq, s.payload, true
}

// ReloadCheckpoint re-reads the newest valid checkpoint from disk,
// falling back across corrupt files exactly like Open. Unlike
// Checkpoint — which only serves the payload held since Open and is
// superseded by the first WriteCheckpoint — this works mid-life, which
// is what a quarantined session needs to rebuild itself from
// checkpoint + WAL replay without restarting the process. ok is false
// when the directory holds no usable checkpoint (recovery then replays
// the WAL from the start).
func (s *Store) ReloadCheckpoint() (seq uint64, payload []byte, ok bool) {
	seq, payload, _, err := loadNewestCheckpoint(s.opts.Dir)
	if err != nil || payload == nil {
		return 0, nil, false
	}
	return seq, payload, true
}

// Replay streams every valid WAL record with Seq >= from, in sequence
// order, decoding each body as a trajectory batch. The owner pushes
// each batch through its normal ingest path, which is what makes the
// recovered state byte-identical to an uncrashed run's.
func (s *Store) Replay(from uint64, fn func(seq uint64, batch traj.Dataset) error) error {
	s.mu.Lock()
	segs := append([]segment(nil), s.segs...)
	s.mu.Unlock()
	for _, sg := range segs {
		data, err := os.ReadFile(sg.path)
		if err != nil {
			return fmt.Errorf("persist: replay %s: %w", sg.path, err)
		}
		if int64(len(data)) > sg.size {
			data = data[:sg.size] // appends since Open are not part of recovery
		}
		recs, res := scanSegment(data, true)
		if res.Err != nil && !res.Torn {
			return fmt.Errorf("persist: replay %s: %w", sg.path, res.Err)
		}
		for _, r := range recs {
			if r.Seq < from {
				continue
			}
			ds, err := DecodeDataset(r.Body)
			if err != nil {
				return fmt.Errorf("persist: replay record %d: %w", r.Seq, err)
			}
			if err := fn(r.Seq, ds); err != nil {
				return err
			}
			s.mReplayed.Inc()
			s.mu.Lock()
			s.rec.Replayed++
			s.mu.Unlock()
		}
	}
	return nil
}

// AppendBatch logs one ingested batch under sequence number seq. On
// any failure — injected, ENOSPC, a failed fsync under FsyncAlways —
// the segment is rewound to its pre-append length, so the log never
// holds a record for a batch the caller rolled back.
func (s *Store) AppendBatch(seq uint64, batch traj.Dataset) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return errors.New("persist: store is closed")
	}
	if err := s.opts.Fault.Inject(fault.WALAppend); err != nil {
		return err
	}
	if s.cur != nil && s.segs[len(s.segs)-1].size >= s.opts.SegmentBytes {
		if err := s.rotateLocked(); err != nil {
			return err
		}
	}
	if s.cur == nil {
		if err := s.newSegmentLocked(seq); err != nil {
			return err
		}
	}
	sg := &s.segs[len(s.segs)-1]
	frame := frameRecord(nil, seq, EncodeDataset(batch))
	if _, err := s.cur.Write(frame); err != nil {
		s.rewindLocked(sg.size)
		return fmt.Errorf("persist: wal append: %w", err)
	}
	if s.opts.Fsync == FsyncAlways {
		if err := s.fsyncLocked(); err != nil {
			s.rewindLocked(sg.size)
			return err
		}
	}
	sg.size += int64(len(frame))
	sg.records++
	s.appends++
	s.appBytes += int64(len(frame))
	s.mAppends.Inc()
	s.mBytes.Add(int64(len(frame)))
	return nil
}

// rotateLocked seals the active segment (syncing it unless FsyncOff)
// so the next append opens a fresh one.
func (s *Store) rotateLocked() error {
	if s.opts.Fsync != FsyncOff {
		if err := s.fsyncLocked(); err != nil {
			return err
		}
	}
	if err := s.cur.Close(); err != nil {
		return fmt.Errorf("persist: seal segment: %w", err)
	}
	s.cur = nil
	return nil
}

func (s *Store) newSegmentLocked(firstSeq uint64) error {
	path := filepath.Join(s.opts.Dir, segName(firstSeq))
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return fmt.Errorf("persist: create segment: %w", err)
	}
	if _, err := f.Write([]byte(segMagic)); err != nil {
		f.Close()
		os.Remove(path)
		return fmt.Errorf("persist: write segment magic: %w", err)
	}
	syncDir(s.opts.Dir)
	s.cur = f
	s.segs = append(s.segs, segment{path: path, firstSeq: firstSeq, size: int64(len(segMagic))})
	s.mSegments.Set(float64(len(s.segs)))
	return nil
}

// rewindLocked truncates the active segment back to size, undoing a
// failed append so the on-disk log matches the caller's rolled-back
// state. Best effort: if the truncate itself fails the next Open's
// scan still stops at the valid prefix (the CRC of a half-written
// frame cannot match).
func (s *Store) rewindLocked(size int64) {
	if s.cur == nil {
		return
	}
	_ = s.cur.Truncate(size)
	_, _ = s.cur.Seek(size, 0)
}

func (s *Store) fsyncLocked() error {
	if s.cur == nil {
		return nil
	}
	if err := s.opts.Fault.Inject(fault.WALFsync); err != nil {
		return err
	}
	if err := s.cur.Sync(); err != nil {
		return fmt.Errorf("persist: wal fsync: %w", err)
	}
	s.fsyncs++
	s.mFsyncs.Inc()
	return nil
}

func (s *Store) syncLoop() {
	t := time.NewTicker(s.opts.FsyncInterval)
	defer t.Stop()
	defer close(s.syncDone)
	for {
		select {
		case <-s.stopSync:
			return
		case <-t.C:
			s.mu.Lock()
			if !s.closed {
				_ = s.fsyncLocked()
			}
			s.mu.Unlock()
		}
	}
}

// Sync flushes the active WAL segment to stable storage regardless of
// policy.
func (s *Store) Sync() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	return s.fsyncLocked()
}

// WriteCheckpoint atomically persists a checkpoint covering records
// [0, seq), prunes old checkpoint files beyond KeepCheckpoints, and
// compacts WAL segments every record of which the checkpoint covers.
// Failure is non-destructive: the previous checkpoint and the whole
// log remain.
func (s *Store) WriteCheckpoint(seq uint64, payload []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return errors.New("persist: store is closed")
	}
	if err := s.opts.Fault.Inject(fault.CheckpointWrite); err != nil {
		s.lastCkptErr = err.Error()
		return err
	}
	if err := writeCheckpointFile(s.opts.Dir, seq, payload); err != nil {
		s.lastCkptErr = err.Error()
		return fmt.Errorf("persist: write checkpoint: %w", err)
	}
	s.lastCkptErr = ""
	s.payload = nil // recovery payload superseded; owners re-encode on demand
	s.rec.CheckpointSeq = seq
	s.rec.CheckpointBytes = int64(len(payload))
	s.ckpts++
	s.mCkpts.Inc()
	s.mCkptSeq.Set(float64(seq))
	s.mCkptB.Set(float64(len(payload)))
	s.pruneCheckpointsLocked()
	s.compactLocked(seq)
	return nil
}

func (s *Store) pruneCheckpointsLocked() {
	cks, err := listCheckpoints(s.opts.Dir)
	if err != nil {
		return
	}
	for i, ci := range cks {
		if i >= s.opts.KeepCheckpoints {
			_ = os.Remove(ci.Path)
		}
	}
}

// compactLocked deletes WAL segments whose every record the checkpoint
// at seq covers: segment i is retirable iff a successor segment exists
// and that successor starts at or below seq (so records >= seq, if
// any, live wholly in later segments). The active segment is never
// deleted.
func (s *Store) compactLocked(seq uint64) {
	keep := 0
	for keep < len(s.segs)-1 && s.segs[keep+1].firstSeq <= seq {
		keep++
	}
	if keep == 0 {
		return
	}
	for _, sg := range s.segs[:keep] {
		_ = os.Remove(sg.path)
	}
	s.segs = append(s.segs[:0], s.segs[keep:]...)
	syncDir(s.opts.Dir)
	s.mSegments.Set(float64(len(s.segs)))
}

// Close flushes and closes the log. The owner writes its final
// checkpoint before calling Close. Idempotent.
func (s *Store) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	err := s.fsyncLocked()
	if s.cur != nil {
		if cerr := s.cur.Close(); err == nil {
			err = cerr
		}
		s.cur = nil
	}
	s.closed = true
	stop := s.stopSync
	done := s.syncDone
	s.mu.Unlock()
	if stop != nil {
		close(stop)
		<-done
	}
	return err
}

// Abort closes file descriptors without flushing or checkpointing —
// the programmatic equivalent of kill -9, used by the chaos harness
// and the crash-recovery tests to abandon a store mid-flight. The
// on-disk state is whatever the crash timing left.
func (s *Store) Abort() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	if s.cur != nil {
		_ = s.cur.Close()
		s.cur = nil
	}
	s.closed = true
	stop := s.stopSync
	done := s.syncDone
	s.mu.Unlock()
	if stop != nil {
		close(stop)
		<-done
	}
}

// CheckpointEvery returns the resolved checkpoint cadence (batches
// between checkpoints; <0 disables periodic checkpoints).
func (s *Store) CheckpointEvery() int { return s.opts.CheckpointEvery }

// Dir returns the data directory.
func (s *Store) Dir() string { return s.opts.Dir }

// Stats snapshots the store's counters.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	var wb int64
	for _, sg := range s.segs {
		wb += sg.size
	}
	return Stats{
		Dir:                 s.opts.Dir,
		Fsync:               s.opts.Fsync.String(),
		Appends:             s.appends,
		AppendedBytes:       s.appBytes,
		Fsyncs:              s.fsyncs,
		Segments:            len(s.segs),
		WALBytes:            wb,
		CheckpointSeq:       s.rec.CheckpointSeq,
		CheckpointBytes:     s.rec.CheckpointBytes,
		Checkpoints:         s.ckpts,
		LastCheckpointError: s.lastCkptErr,
		Recovery:            s.rec,
	}
}

// InspectReport is what `neatcli wal` renders: every checkpoint and
// segment in a data directory, validated.
type InspectReport struct {
	Dir         string
	Checkpoints []CheckpointInfo
	Segments    []SegmentInfo
}

// SegmentInfo describes one scanned WAL segment.
type SegmentInfo struct {
	Path      string
	FirstSeq  uint64
	Bytes     int64
	Records   []Record // bodies discarded
	Torn      bool
	TornBytes int64
	Err       error
}

// Inspect scans a data directory read-only (nothing is truncated or
// deleted) and reports every checkpoint and segment with their
// validation state. The crash tests use the record offsets to place
// kill points exactly at and between frame boundaries.
func Inspect(dir string) (InspectReport, error) {
	rep := InspectReport{Dir: dir}
	cks, err := listCheckpoints(dir)
	if err != nil {
		return rep, err
	}
	for i := range cks {
		_, cks[i].Err = readCheckpoint(&cks[i])
	}
	rep.Checkpoints = cks
	entries, err := os.ReadDir(dir)
	if err != nil {
		return rep, err
	}
	var names []string
	for _, e := range entries {
		if !e.IsDir() {
			if _, ok := parseSegName(e.Name()); ok {
				names = append(names, e.Name())
			}
		}
	}
	sort.Strings(names) // lexicographic = by firstSeq (fixed-width hex)
	for _, name := range names {
		first, _ := parseSegName(name)
		si := SegmentInfo{Path: filepath.Join(dir, name), FirstSeq: first}
		data, err := os.ReadFile(si.Path)
		if err != nil {
			si.Err = err
			rep.Segments = append(rep.Segments, si)
			continue
		}
		si.Bytes = int64(len(data))
		recs, res := scanSegment(data, false)
		si.Records = recs
		si.Torn = res.Torn
		si.TornBytes = res.TornBytes
		si.Err = res.Err
		rep.Segments = append(rep.Segments, si)
	}
	return rep, nil
}
