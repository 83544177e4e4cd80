package persist

import (
	"fmt"
	"math"

	"repro/internal/geo"
	"repro/internal/neat"
	"repro/internal/roadnet"
	"repro/internal/traj"
)

// The durability codecs are exact, not textual: floats travel as their
// IEEE-754 bit patterns, so a recovered clusterer re-ingests byte-for-
// byte the samples the original saw. The CSV codecs in internal/traj
// quantize coordinates to three decimals — fine for interchange, fatal
// for the crash-recovery byte-identity contract — which is why persist
// does not reuse them.
//
// All integers are little-endian and fixed-width. Every decoder is
// written against hostile input: element counts are validated against
// the bytes actually remaining before any allocation, so a corrupt
// length prefix is an error, never an OOM or a panic (FuzzWALReplay
// and FuzzCheckpointDecode pin this).

// enc is an append-only little-endian encoder.
type enc struct{ b []byte }

func (e *enc) u8(v uint8)   { e.b = append(e.b, v) }
func (e *enc) u32(v uint32) { e.b = append(e.b, byte(v), byte(v>>8), byte(v>>16), byte(v>>24)) }
func (e *enc) u64(v uint64) {
	e.b = append(e.b, byte(v), byte(v>>8), byte(v>>16), byte(v>>24),
		byte(v>>32), byte(v>>40), byte(v>>48), byte(v>>56))
}
func (e *enc) i32(v int32)   { e.u32(uint32(v)) }
func (e *enc) f64(v float64) { e.u64(math.Float64bits(v)) }
func (e *enc) str(s string) {
	e.u32(uint32(len(s)))
	e.b = append(e.b, s...)
}

// dec is a bounds-checked little-endian decoder. The first failed read
// latches err; subsequent reads return zero values, so call sites can
// decode a whole structure and check err once.
type dec struct {
	b   []byte
	off int
	err error
}

func (d *dec) fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf(format, args...)
	}
}

func (d *dec) take(n int) []byte {
	if d.err != nil {
		return nil
	}
	if n < 0 || len(d.b)-d.off < n {
		d.fail("persist: truncated input at offset %d (need %d of %d bytes)", d.off, n, len(d.b)-d.off)
		return nil
	}
	p := d.b[d.off : d.off+n]
	d.off += n
	return p
}

func (d *dec) u8() uint8 {
	p := d.take(1)
	if p == nil {
		return 0
	}
	return p[0]
}

func (d *dec) u32() uint32 {
	p := d.take(4)
	if p == nil {
		return 0
	}
	return uint32(p[0]) | uint32(p[1])<<8 | uint32(p[2])<<16 | uint32(p[3])<<24
}

func (d *dec) u64() uint64 {
	p := d.take(8)
	if p == nil {
		return 0
	}
	return uint64(p[0]) | uint64(p[1])<<8 | uint64(p[2])<<16 | uint64(p[3])<<24 |
		uint64(p[4])<<32 | uint64(p[5])<<40 | uint64(p[6])<<48 | uint64(p[7])<<56
}

func (d *dec) i32() int32   { return int32(d.u32()) }
func (d *dec) f64() float64 { return math.Float64frombits(d.u64()) }

func (d *dec) str() string {
	n := d.u32()
	p := d.take(int(n))
	return string(p)
}

// count reads an element count and validates it against the remaining
// bytes, given a minimum per-element encoded size. This is the OOM
// guard: a hostile count can never exceed remaining/minElemSize.
func (d *dec) count(minElemSize int) int {
	n := d.u32()
	if d.err != nil {
		return 0
	}
	if max := (len(d.b) - d.off) / minElemSize; int(n) > max {
		d.fail("persist: implausible element count %d at offset %d (only %d bytes left)", n, d.off, len(d.b)-d.off)
		return 0
	}
	return int(n)
}

func (d *dec) rest() error {
	if d.err != nil {
		return d.err
	}
	if d.off != len(d.b) {
		return fmt.Errorf("persist: %d trailing bytes after decode", len(d.b)-d.off)
	}
	return nil
}

// --- trajectory data ---

// Encoded sizes used for count validation.
const (
	locSize  = 4 + 4 + 8 + 8 + 8 // seg, junction, x, y, t
	minTraj  = 4 + 4             // id + point count
	minFrag  = 4 + 4 + 4 + 4     // traj, seg, index, point count
	minEntry = 8 + minFlow       // batch + flow
	minFlow  = 4 + 4 + 4 + 4 + 4 // member count, route count, front, back, (one empty member would add more; this is a floor)
)

func encLocation(e *enc, l traj.Location) {
	e.i32(int32(l.Seg))
	e.i32(int32(l.Junction))
	e.f64(l.Pt.X)
	e.f64(l.Pt.Y)
	e.f64(l.Time)
}

func decLocation(d *dec) traj.Location {
	var l traj.Location
	l.Seg = roadnet.SegID(d.i32())
	l.Junction = roadnet.NodeID(d.i32())
	l.Pt = geo.Point{X: d.f64(), Y: d.f64()}
	l.Time = d.f64()
	return l
}

func encTrajectory(e *enc, tr traj.Trajectory) {
	e.i32(int32(tr.ID))
	e.u32(uint32(len(tr.Points)))
	for _, p := range tr.Points {
		encLocation(e, p)
	}
}

func decTrajectory(d *dec) traj.Trajectory {
	var tr traj.Trajectory
	tr.ID = traj.ID(d.i32())
	n := d.count(locSize)
	if d.err != nil {
		return tr
	}
	tr.Points = make([]traj.Location, n)
	for i := range tr.Points {
		tr.Points[i] = decLocation(d)
	}
	return tr
}

// EncodeDataset serializes ds exactly (full float64 precision); the
// WAL stores one encoded dataset per ingested batch.
func EncodeDataset(ds traj.Dataset) []byte {
	var e enc
	e.str(ds.Name)
	e.u32(uint32(len(ds.Trajectories)))
	for _, tr := range ds.Trajectories {
		encTrajectory(&e, tr)
	}
	return e.b
}

// DecodeDataset inverts EncodeDataset. Corrupt or truncated input is
// an error, never a panic.
func DecodeDataset(b []byte) (traj.Dataset, error) {
	d := &dec{b: b}
	ds := decDataset(d)
	return ds, d.rest()
}

func decDataset(d *dec) traj.Dataset {
	var ds traj.Dataset
	ds.Name = d.str()
	n := d.count(minTraj)
	if d.err != nil {
		return ds
	}
	ds.Trajectories = make([]traj.Trajectory, 0, n)
	for i := 0; i < n && d.err == nil; i++ {
		ds.Trajectories = append(ds.Trajectories, decTrajectory(d))
	}
	return ds
}

func encFragment(e *enc, f traj.TFragment) {
	e.i32(int32(f.Traj))
	e.i32(int32(f.Seg))
	e.i32(int32(f.Index))
	e.u32(uint32(len(f.Points)))
	for _, p := range f.Points {
		encLocation(e, p)
	}
}

func decFragment(d *dec) traj.TFragment {
	var f traj.TFragment
	f.Traj = traj.ID(d.i32())
	f.Seg = roadnet.SegID(d.i32())
	f.Index = int(d.i32())
	n := d.count(locSize)
	if d.err != nil {
		return f
	}
	f.Points = make([]traj.Location, n)
	for i := range f.Points {
		f.Points[i] = decLocation(d)
	}
	return f
}

// --- flow clusters ---

func encFlow(e *enc, f *neat.FlowCluster) {
	e.u32(uint32(len(f.Members)))
	for _, m := range f.Members {
		e.i32(int32(m.Seg))
		e.u32(uint32(len(m.Fragments)))
		for _, fr := range m.Fragments {
			encFragment(e, fr)
		}
	}
	e.u32(uint32(len(f.Route)))
	for _, s := range f.Route {
		e.i32(int32(s))
	}
	front, back := f.Endpoints()
	e.i32(int32(front))
	e.i32(int32(back))
}

func decFlow(d *dec) *neat.FlowCluster {
	nm := d.count(4 + 4) // seg + fragment count per member
	if d.err != nil {
		return nil
	}
	members := make([]*neat.BaseCluster, 0, nm)
	for i := 0; i < nm && d.err == nil; i++ {
		seg := roadnet.SegID(d.i32())
		nf := d.count(minFrag)
		if d.err != nil {
			break
		}
		frags := make([]traj.TFragment, 0, nf)
		for j := 0; j < nf && d.err == nil; j++ {
			frags = append(frags, decFragment(d))
		}
		if d.err == nil {
			members = append(members, neat.RestoreBaseCluster(seg, frags))
		}
	}
	nr := d.count(4)
	if d.err != nil {
		return nil
	}
	route := make(roadnet.Route, nr)
	for i := range route {
		route[i] = roadnet.SegID(d.i32())
	}
	front := roadnet.NodeID(d.i32())
	back := roadnet.NodeID(d.i32())
	if d.err != nil {
		return nil
	}
	f, err := neat.RestoreFlow(members, route, front, back)
	if err != nil {
		d.fail("persist: %v", err)
		return nil
	}
	return f
}

// --- checkpoint payloads ---

// StreamEntry is one standing flow with the batch index it arrived in
// (the sliding-window eviction key).
type StreamEntry struct {
	Batch int
	Flow  *neat.FlowCluster
}

// StreamState is the full recoverable state of a stream.Clusterer: the
// batch index, the standing flow set in window order, and the
// maintained ε-graph's adjacency rows (nil when the graph was dirty or
// disabled — recovery then rebuilds it, byte-identically).
type StreamState struct {
	Batch     int
	Entries   []StreamEntry
	Adjacency [][]int // row i lists the ε-neighbors of Entries[i]; nil = rebuild
}

// cacheRowSize is one warm distance-cache row (key, distance, bound).
// Stream checkpoints end with a cache scope and a count of such rows;
// checkpoints written before the rows were dropped may carry some, and
// the decoder reads past them.
const cacheRowSize = 8 + 8 + 8

// EncodeStreamState serializes a checkpoint payload for the streaming
// clusterer.
func EncodeStreamState(st StreamState) []byte {
	var e enc
	e.u64(uint64(st.Batch))
	e.u32(uint32(len(st.Entries)))
	for _, en := range st.Entries {
		e.u64(uint64(en.Batch))
		encFlow(&e, en.Flow)
	}
	if st.Adjacency == nil {
		e.u8(0)
	} else {
		e.u8(1)
		for _, row := range st.Adjacency {
			e.u32(uint32(len(row)))
			for _, j := range row {
				e.i32(int32(j))
			}
		}
	}
	e.str("") // an empty cache scope and no cache rows
	e.u32(0)
	return e.b
}

// DecodeStreamState inverts EncodeStreamState, validating structural
// invariants (adjacency indices in range, batches non-decreasing and
// below the batch index) so a recovered clusterer never holds state an
// uncrashed one could not have reached.
func DecodeStreamState(b []byte) (StreamState, error) {
	d := &dec{b: b}
	var st StreamState
	st.Batch = int(d.u64())
	n := d.count(minEntry)
	if d.err != nil {
		return st, d.err
	}
	st.Entries = make([]StreamEntry, 0, n)
	prevBatch := -1
	for i := 0; i < n && d.err == nil; i++ {
		en := StreamEntry{Batch: int(d.u64())}
		en.Flow = decFlow(d)
		if d.err != nil {
			break
		}
		if en.Batch < prevBatch || en.Batch >= st.Batch {
			d.fail("persist: standing entry %d has batch %d outside [%d, %d)", i, en.Batch, prevBatch, st.Batch)
			break
		}
		prevBatch = en.Batch
		st.Entries = append(st.Entries, en)
	}
	if d.err != nil {
		return st, d.err
	}
	if d.u8() == 1 {
		st.Adjacency = make([][]int, len(st.Entries))
		for i := range st.Adjacency {
			rn := d.count(4)
			if d.err != nil {
				break
			}
			row := make([]int, rn)
			for k := range row {
				j := int(d.i32())
				if d.err == nil && (j < 0 || j >= len(st.Entries) || j == i) {
					d.fail("persist: adjacency row %d has out-of-range neighbor %d", i, j)
					break
				}
				row[k] = j
			}
			st.Adjacency[i] = row
		}
	}
	d.str()
	d.take(d.count(cacheRowSize) * cacheRowSize)
	return st, d.rest()
}

// ServerState is the recoverable state of the HTTP server's trajectory
// store: how many batches it accepted, plus the accumulated
// trajectories and t-fragments (the inputs of every clustering
// request).
type ServerState struct {
	Batches   uint64
	Trajs     []traj.Trajectory
	Fragments []traj.TFragment
}

// EncodeServerState serializes a server checkpoint payload.
func EncodeServerState(st ServerState) []byte {
	var e enc
	e.u64(st.Batches)
	e.u32(uint32(len(st.Trajs)))
	for _, tr := range st.Trajs {
		encTrajectory(&e, tr)
	}
	e.u32(uint32(len(st.Fragments)))
	for _, f := range st.Fragments {
		encFragment(&e, f)
	}
	return e.b
}

// DecodeServerState inverts EncodeServerState.
func DecodeServerState(b []byte) (ServerState, error) {
	d := &dec{b: b}
	var st ServerState
	st.Batches = d.u64()
	n := d.count(minTraj)
	if d.err != nil {
		return st, d.err
	}
	st.Trajs = make([]traj.Trajectory, 0, n)
	for i := 0; i < n && d.err == nil; i++ {
		st.Trajs = append(st.Trajs, decTrajectory(d))
	}
	fn := d.count(minFrag)
	if d.err != nil {
		return st, d.err
	}
	st.Fragments = make([]traj.TFragment, 0, fn)
	for i := 0; i < fn && d.err == nil; i++ {
		st.Fragments = append(st.Fragments, decFragment(d))
	}
	return st, d.rest()
}
