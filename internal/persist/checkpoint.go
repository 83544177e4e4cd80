package persist

import (
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// Checkpoint on-disk layout. A checkpoint file ckpt-%016x.ck (hex
// field = the sequence number it covers: the state after applying
// records [0, seq)) holds
//
//	"NEATCKP1" | u32le version | u64le seq | u32le payloadLen |
//	u32le crc32c(payload) | payload
//
// and is written atomically: encode to a .tmp file in the same
// directory, fsync it, rename over the final name, fsync the
// directory. A reader therefore never observes a half-written
// checkpoint under its final name; a crash mid-write leaves a .tmp
// that Open deletes. The version field gates payload evolution — a
// reader rejects versions it does not know rather than misparsing
// them.

const (
	ckptMagic   = "NEATCKP1"
	ckptSuffix  = ".ck"
	ckptPrefix  = "ckpt-"
	ckptVersion = 1

	// keepCheckpoints retains the newest N checkpoints so one corrupt
	// newest file (torn disk, cosmic ray) falls back instead of
	// cold-starting.
	keepCheckpoints = 2
)

func ckptName(seq uint64) string {
	return fmt.Sprintf("%s%016x%s", ckptPrefix, seq, ckptSuffix)
}

func parseCkptName(name string) (uint64, bool) {
	if !strings.HasPrefix(name, ckptPrefix) || !strings.HasSuffix(name, ckptSuffix) {
		return 0, false
	}
	hexpart := strings.TrimSuffix(strings.TrimPrefix(name, ckptPrefix), ckptSuffix)
	if len(hexpart) != 16 {
		return 0, false
	}
	v, err := strconv.ParseUint(hexpart, 16, 64)
	if err != nil {
		return 0, false
	}
	return v, true
}

func encodeCheckpoint(seq uint64, payload []byte) []byte {
	var e enc
	e.b = append(e.b, ckptMagic...)
	e.u32(ckptVersion)
	e.u64(seq)
	e.u32(uint32(len(payload)))
	e.u32(crc32.Checksum(payload, crcTable))
	e.b = append(e.b, payload...)
	return e.b
}

// decodeCheckpoint validates a checkpoint file's framing and returns
// the covered sequence number and payload. Hostile input is an error,
// never a panic or an over-allocation.
func decodeCheckpoint(data []byte) (uint64, []byte, error) {
	if len(data) < len(ckptMagic) || string(data[:len(ckptMagic)]) != ckptMagic {
		return 0, nil, fmt.Errorf("persist: bad checkpoint magic")
	}
	d := &dec{b: data, off: len(ckptMagic)}
	version := d.u32()
	seq := d.u64()
	plen := d.u32()
	sum := d.u32()
	if d.err != nil {
		return 0, nil, d.err
	}
	if version != ckptVersion {
		return 0, nil, fmt.Errorf("persist: unsupported checkpoint version %d (have %d)", version, ckptVersion)
	}
	payload := d.take(int(plen))
	if d.err != nil {
		return 0, nil, d.err
	}
	if err := d.rest(); err != nil {
		return 0, nil, err
	}
	if crc32.Checksum(payload, crcTable) != sum {
		return 0, nil, fmt.Errorf("persist: checkpoint CRC mismatch")
	}
	return seq, payload, nil
}

// CheckpointInfo describes one checkpoint file on disk.
type CheckpointInfo struct {
	Path string
	Seq  uint64
	// Bytes is the file's size and Err its validation failure, filled in
	// once the file is read; recovery skips an invalid file.
	Bytes int64
	Err   error
}

// listCheckpoints returns the directory's checkpoint files newest
// (highest seq) first, ordered by the sequence number in their names.
// It reads no file and removes nothing; readCheckpoint validates one.
func listCheckpoints(dir string) ([]CheckpointInfo, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var out []CheckpointInfo
	for _, e := range entries {
		if seq, ok := parseCkptName(e.Name()); ok && !e.IsDir() {
			out = append(out, CheckpointInfo{Path: filepath.Join(dir, e.Name()), Seq: seq})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Seq > out[j].Seq })
	return out, nil
}

// readCheckpoint reads and validates ci's file, records its size in
// ci.Bytes, and returns its payload.
func readCheckpoint(ci *CheckpointInfo) ([]byte, error) {
	data, err := os.ReadFile(ci.Path)
	if err != nil {
		return nil, err
	}
	ci.Bytes = int64(len(data))
	seq, payload, err := decodeCheckpoint(data)
	if err != nil {
		return nil, err
	}
	if seq != ci.Seq {
		return nil, fmt.Errorf("persist: checkpoint %s claims seq %d", filepath.Base(ci.Path), seq)
	}
	return payload, nil
}

// loadNewestCheckpoint reads the directory's checkpoints newest first
// and returns the first valid one's sequence number and payload, or a
// nil payload when none is valid. skipped counts the invalid files
// newer than it. Each file is read at most once.
func loadNewestCheckpoint(dir string) (seq uint64, payload []byte, skipped int, err error) {
	cks, err := listCheckpoints(dir)
	if err != nil {
		return 0, nil, 0, err
	}
	for i := range cks {
		if p, err := readCheckpoint(&cks[i]); err == nil {
			return cks[i].Seq, p, skipped, nil
		}
		skipped++
	}
	return 0, nil, skipped, nil
}

// removeStrayTemps deletes the .tmp files that crashed checkpoint
// writes left behind. Only Open calls it: a live store may be writing
// one.
func removeStrayTemps(dir string) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return
	}
	for _, e := range entries {
		if name := e.Name(); strings.HasPrefix(name, ckptPrefix) && strings.HasSuffix(name, ".tmp") && !e.IsDir() {
			_ = os.Remove(filepath.Join(dir, name))
		}
	}
}

// writeCheckpointFile writes the framed checkpoint atomically.
func writeCheckpointFile(dir string, seq uint64, payload []byte) error {
	framed := encodeCheckpoint(seq, payload)
	return WriteFileAtomic(filepath.Join(dir, ckptName(seq)), func(w io.Writer) error {
		_, err := w.Write(framed)
		return err
	})
}

// WriteFileAtomic writes path through the temp file path+".tmp": it
// creates (or truncates) the temp, lets write fill it, fsyncs and
// closes it, renames it over path and fsyncs the directory. A reader
// never sees a half-written file under path, and once it returns the
// new file survives a crash. On any failure it removes the temp and
// leaves path as it was.
func WriteFileAtomic(path string, write func(io.Writer) error) error {
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	err = write(f)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp, path)
	}
	if err != nil {
		os.Remove(tmp)
		return err
	}
	syncDir(filepath.Dir(path))
	return nil
}

// syncDir fsyncs a directory so a rename (or segment create/delete)
// survives power loss; best-effort on filesystems that reject
// directory fsync.
func syncDir(dir string) {
	if d, err := os.Open(dir); err == nil {
		_ = d.Sync()
		d.Close()
	}
}
