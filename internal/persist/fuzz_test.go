package persist

import (
	"bytes"
	"testing"
)

// fuzzSegment builds a valid segment image from framed records, for
// seed corpus entries.
func fuzzSegment(bodies ...[]byte) []byte {
	b := []byte(segMagic)
	for i, body := range bodies {
		b = frameRecord(b, uint64(i), body)
	}
	return b
}

// FuzzWALReplay drives the segment scanner with arbitrary bytes: it
// must never panic or over-allocate, and whatever valid records it
// extracts must survive a re-frame + re-scan round trip (the framing
// is self-consistent). Torn and corrupt tails are reported, not
// crashed on — the property recovery's torn-tail tolerance rests on.
func FuzzWALReplay(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte(segMagic))
	f.Add(fuzzSegment(EncodeDataset(testBatch(0))))
	whole := fuzzSegment(EncodeDataset(testBatch(1)), EncodeDataset(testBatch(2)))
	f.Add(whole)
	f.Add(whole[:len(whole)-5])      // torn tail
	f.Add(append(whole, 1, 2, 3, 4)) // garbage after valid frames
	f.Fuzz(func(t *testing.T, data []byte) {
		recs, res := scanSegment(data, true)
		if res.Valid < 0 || res.Valid > int64(len(data)) {
			t.Fatalf("valid prefix %d outside [0, %d]", res.Valid, len(data))
		}
		if res.Torn != (res.Valid < int64(len(data))) {
			t.Fatalf("torn=%v but valid=%d of %d", res.Torn, res.Valid, len(data))
		}
		// Re-frame the extracted records; the scanner must read back
		// exactly what the framer wrote.
		out := []byte(segMagic)
		for _, r := range recs {
			out = frameRecord(out, r.Seq, r.Body)
		}
		recs2, res2 := scanSegment(out, true)
		if res2.Torn || len(recs2) != len(recs) {
			t.Fatalf("re-scan of re-framed records: %d vs %d, torn=%v", len(recs2), len(recs), res2.Torn)
		}
		for i := range recs {
			if recs2[i].Seq != recs[i].Seq || !bytes.Equal(recs2[i].Body, recs[i].Body) {
				t.Fatalf("record %d diverged after re-frame", i)
			}
		}
	})
}

// FuzzCheckpointDecode drives the checkpoint framing and both payload
// codecs with arbitrary bytes: reject, never crash; and a payload that
// decodes must re-encode to the identical bytes (idempotence, the
// property that makes checkpoint contents canonical).
func FuzzCheckpointDecode(f *testing.F) {
	stream := EncodeStreamState(StreamState{
		Batch:     3,
		Entries:   []StreamEntry{{Batch: 2, Flow: testFlow(5, 6)}},
		Adjacency: [][]int{{}},
	})
	server := EncodeServerState(ServerState{Batches: 2, Trajs: testBatch(4).Trajectories})
	f.Add(encodeCheckpoint(3, stream))
	f.Add(encodeCheckpoint(2, server))
	f.Add(stream)
	f.Add(server)
	f.Add([]byte(ckptMagic))
	f.Fuzz(func(t *testing.T, data []byte) {
		if seq, payload, err := decodeCheckpoint(data); err == nil {
			if !bytes.Equal(encodeCheckpoint(seq, payload), data) {
				t.Fatal("checkpoint framing decode∘encode diverged")
			}
		}
		if st, err := DecodeStreamState(data); err == nil {
			b2 := EncodeStreamState(st)
			st2, err := DecodeStreamState(b2)
			if err != nil {
				t.Fatalf("re-decode of accepted stream state failed: %v", err)
			}
			if !bytes.Equal(EncodeStreamState(st2), b2) {
				t.Fatal("stream state encode not idempotent")
			}
		}
		if st, err := DecodeServerState(data); err == nil {
			b2 := EncodeServerState(st)
			if _, err := DecodeServerState(b2); err != nil {
				t.Fatalf("re-decode of accepted server state failed: %v", err)
			}
		}
	})
}
