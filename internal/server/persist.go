package server

import "repro/internal/session"

// Close shuts every session down: final checkpoints covering every
// acknowledged batch, then each WAL is flushed and closed. A no-op
// (and nil) for an in-memory server. The HTTP handler is not torn down
// here — stop serving before closing.
func (s *Server) Close() error { return s.reg.Close() }

// Abort closes every session's durability layer without flushing or
// checkpointing — the process-internal equivalent of kill -9, for
// crash-recovery tests.
func (s *Server) Abort() { s.reg.Abort() }

// persistenceDTO assembles one session's /v1/stats persistence block;
// nil when the session is in-memory.
func persistenceDTO(sess *session.Session) *PersistenceDTO {
	if !sess.Durable() {
		return nil
	}
	st := sess.PersistStats()
	return &PersistenceDTO{
		Dir:                 st.Dir,
		Fsync:               st.Fsync,
		WALSegments:         st.Segments,
		WALBytes:            st.WALBytes,
		Appends:             st.Appends,
		Fsyncs:              st.Fsyncs,
		CheckpointSeq:       st.CheckpointSeq,
		Checkpoints:         st.Checkpoints,
		LastCheckpointError: st.LastCheckpointError,
		RecoveredBatches:    sess.RecoveredBatches(),
		ReplayedRecords:     st.Recovery.Replayed,
		TornTails:           st.Recovery.TornTails,
	}
}
