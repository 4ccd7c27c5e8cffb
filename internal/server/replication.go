package server

// Replication wiring: the Store implements both sides of the
// internal/server/replica contract, and the Server exposes them over HTTP.
//
// Primary side, the Source: a replication stream is a journal tail. The
// journal already is the document's authoritative update log — records
// carry the generation, the full request, and the verified outcome — so
// streaming committed journal bytes to a follower and replaying them
// through the same machinery crash recovery uses makes the replica exactly
// the state the primary would recover to. Nothing is regenerated, which
// matters for the prime scheme: its label assignment is history-dependent
// (which prime a node gets depends on the exact update sequence), so a
// replica must replay the primary's history, not re-derive it.
//
// Follower side, the Target: InstallSnapshot and ApplyRecord are live
// versions of recoverOne's two halves — snapshot load and verified journal
// replay — plus local re-journaling, so a follower restart recovers from
// its own disk and a promoted follower is durable from the first write.

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"primelabel/internal/labeling/codec"
	"primelabel/internal/server/api"
	"primelabel/internal/server/persist"
	"primelabel/internal/server/replica"
	"primelabel/internal/server/trace"
)

// ErrReadOnly rejects writes on a follower (403): the server replicates
// from a primary and only promotion makes it writable.
var ErrReadOnly = errors.New("server: read-only replica; writes go to the primary (or POST /promote)")

// Tail returns the named document's live journal for a replication stream
// to follow, plus the document's current generation, implementing
// replica.Source. Non-hosted documents map to replica.ErrUnknownDoc,
// journal-less ones (non-durable server, scheme without a codec, retired
// journal) to replica.ErrNotReplicable.
func (s *Store) Tail(name string) (replica.Tail, uint64, error) {
	d, err := s.get(name)
	if err != nil {
		return nil, 0, fmt.Errorf("%w: %q", replica.ErrUnknownDoc, name)
	}
	d.mu.RLock()
	defer d.mu.RUnlock()
	if d.journal == nil {
		return nil, 0, fmt.Errorf("%w: %q has no journal", replica.ErrNotReplicable, name)
	}
	return d.journal, d.gen, nil
}

// SnapshotRaw returns the document's on-disk snapshot image for shipping,
// implementing replica.Source. Snapshot files are replaced atomically
// (write-temp, fsync, rename), so the image is always internally
// consistent.
func (s *Store) SnapshotRaw(name string) ([]byte, error) {
	if s.persist == nil {
		return nil, fmt.Errorf("%w: store has no data directory", replica.ErrNotReplicable)
	}
	return s.persist.ReadSnapshotRaw(name)
}

// Generation returns the named document's current generation, implementing
// both replica.Source (heartbeats) and replica.Target (resume offsets).
func (s *Store) Generation(name string) (uint64, bool) {
	d, err := s.get(name)
	if err != nil {
		return 0, false
	}
	d.mu.RLock()
	defer d.mu.RUnlock()
	return d.gen, true
}

// FenceEpoch returns the named document's fencing epoch, implementing both
// replica.Source (heartbeats advertise it) and replica.Target (followers
// initialize their stale-stream check from it).
func (s *Store) FenceEpoch(name string) (uint64, bool) {
	d, err := s.get(name)
	if err != nil {
		return 0, false
	}
	d.mu.RLock()
	defer d.mu.RUnlock()
	return d.fenceEpoch, true
}

// Fences snapshots every hosted document's fencing epoch, keyed by name —
// the /healthz field cluster managers compare across nodes to detect a
// deposed primary serving stale state.
func (s *Store) Fences() map[string]uint64 {
	s.mu.RLock()
	docs := make([]*document, 0, len(s.docs))
	for _, d := range s.docs {
		docs = append(docs, d)
	}
	s.mu.RUnlock()
	out := make(map[string]uint64, len(docs))
	for _, d := range docs {
		d.mu.RLock()
		out[d.name] = d.fenceEpoch
		d.mu.RUnlock()
	}
	return out
}

// BumpFences increments every hosted document's fencing epoch and, for
// durable documents, immediately writes a snapshot so the bump survives a
// restart even before the next journaled write. The journal is deliberately
// NOT reset: its records are what a rejoining replica's divergence probe
// compares against. Called by promotion, before the read-only gate opens,
// so every post-promotion write carries the new epoch.
func (s *Store) BumpFences(ctx context.Context) {
	s.mu.RLock()
	docs := make([]*document, 0, len(s.docs))
	for _, d := range s.docs {
		docs = append(docs, d)
	}
	s.mu.RUnlock()
	for _, d := range docs {
		d.mu.Lock()
		d.fenceEpoch++
		epoch := d.fenceEpoch
		if d.journal != nil {
			if err := s.writeSnapshotLocked(ctx, d); err != nil {
				// The bump still holds in memory (and travels with every
				// subsequent record); only restart durability is degraded.
				s.metrics.persistErrors.Add(1)
				s.logger.Error("fence-bump snapshot failed", "doc", d.name, "err", err)
			} else {
				d.sinceSnap = 0
			}
		}
		d.mu.Unlock()
		s.logger.Info("bumped fencing epoch", "doc", d.name, "fence_epoch", epoch)
	}
}

// InstallSnapshot replaces the local copy of a document with a shipped
// snapshot image, implementing replica.Target. The image is decoded through
// the same codec recovery uses and — on a durable follower — persisted
// verbatim plus given a fresh journal, so a follower restart recovers
// locally instead of re-shipping, and a promoted follower is durable
// immediately. Any existing local copy is unpublished first (its journal
// must be closed before the incoming document truncates the same files), so
// reads briefly 404 during a re-sync; that is the correct signal, since the
// old copy was just declared untrustworthy.
func (s *Store) InstallSnapshot(ctx context.Context, name string, image []byte) (uint64, error) {
	meta, lab, err := persist.DecodeSnapshot(image)
	if err != nil {
		return 0, err
	}
	if meta.Name != name {
		return 0, fmt.Errorf("replica snapshot names %q, want %q", meta.Name, name)
	}
	// meta.Planner is ignored, as in recovery.
	s.swap(name, nil)

	endIndex := trace.Start(ctx, trace.StageIndex)
	d := s.newDocument(name, lab, meta)
	endIndex()

	if s.persist != nil && codec.Supported(lab) {
		endSnap := trace.Start(ctx, trace.StageSnapshotWrite)
		err := s.persist.WriteSnapshotRaw(name, image)
		endSnap()
		if err != nil {
			s.metrics.persistErrors.Add(1)
			return 0, err
		}
		j, err := s.persist.CreateJournal(name)
		if err != nil {
			s.metrics.persistErrors.Add(1)
			return 0, err
		}
		d.journal = j
		d.durable = true
	}

	s.swap(name, d)
	return meta.Generation, nil
}

// ApplyRecord replays one replicated journal record against the local copy,
// implementing replica.Target. The record goes through the exact machinery
// recovery replay uses — applyOp and reindex plus outcome verification —
// and is then appended to the follower's own journal (group-committed like
// a live update), which is what makes the follower's disk self-sufficient
// and chained replication possible. A record at or below the local generation
// is a duplicate from a stream overlap and is skipped; a gap or an outcome
// mismatch is replica.ErrDiverged, after which the local copy must be
// dropped and re-synced.
func (s *Store) ApplyRecord(ctx context.Context, name string, rec persist.Record) (uint64, error) {
	d, err := s.get(name)
	if err != nil {
		return 0, err
	}
	gen, commit, err := s.applyRecordLocked(ctx, d, rec)
	if commit != nil {
		if cerr := s.commitJournal(ctx, d, commit); err == nil {
			err = cerr
		}
	}
	return gen, err
}

// applyRecordLocked is ApplyRecord's write-lock critical section.
func (s *Store) applyRecordLocked(ctx context.Context, d *document, rec persist.Record) (uint64, *pendingCommit, error) {
	endLock := trace.Start(ctx, trace.StageLockWait)
	d.mu.Lock()
	endLock()
	defer d.mu.Unlock()
	if rec.Fence < d.fenceEpoch {
		// The record was journaled by a primary whose epoch predates one
		// this copy has already adopted — a deposed primary's stream. The
		// local copy stays untouched.
		return d.gen, nil, fmt.Errorf("%w: record gen %d carries epoch %d below local %d",
			replica.ErrStaleEpoch, rec.Gen, rec.Fence, d.fenceEpoch)
	}
	if rec.Gen <= d.gen {
		return d.gen, nil, nil // duplicate delivery; already applied
	}
	// Continuity check before touching anything: the record must advance the
	// local generation by exactly its op count, or the stream skipped
	// records we never saw.
	steps := uint64(len(rec.OpList()))
	if d.gen+steps != rec.Gen {
		return d.gen, nil, fmt.Errorf("%w: record generation %d does not follow local generation %d (+%d ops)",
			replica.ErrDiverged, rec.Gen, d.gen, steps)
	}
	patched, err := d.replayRecord(rec, fmt.Sprintf("replicated record gen %d", rec.Gen), replica.ErrDiverged)
	if err != nil {
		// State is partially mutated; the caller drops the document.
		return d.gen, nil, err
	}
	s.observeReindex(patched)
	if rec.Fence > d.fenceEpoch {
		// Adopt the primary's newer epoch. The record below is re-journaled
		// verbatim — fence included — so the adoption is durable and chained
		// replicas see it too.
		d.fenceEpoch = rec.Fence
	}

	var commit *pendingCommit
	if d.journal != nil {
		var jerr error
		if commit, jerr = s.journalAppendLocked(ctx, d, rec); jerr != nil {
			// The in-memory replica is correct but local durability is lost;
			// surface the error so the stream reconnects and the operator
			// sees it. The reconnect resumes from d.gen, so nothing is
			// re-applied.
			return d.gen, nil, jerr
		}
	}
	return d.gen, commit, nil
}

// Digests builds the GET /replicate/{name}/digest payload: the document's
// journal record digests plus the generations and epoch a rejoining
// follower needs to locate its divergence point. Digest reads race live
// appends and compactions harmlessly — the scan stops at any torn tail, and
// a prober seeing a shortened list just falls back to the snapshot path.
func (s *Store) Digests(name string) (replica.DigestResponse, error) {
	d, err := s.get(name)
	if err != nil {
		return replica.DigestResponse{}, err
	}
	if s.persist == nil {
		return replica.DigestResponse{}, fmt.Errorf("%w: store has no data directory", replica.ErrNotReplicable)
	}
	d.mu.RLock()
	resp := replica.DigestResponse{Generation: d.gen, FenceEpoch: d.fenceEpoch}
	d.mu.RUnlock()
	raw, err := s.persist.ReadSnapshotRaw(name)
	if err != nil {
		return replica.DigestResponse{}, err
	}
	meta, err := persist.DecodeSnapshotMeta(raw)
	if err != nil {
		return replica.DigestResponse{}, err
	}
	resp.SnapshotGeneration = meta.Generation
	if resp.Digests, err = s.persist.JournalDigests(name); err != nil {
		return replica.DigestResponse{}, err
	}
	return resp, nil
}

// Rebase rejoins the local copy of a document to the primary's history at
// the exact divergence point, implementing replica.Target. It compares the
// primary's journal digests against the local journal record by record
// (generation plus payload CRC — the same checksum the journal frames carry
// on disk), truncates the local journal at the first record the primary's
// history does not contain, and rebuilds the document from its own snapshot
// plus the surviving journal prefix. That is what lets a deposed primary
// rejoin as a follower without an empty-data-dir snapshot re-ship: only the
// forked suffix is discarded.
//
// ok=false (without error) means the probe cannot apply and the caller must
// fall back to Drop plus snapshot re-sync: no local persistence, a fork the
// primary has compacted out of its journal, or a fork already baked into
// the local snapshot. The document is unpublished while the journal is
// truncated (its live handle must be closed first), so reads 404 briefly —
// the same window InstallSnapshot has.
func (s *Store) Rebase(ctx context.Context, name string, primary replica.DigestResponse) (uint64, bool, error) {
	if s.persist == nil {
		return 0, false, nil
	}
	if s.swap(name, nil) == nil {
		return 0, false, nil
	}
	// From here on any failure leaves the document unpublished; the
	// fallback path (Drop + snapshot re-sync) handles that state.

	raw, err := s.persist.ReadSnapshotRaw(name)
	if err != nil {
		return 0, false, err
	}
	meta, err := persist.DecodeSnapshotMeta(raw)
	if err != nil {
		return 0, false, err
	}
	local, err := s.persist.JournalDigests(name)
	if err != nil {
		return 0, false, err
	}

	primaryCRC := make(map[uint64]uint32, len(primary.Digests))
	for _, pd := range primary.Digests {
		primaryCRC[pd.Gen] = pd.CRC
	}
	// The divergence point is the first local record the primary's history
	// does not contain. Records the primary has compacted below its
	// snapshot generation are unverifiable — if one of those disagrees we
	// cannot place the fork and must fall back.
	cut := -1
	for i, ld := range local {
		crc, covered := primaryCRC[ld.Gen]
		if covered && crc == ld.CRC {
			continue // shared history
		}
		if !covered && ld.Gen <= primary.SnapshotGeneration {
			return 0, false, nil
		}
		cut = i
		break
	}
	if cut < 0 {
		// The local journal is a pure prefix of the primary's history. If
		// the local snapshot itself is ahead of the primary the fork is
		// baked into it — not probeable.
		if meta.Generation > primary.Generation {
			return 0, false, nil
		}
	} else {
		if meta.Generation >= local[cut].Gen {
			// The fork predates the local snapshot: truncating the journal
			// cannot roll it back.
			return 0, false, nil
		}
		if err := s.persist.TruncateJournal(name, local[cut].Offset); err != nil {
			return 0, false, err
		}
		s.logger.Info("truncated journal at divergence point",
			"doc", name, "generation", local[cut].Gen, "records_discarded", len(local)-cut)
	}

	if err := s.recoverOne(name); err != nil {
		return 0, false, err
	}
	gen, _ := s.Generation(name)
	return gen, true, nil
}

// Drop unpublishes a document and removes its persisted state,
// implementing replica.Target. Unlike Delete it treats a missing document
// as success — drops race deletions on the primary by design.
func (s *Store) Drop(name string) error {
	s.swap(name, nil)
	if s.persist != nil {
		if err := s.persist.Remove(name); err != nil {
			s.metrics.persistErrors.Add(1)
			return err
		}
	}
	return nil
}

// streamConn adapts an http.ResponseWriter to replica.Conn: every message
// is flushed to the wire immediately, and per-message write deadlines reach
// the underlying connection through the ResponseController.
type streamConn struct {
	w  http.ResponseWriter
	rc *http.ResponseController
}

// Write passes frame bytes through to the response.
func (c streamConn) Write(p []byte) (int, error) { return c.w.Write(p) }

// Flush pushes buffered bytes to the follower.
func (c streamConn) Flush() error { return c.rc.Flush() }

// SetWriteDeadline bounds the next writes on the underlying connection.
func (c streamConn) SetWriteDeadline(t time.Time) error { return c.rc.SetWriteDeadline(t) }

// handleReplicate serves GET /replicate/{name}: one long-lived replication
// stream. It is the one route instrument gives no request deadline
// (streams are meant to run for hours); it ends when the follower goes away
// or Shutdown cancels the server's stream context.
func (s *Server) handleReplicate(w http.ResponseWriter, r *http.Request) {
	if !s.store.Durable() {
		writeError(w, fmt.Errorf("%w: server has no data directory; nothing to replicate", ErrBadRequest))
		return
	}
	name := r.PathValue("name")
	var from uint64
	have := false
	if v := r.URL.Query().Get("from"); v != "" {
		n, err := strconv.ParseUint(v, 10, 64)
		if err != nil {
			writeError(w, fmt.Errorf("%w: invalid from generation %q", ErrBadRequest, v))
			return
		}
		from, have = n, true
	}
	if _, ok := s.store.Generation(name); !ok {
		writeError(w, fmt.Errorf("%w: %q", ErrUnknownDocument, name))
		return
	}

	// The stream ends when the follower goes away (request context) or the
	// server shuts down (stream context), whichever comes first.
	ctx, cancel := context.WithCancel(r.Context())
	defer cancel()
	stop := context.AfterFunc(s.streamCtx, cancel)
	defer stop()

	w.Header().Set("Content-Type", "application/octet-stream")
	w.WriteHeader(http.StatusOK)

	s.metrics.replStreams.Add(1)
	s.metrics.replStreamsTotal.Add(1)
	defer s.metrics.replStreams.Add(-1)
	end := trace.Start(ctx, trace.StageReplicaStream)
	defer end()

	conn := streamConn{w: w, rc: http.NewResponseController(w)}
	if err := s.streamer.Serve(ctx, conn, name, from, have); err != nil {
		// Deliberate endings and follower disconnects return nil; what is
		// left is local trouble (journal read failure, corruption).
		s.logger.Error("replication stream failed", "doc", name, "from", from, "err", err,
			"trace_id", trace.ID(ctx))
	}
}

// handleReplicateDigest serves GET /replicate/{name}/digest: the journal
// record digests a rejoining follower compares with its own journal to find
// the divergence point (see Store.Rebase).
func (s *Server) handleReplicateDigest(w http.ResponseWriter, r *http.Request) {
	if !s.store.Durable() {
		writeError(w, fmt.Errorf("%w: server has no data directory; nothing to probe", ErrBadRequest))
		return
	}
	name := r.PathValue("name")
	resp, err := s.store.Digests(name)
	if err != nil {
		if errors.Is(err, ErrUnknownDocument) || errors.Is(err, persist.ErrNoSnapshot) {
			writeError(w, fmt.Errorf("%w: %q", ErrUnknownDocument, name))
			return
		}
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

// handlePromote serves POST /promote: stop following and accept writes.
func (s *Server) handlePromote(w http.ResponseWriter, r *http.Request) {
	promoted := s.Promote()
	writeJSON(w, http.StatusOK, api.PromoteResponse{
		Promoted:  promoted,
		Documents: s.store.Count(),
	})
}

// Promote turns a follower into a primary: it stops the replication
// streams, waits for any in-flight apply to finish, then clears the
// read-only gate — in that order, so no write is accepted while a
// replicated record could still race it. Documents the follower holds stay
// hosted (journaled locally, so they are durable and further replicable).
// Returns false when the server already accepted writes; safe to call
// concurrently and idempotent. On a server that never followed a primary
// it is a no-op.
func (s *Server) Promote() bool {
	s.followMu.Lock()
	defer s.followMu.Unlock()
	if !s.readOnly.Load() {
		return false
	}
	was := ""
	if s.follower != nil {
		was = s.follower.Primary()
		s.follower.Stop()
	}
	// Bump fencing epochs before the gate opens so every post-promotion
	// write carries the new epoch: a deposed primary's stream (still on the
	// old epoch) is then rejected by every follower.
	s.store.BumpFences(context.Background())
	if !s.readOnly.CompareAndSwap(true, false) {
		return false // lost the race to a concurrent promote
	}
	s.metrics.promotions.Add(1)
	s.logger.Info("promoted to primary; accepting writes",
		"documents", s.store.Count(), "was_following", was)
	return true
}

// FollowedPrimary returns the base URL of the primary this server currently
// follows, or "" when it is not following one (a primary, or a promoted
// ex-follower).
func (s *Server) FollowedPrimary() string {
	if s.readOnly.Load() {
		if f := s.currentFollower(); f != nil {
			return f.Primary()
		}
	}
	return ""
}

// ReadOnly reports whether the server currently rejects writes (an
// unpromoted follower).
func (s *Server) ReadOnly() bool { return s.readOnly.Load() }

// rejectReadOnly answers a write request on an unpromoted follower,
// returning true when the request was rejected.
func (s *Server) rejectReadOnly(w http.ResponseWriter) bool {
	if !s.readOnly.Load() {
		return false
	}
	writeError(w, ErrReadOnly)
	return true
}

// decorateReplicaInfo stamps follower state onto a DocInfo: whether the
// document is a replica and how far behind the primary it is.
func (s *Server) decorateReplicaInfo(info *api.DocInfo) {
	f := s.currentFollower()
	if f == nil || !s.readOnly.Load() {
		return
	}
	ds, ok := f.DocStatus(info.Name)
	if !ok {
		return
	}
	info.Replica = true
	info.ReplicaLagGenerations = ds.LagGenerations
}

// startFollower launches the follower's discovery and replication
// goroutines; a no-op on a server that is not configured to follow.
func (s *Server) startFollower() {
	if f := s.currentFollower(); f != nil {
		f.Start()
	}
}

// stopReplication ends every replication flow this server participates in:
// outbound streams are canceled (so httpSrv.Shutdown does not wait out the
// grace period on connections that would never drain), and the follower —
// if any — is stopped with its in-flight applies completed.
func (s *Server) stopReplication() {
	if s.cluster != nil {
		// First, so the failover watcher cannot promote or re-point the
		// follower mid-shutdown.
		s.cluster.Stop()
	}
	s.streamCancel()
	if f := s.currentFollower(); f != nil {
		f.Stop()
	}
}
