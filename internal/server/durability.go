package server

// Durability wiring: how the Store drives the persist package. The division
// of labor is strict — persist knows files and framing, this file knows
// locking and document lifecycle. Every on-disk mutation happens with the
// affected document's mutex held in a mode that excludes conflicting
// writers: journal appends under the write lock (Store.UpdateBatch),
// snapshots under at least the read lock (which excludes appends, so a
// snapshot and a journal truncation form one atomic compaction from the
// journal's point of view).

import (
	"context"
	"fmt"
	"time"

	"primelabel/internal/parallel"
	"primelabel/internal/server/persist"
	"primelabel/internal/server/trace"
)

// defaultSnapshotEvery is the journal-records-per-snapshot compaction
// threshold used when EnablePersistence is given a non-positive value.
const defaultSnapshotEvery = 1024

// EnablePersistence attaches a data directory to the store: subsequently
// loaded documents with persistable schemes are snapshotted and journaled,
// and Recover can rebuild previously persisted documents. Call before the
// store starts serving; it is not safe to enable persistence concurrently
// with requests. snapshotEvery is the number of journal records that
// triggers a background snapshot compaction (<= 0 uses the default, 1024).
func (s *Store) EnablePersistence(mgr *persist.Manager, snapshotEvery int) {
	if snapshotEvery <= 0 {
		snapshotEvery = defaultSnapshotEvery
	}
	s.persist = mgr
	s.snapshotEvery = snapshotEvery
}

// Durable reports whether the store has a data directory attached.
func (s *Store) Durable() bool { return s.persist != nil }

// makeDurable writes a freshly loaded document's initial snapshot and opens
// its (empty) journal. The snapshot-first order matters: a journal is only
// meaningful relative to a base snapshot, and recovery treats a journal
// without one as corruption.
func (s *Store) makeDurable(ctx context.Context, d *document) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if err := s.writeSnapshotLocked(ctx, d); err != nil {
		return err
	}
	j, err := s.persist.CreateJournal(d.name)
	if err != nil {
		return err
	}
	d.journal = j
	d.durable = true
	d.sinceSnap = 0
	return nil
}

// writeSnapshotLocked snapshots d through the store's manager, recording
// metrics and a snapshot_write span on any trace ctx carries. Callers hold
// d.mu in either mode.
func (s *Store) writeSnapshotLocked(ctx context.Context, d *document) error {
	start := time.Now()
	endSnap := trace.Start(ctx, trace.StageSnapshotWrite)
	size, err := s.persist.WriteSnapshot(ctx, persist.Meta{
		Name:       d.name,
		Generation: d.gen,
		Relabeled:  d.relabeled,
		FenceEpoch: d.fenceEpoch,
	}, d.lab)
	endSnap()
	if err != nil {
		return err
	}
	s.metrics.snapshots.Add(1)
	s.metrics.snapshotBytes.Add(uint64(size))
	s.metrics.snapshotNanos.Add(uint64(time.Since(start).Nanoseconds()))
	return nil
}

// pendingCommit identifies a journal record awaiting its group-commit
// fsync: the journal instance it was appended to and the record's sequence
// number in that journal. The journal pointer is captured under the write
// lock because d.journal can be retired (set nil) between append and
// commit.
type pendingCommit struct {
	j   *persist.Journal
	seq uint64
}

// journalAppendLocked appends one record — a single update or a whole
// batch — to d's journal without flushing it, records append metrics, and
// schedules compaction when due. Called with the write lock held, after the
// in-memory state (including d.gen and d.relabeled) reflects the update. On
// append failure the journal is retired — the document keeps serving but
// turns non-durable — because a journal with a hole would replay into a
// state that diverges from what clients observed. The returned
// pendingCommit must be handed to commitJournal after the lock is released.
func (s *Store) journalAppendLocked(ctx context.Context, d *document, rec persist.Record) (*pendingCommit, error) {
	stats, err := d.journal.Append(ctx, rec)
	if err != nil {
		s.metrics.persistErrors.Add(1)
		d.journal.Close()
		d.journal = nil
		d.durable = false
		s.logger.Error("journal append failed; document now non-durable",
			"doc", d.name, "err", err, "trace_id", trace.ID(ctx))
		return nil, fmt.Errorf("server: journal append failed, document %q is now non-durable: %v", d.name, err)
	}
	s.metrics.journalRecords.Add(1)
	s.metrics.journalBytes.Add(uint64(stats.Bytes))
	pc := &pendingCommit{j: d.journal, seq: stats.Seq}
	d.sinceSnap++
	if d.sinceSnap >= s.snapshotEvery && d.compacting.CompareAndSwap(false, true) {
		go s.compact(d)
	}
	return pc, nil
}

// commitJournal makes a previously appended record durable, after the write
// lock has been released — that is what lets concurrent updates to the same
// document ride one fsync instead of queueing their own. The elected leader
// syncs every frame written so far and its per-fsync coverage feeds the
// labeld_journal_batch_size histogram; followers just wait (the
// journal_group_wait span on their trace). On commit failure the record's
// durability is unknown, so the journal is retired — but only if the
// document still holds the same journal instance, since a compaction,
// replacement or delete may have moved on meanwhile.
func (s *Store) commitJournal(ctx context.Context, d *document, pc *pendingCommit) error {
	stats, err := pc.j.Commit(ctx, pc.seq)
	if stats.Leader {
		s.metrics.journalFsyncs.Add(1)
		s.metrics.journalFsyncNanos.Add(uint64(stats.FsyncDuration.Nanoseconds()))
		if stats.Frames > 0 {
			s.metrics.journalBatchSize.ObserveValue(float64(stats.Frames))
		}
	}
	if err == nil {
		return nil
	}
	s.metrics.persistErrors.Add(1)
	d.mu.Lock()
	if d.journal == pc.j {
		d.journal = nil
		d.durable = false
	}
	d.mu.Unlock()
	pc.j.Close()
	s.logger.Error("journal commit failed; document now non-durable",
		"doc", d.name, "err", err, "trace_id", trace.ID(ctx))
	return fmt.Errorf("server: journal commit failed, document %q is now non-durable: %v", d.name, err)
}

// compact runs one background snapshot compaction: snapshot the document,
// then truncate its journal. It holds the read lock throughout, which
// excludes updates (and therefore journal appends), so the snapshot and the
// truncation see the same state; the compacting flag serializes compactions
// so at most one runs per document.
func (s *Store) compact(d *document) {
	defer d.compacting.Store(false)
	d.mu.RLock()
	defer d.mu.RUnlock()
	if d.journal == nil {
		return // retired (replaced, deleted, or append failure) meanwhile
	}
	if err := s.writeSnapshotLocked(context.Background(), d); err != nil {
		s.metrics.persistErrors.Add(1)
		s.logger.Error("compaction snapshot failed; keeping journal", "doc", d.name, "err", err)
		return // keep the journal: the old snapshot + full journal still recover
	}
	if err := d.journal.Reset(); err != nil {
		s.metrics.persistErrors.Add(1)
		s.logger.Error("compaction journal reset failed", "doc", d.name, "err", err)
		// A failed truncation is harmless: records at or below the
		// snapshot's gen replay as no-ops. A failed fsync poisons the
		// journal, and the next append retires it.
		return
	}
	d.sinceSnap = 0
	s.logger.Debug("compacted document", "doc", d.name)
}

// replayRecord applies one journal record — a single update or a whole
// batch — against d through the same applyOp and reindex path live updates
// use, verifying the record's journaled outcome (per-op counts and failure
// flags, final generation and relabel totals) against what replay
// produced. what names the record in error messages; base is the sentinel
// a divergence wraps (persist.ErrCorrupt during crash recovery,
// replica.ErrDiverged during live replication). patched=false means at
// least one op rebuilt the element table instead of patching it. Callers
// hold the write lock (or own the unpublished document). On a divergence
// error the document's state is partially mutated and must be discarded.
func (d *document) replayRecord(rec persist.Record, what string, base error) (patched bool, err error) {
	patched = true
	for oi, op := range rec.OpList() {
		count, n, applied, opErr := d.applyOp(op.Req)
		if !applied {
			return patched, fmt.Errorf("%w: %s op %d rejected on replay: %v", base, what, oi, opErr)
		}
		if !d.reindex(op.Req, n, opErr) {
			patched = false
		}
		d.relabeled += uint64(count)
		if count != op.Count || (opErr != nil) != op.Failed {
			return patched, fmt.Errorf("%w: %s op %d replay diverged (count %d want %d, failed %v want %v)",
				base, what, oi, count, op.Count, opErr != nil, op.Failed)
		}
	}
	if d.gen != rec.Gen || d.relabeled != rec.Relabeled {
		return patched, fmt.Errorf("%w: %s replay diverged (gen %d want %d, relabeled %d want %d)",
			base, what, d.gen, rec.Gen, d.relabeled, rec.Relabeled)
	}
	return patched, nil
}

// retire detaches a document's journal under its write lock, turning it
// non-durable. The caller closes the returned journal (nil if the document
// had none) outside the lock. swap retires every document it replaces or
// unpublishes, so the outgoing instance cannot write to files the
// successor owns.
func retire(d *document) *persist.Journal {
	d.mu.Lock()
	j := d.journal
	d.journal = nil
	d.durable = false
	d.mu.Unlock()
	return j
}

// Close flushes a final snapshot for every durable document and closes its
// journal. Called on graceful shutdown, it makes the subsequent recovery a
// pure snapshot load with nothing to replay. The store keeps serving after
// Close, but no longer durably; Close is idempotent.
func (s *Store) Close() error {
	if s.persist == nil {
		return nil
	}
	s.mu.RLock()
	docs := make([]*document, 0, len(s.docs))
	for _, d := range s.docs {
		docs = append(docs, d)
	}
	s.mu.RUnlock()
	var first error
	keep := func(err error) {
		if err != nil {
			s.metrics.persistErrors.Add(1)
			if first == nil {
				first = err
			}
		}
	}
	for _, d := range docs {
		d.mu.Lock()
		if d.journal != nil {
			if err := s.writeSnapshotLocked(context.Background(), d); err != nil {
				keep(err)
			} else {
				keep(d.journal.Reset())
			}
			keep(d.journal.Close())
			d.journal = nil
			d.durable = false
		}
		d.mu.Unlock()
	}
	return first
}

// Recover rebuilds every persisted document from its snapshot plus journal
// replay and publishes them into the registry, returning the recovered
// names. Call before the store starts serving. Recovery is strict: a
// journal without a snapshot, a replay that diverges from the journaled
// outcome, or corruption anywhere but a torn journal tail aborts with an
// error rather than silently serving wrong labels.
//
// Documents recover concurrently — each is an independent snapshot load
// plus journal replay, so boot time on a multi-document data directory
// scales with the largest document instead of the sum, with one worker per
// usable CPU. Results stay deterministic: the returned names are the
// documents that recovered cleanly, in name order, and on failure the error
// reported is the first failing name in that order (documents after it may
// still have been recovered and published).
func (s *Store) Recover() ([]string, error) {
	if s.persist == nil {
		return nil, nil
	}
	names, err := s.persist.List()
	if err != nil {
		return nil, err
	}
	errs := make([]error, len(names))
	parallel.MapShards(parallel.Workers(0), len(names), 1, func(lo, hi int) struct{} {
		for i := lo; i < hi; i++ {
			errs[i] = s.recoverOne(names[i])
		}
		return struct{}{}
	})
	recovered := make([]string, 0, len(names))
	for i, name := range names {
		if errs[i] != nil {
			return recovered, fmt.Errorf("recover %q: %w", name, errs[i])
		}
		recovered = append(recovered, name)
	}
	return recovered, nil
}

// recoverOne restores a single document: load its snapshot, replay the
// journal records past the snapshot's generation — single updates and
// whole batches alike — through the same applyOp and reindex path live
// updates use, verify each record's journaled outcome (gen, relabel counts,
// failure flags) against what replay produced, then reopen the journal for
// appending with any torn tail truncated.
func (s *Store) recoverOne(name string) error {
	meta, lab, err := s.persist.LoadSnapshot(name)
	if err != nil {
		return err
	}
	if meta.Name != name {
		return fmt.Errorf("%w: snapshot meta names %q", persist.ErrCorrupt, meta.Name)
	}
	// meta.Planner is ignored: a snapshot written when labeld still served
	// other planners loads onto the extent planner like any other.
	d := s.newDocument(name, lab, meta)

	records, validEnd, err := s.persist.ReplayJournal(name)
	if err != nil {
		return err
	}
	replayed := 0
	for i, rec := range records {
		if rec.Gen <= meta.Generation {
			// Already captured by the snapshot — the residue of a crash
			// between snapshot rename and journal truncation. Snapshots only
			// happen between records, so this skips whole batches too.
			continue
		}
		if _, err := d.replayRecord(rec, fmt.Sprintf("journal record %d", i), persist.ErrCorrupt); err != nil {
			return err
		}
		if rec.Fence > d.fenceEpoch {
			// A replicated record can carry a higher epoch than the last
			// snapshot (the fence travels with records); epochs only grow.
			d.fenceEpoch = rec.Fence
		}
		replayed++
	}

	j, err := s.persist.OpenJournalAt(name, validEnd)
	if err != nil {
		return err
	}
	d.journal = j
	d.durable = true
	s.swap(name, d)
	s.metrics.replayedRecords.Add(uint64(replayed))
	s.metrics.recoveredDocs.Add(1)
	return nil
}
