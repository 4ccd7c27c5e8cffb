package persist

import (
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"sync"
	"time"

	"primelabel/internal/server/api"
	"primelabel/internal/server/trace"
)

// journalMagic identifies a journal file (version 1).
var journalMagic = []byte("LBLDJNL\x01")

// maxRecordLen bounds a single journal record. Update requests are small
// (an op, a couple of node ids, a tag); anything near this bound is
// corruption, not data.
const maxRecordLen = 1 << 20

// frameHeaderLen is the per-record framing overhead: a 4-byte little-endian
// payload length followed by a 4-byte CRC-32 (IEEE) of the payload.
const frameHeaderLen = 8

// Record is one journaled update: the ops that were applied plus the state
// counters they produced, which recovery uses both to skip records already
// covered by a snapshot (Gen) and to verify that replay reproduced the
// original outcome exactly (each op's Count and Failed, then Relabeled).
//
// A record holds one request, single update or batch, in one of two shapes
// (see NewRecord). A one-op record carries its op in the top-level Req,
// Count and Failed fields. A record of more ops carries them in Ops, and
// its top-level Req, Count and Failed are unused. Either way the frame CRC
// covers the request as a unit, so crash recovery replays a prefix of whole
// batches and can never observe a torn one. Journals written before one-op
// batches took the single-op shape may hold one-op records in Ops; OpList
// reads both shapes, and nothing outside this package tells them apart.
type Record struct {
	// Gen is the document generation after the record's last op applied.
	Gen uint64 `json:"gen"`
	// Relabeled is the document's cumulative relabel counter after the
	// record's last op.
	Relabeled uint64 `json:"relabeled"`
	// Count is the op's own relabel count (one-op records only).
	Count int `json:"count"`
	// Failed records that the labeling operation returned an error after
	// mutating state (the server still advances the generation in that
	// case, so replay must reproduce the failure too). One-op records only;
	// ops in Ops carry their own flag.
	Failed bool `json:"failed,omitempty"`
	// Req is the update request as applied, with no generation pin (replay
	// applies records unconditionally, in order). One-op records only.
	Req api.UpdateRequest `json:"req"`
	// Ops, when non-empty, holds the record's ops as applied, in order.
	Ops []OpRecord `json:"ops,omitempty"`
	// TraceID is the trace ID of the request that produced this record.
	// Replication streams records verbatim, so the ID reaches every follower
	// (including chained ones), letting /debug/traces stitch one write's
	// cross-node timeline: the primary's journal_append and each follower's
	// replica_apply share it. Replay ignores it; old journals without the
	// field load unchanged.
	TraceID string `json:"trace_id,omitempty"`
	// Fence is the document's fencing epoch at the time the record was
	// journaled. Promotion bumps the epoch, so a record written by a
	// deposed primary that kept accepting writes carries a lower fence than
	// the cluster's current one and followers reject it instead of applying
	// a fork. Zero on journals that predate fencing; epochs only ever grow.
	Fence uint64 `json:"fence,omitempty"`
}

// OpRecord is one applied op with the outcome recovery verifies.
type OpRecord struct {
	// Req is the op as applied, with no generation pin.
	Req api.UpdateRequest `json:"req"`
	// Count is the op's relabel count.
	Count int `json:"count"`
	// Failed records an op that errored after mutating state; it is always
	// the last op of its record (the server stops a batch there).
	Failed bool `json:"failed,omitempty"`
}

// NewRecord builds the record for ops, applied in order, that left the
// document at generation gen with cumulative relabel count relabeled. One
// op goes in the single-op fields, the shape single updates have always
// been journaled in; more go in Ops. The caller sets TraceID and Fence.
func NewRecord(gen, relabeled uint64, ops []OpRecord) Record {
	rec := Record{Gen: gen, Relabeled: relabeled}
	if len(ops) == 1 {
		rec.Req, rec.Count, rec.Failed = ops[0].Req, ops[0].Count, ops[0].Failed
	} else {
		rec.Ops = ops
	}
	return rec
}

// OpList returns the record's ops in order, whichever shape it was written
// in. A record advances its document's generation by len(OpList()).
func (r Record) OpList() []OpRecord {
	if len(r.Ops) > 0 {
		return r.Ops
	}
	return []OpRecord{{Req: r.Req, Count: r.Count, Failed: r.Failed}}
}

// AppendStats reports the outcome of one journal append, for metrics and
// for the Commit call that makes the append durable.
type AppendStats struct {
	// Bytes is the framed record size written.
	Bytes int
	// Seq is the record's sequence number in this journal, to pass to
	// Commit.
	Seq uint64
}

// GroupStats reports the outcome of one Commit call.
type GroupStats struct {
	// Leader reports that this call performed the fsync itself; a follower
	// (false) had its frame covered by another call's fsync and the other
	// fields are zero.
	Leader bool
	// Frames is the number of journal frames the leader's single fsync made
	// durable — the group-commit batch size.
	Frames int
	// FsyncDuration is how long the leader's fsync took.
	FsyncDuration time.Duration
}

// ErrJournalClosed reports an operation against a journal whose file handle
// has been released (Close), or a Wait that outlived the journal.
var ErrJournalClosed = errors.New("persist: journal closed")

// ErrFsyncFailed wraps the first failed fsync of a journal. The failure is
// sticky: once an fsync has failed, the kernel may have dropped the dirty
// pages it could not write, so a later fsync can succeed without the lost
// frames ever reaching the disk. Every later Append, and every Commit of a
// frame no successful fsync covered, returns the same error; the journal
// must be retired.
var ErrFsyncFailed = errors.New("persist: journal fsync failed")

// Journal is the append side of one document's update journal. Append is
// not safe for concurrent use — the server calls it only inside the
// document's write-lock critical section, which is also what orders journal
// records consistently with the in-memory state. Commit, by contrast, is
// called after the document lock is released and is safe for any number of
// concurrent callers: commits for the same journal coalesce onto one fsync
// (group commit), with one caller elected leader and the rest waiting for
// its Sync to cover their frames. A failed fsync poisons the journal (see
// ErrFsyncFailed).
//
// A journal also supports concurrent tailing readers (the replication
// stream): SafeLen, Epoch and Wait let a reader holding its own read-only
// file handle follow the append edge without ever observing a torn frame —
// SafeLen only ever covers whole appended frames (and, with fsync enabled,
// only frames a completed fsync made durable, so a follower can never apply
// an update the primary would forget after a crash), and Epoch changes tell
// the reader the file was truncated underneath it.
type Journal struct {
	f     *os.File
	path  string
	fsync bool

	// mu guards the group-commit and tailing state below. cond is signaled
	// whenever synced advances, a leader finishes, or the journal is
	// reset/closed.
	mu      sync.Mutex
	cond    *sync.Cond
	written uint64 // frames appended so far
	synced  uint64 // frames known to be on stable storage
	syncing bool   // a leader's fsync is in flight
	closed  bool
	// syncErr is the first fsync failure, wrapped in ErrFsyncFailed; nil
	// while every fsync has succeeded.
	syncErr error
	// syncFile performs every fsync after creation; tests substitute it to
	// inject failures.
	syncFile func(*os.File) error

	// writtenBytes is the byte length of the complete-frame prefix of the
	// file (magic header included): it advances only after a frame's Write
	// fully returned, so a tailing reader that stays below it can never see
	// a torn frame. syncedBytes is the prefix a completed fsync covers.
	writtenBytes int64
	syncedBytes  int64
	// epoch counts truncations (Reset, and the initial open). A tailing
	// reader records the epoch before reading and discards the read if the
	// epoch moved — the bytes it read may have been truncated away.
	epoch uint64
}

// newJournal wires up a journal over an open file positioned at its end.
// end is the file's current logical end — the complete-frame prefix length.
func newJournal(f *os.File, path string, fsync bool, end int64) *Journal {
	j := &Journal{f: f, path: path, fsync: fsync, writtenBytes: end, syncedBytes: end, epoch: 1, syncFile: (*os.File).Sync}
	j.cond = sync.NewCond(&j.mu)
	return j
}

// CreateJournal truncates (or creates) the named document's journal,
// leaving it empty and durable. Called when a document is (re)loaded: a
// fresh snapshot makes all prior records obsolete.
func (m *Manager) CreateJournal(name string) (*Journal, error) {
	path := m.journalPath(name)
	f, err := os.OpenFile(path, os.O_CREATE|os.O_TRUNC|os.O_RDWR, 0o644)
	if err != nil {
		return nil, err
	}
	j := newJournal(f, path, m.fsync, int64(len(journalMagic)))
	if _, err := f.Write(journalMagic); err != nil {
		f.Close()
		return nil, err
	}
	if m.fsync {
		if err := f.Sync(); err != nil {
			f.Close()
			return nil, err
		}
	}
	return j, nil
}

// OpenJournalAt opens the named document's journal for appending after
// recovery, truncating it to validEnd first (the offset ReplayJournal
// reported — everything past it is a torn tail). A missing journal is
// created empty.
func (m *Manager) OpenJournalAt(name string, validEnd int64) (*Journal, error) {
	path := m.journalPath(name)
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, err
	}
	end := validEnd
	if end < int64(len(journalMagic)) {
		end = int64(len(journalMagic))
	}
	j := newJournal(f, path, m.fsync, end)
	if validEnd < int64(len(journalMagic)) {
		// Torn or missing header: rewrite from scratch.
		if err := f.Truncate(0); err != nil {
			f.Close()
			return nil, err
		}
		if _, err := f.Write(journalMagic); err != nil {
			f.Close()
			return nil, err
		}
	} else {
		if err := f.Truncate(validEnd); err != nil {
			f.Close()
			return nil, err
		}
		if _, err := f.Seek(validEnd, 0); err != nil {
			f.Close()
			return nil, err
		}
	}
	if m.fsync {
		if err := f.Sync(); err != nil {
			f.Close()
			return nil, err
		}
	}
	return j, nil
}

// Append writes one record's frame to the journal file without flushing it.
// The record is crash-durable only after a Commit call whose covered range
// includes the returned Seq — callers append inside the document's write
// lock and commit after releasing it, so fsyncs from concurrent updates can
// coalesce. A trace carried by ctx receives a journal_append span (marshal +
// write). After a failed fsync it writes nothing and returns the sticky
// ErrFsyncFailed error.
func (j *Journal) Append(ctx context.Context, rec Record) (AppendStats, error) {
	if j.f == nil {
		return AppendStats{}, ErrJournalClosed
	}
	j.mu.Lock()
	poisoned := j.syncErr
	j.mu.Unlock()
	if poisoned != nil {
		return AppendStats{}, poisoned
	}
	endAppend := trace.Start(ctx, trace.StageJournalAppend)
	payload, err := json.Marshal(rec)
	if err != nil {
		endAppend()
		return AppendStats{}, err
	}
	frame := EncodeFrame(payload)
	if _, err := j.f.Write(frame); err != nil {
		endAppend()
		return AppendStats{}, err
	}
	endAppend()
	j.mu.Lock()
	j.written++
	seq := j.written
	// The frame is fully written, so the complete-frame prefix advances and
	// tailing readers may consume it (immediately when fsync is off; after
	// the covering fsync when it is on — see SafeLen).
	j.writtenBytes += int64(len(frame))
	if !j.fsync {
		j.cond.Broadcast()
	}
	j.mu.Unlock()
	return AppendStats{Bytes: len(frame), Seq: seq}, nil
}

// Commit blocks until the frame with the given sequence number is on stable
// storage (a no-op when the journal runs with fsync disabled). Concurrent
// commits coalesce: if another caller's fsync is already in flight, Commit
// waits for it — recording the wait as a journal_group_wait span on the
// trace carried by ctx — and returns without its own fsync when that sync
// covered seq. Otherwise the caller becomes the leader, fsyncing every frame
// written so far with one Sync (span: journal_fsync) and waking the
// followers it covered. Returns an error if the journal was closed
// underneath the caller, or if seq is not covered by a successful fsync and
// any fsync has failed: the leader's own, an earlier one, or a Reset's. That
// ErrFsyncFailed error is sticky (see ErrFsyncFailed) — a follower woken by a
// failed leader never retries the fsync itself.
func (j *Journal) Commit(ctx context.Context, seq uint64) (GroupStats, error) {
	if !j.fsync {
		return GroupStats{}, nil
	}
	j.mu.Lock()
	if j.synced < seq && j.syncing && !j.closed {
		endWait := trace.Start(ctx, trace.StageJournalGroupWait)
		for j.synced < seq && j.syncing && !j.closed {
			j.cond.Wait()
		}
		endWait()
	}
	if j.synced >= seq {
		// Covered by another caller's fsync (or a reset after a snapshot).
		j.mu.Unlock()
		return GroupStats{}, nil
	}
	if err := j.syncErr; err != nil {
		j.mu.Unlock()
		return GroupStats{}, err
	}
	if j.closed {
		j.mu.Unlock()
		return GroupStats{}, errors.New("persist: journal closed")
	}
	// Leader: sync everything written so far in one call. Frames appended
	// while the sync is in flight may or may not hit the disk with it;
	// synced only advances to target, so their commits stay conservative.
	j.syncing = true
	target := j.written
	targetBytes := j.writtenBytes
	covered := target - j.synced
	f := j.f
	j.mu.Unlock()

	endFsync := trace.Start(ctx, trace.StageJournalFsync)
	start := time.Now()
	err := j.syncFile(f)
	d := time.Since(start)
	endFsync()

	j.mu.Lock()
	j.syncing = false
	if err != nil {
		err = j.poisonLocked(err)
	} else {
		if j.synced < target {
			j.synced = target
		}
		if j.syncedBytes < targetBytes {
			j.syncedBytes = targetBytes
		}
	}
	j.cond.Broadcast()
	j.mu.Unlock()
	if err != nil {
		return GroupStats{Leader: true, FsyncDuration: d}, err
	}
	return GroupStats{Leader: true, Frames: int(covered), FsyncDuration: d}, nil
}

// poisonLocked records a failed fsync, keeping the first failure, and
// returns the sticky error. Callers hold j.mu.
func (j *Journal) poisonLocked(err error) error {
	if j.syncErr == nil {
		j.syncErr = fmt.Errorf("%w: %s: %w", ErrFsyncFailed, j.path, err)
	}
	return j.syncErr
}

// Reset truncates the journal to empty. Called after a snapshot has been
// made durable: every journaled update is now covered by the snapshot, so
// any in-flight commits are released as satisfied — unless the truncation's
// own fsync fails, which poisons the journal like a failed Commit and
// releases nothing. The truncation bumps the journal's epoch, telling
// tailing readers their byte offsets are void and they must restart from
// the freshly written snapshot.
func (j *Journal) Reset() error {
	// The mutex is held across the truncation AND the epoch bump: a tailing
	// reader whose ReadAt hit the shrunken file re-checks Epoch, which
	// blocks here until the bump is published — so a truncated read is
	// always distinguishable from corruption. Append/Commit cannot deadlock
	// with this: their file I/O runs outside the mutex, and Reset's callers
	// already exclude concurrent appends.
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil {
		return ErrJournalClosed
	}
	if err := j.f.Truncate(int64(len(journalMagic))); err != nil {
		return err
	}
	if _, err := j.f.Seek(int64(len(journalMagic)), 0); err != nil {
		return err
	}
	var err error
	if j.fsync {
		if err = j.syncFile(j.f); err != nil {
			err = j.poisonLocked(err)
		}
	}
	if err == nil {
		j.synced = j.written
	}
	j.writtenBytes = int64(len(journalMagic))
	j.syncedBytes = int64(len(journalMagic))
	j.epoch++
	j.cond.Broadcast()
	return err
}

// Close releases the journal's file handle, waiting out any in-flight
// leader fsync first and failing the commits it cannot satisfy. Further
// Appends fail. Idempotent.
func (j *Journal) Close() error {
	j.mu.Lock()
	if j.f == nil {
		j.mu.Unlock()
		return nil
	}
	j.closed = true
	for j.syncing {
		j.cond.Wait()
	}
	f := j.f
	j.f = nil
	j.cond.Broadcast()
	j.mu.Unlock()
	return f.Close()
}

// ReplayJournal reads the named document's journal and returns its records
// plus the offset of the last valid byte. A torn final record — the residue
// of a crash mid-append — is detected and excluded (pass the offset to
// OpenJournalAt to truncate it); corruption anywhere before the tail is an
// ErrCorrupt error. A missing journal yields no records and offset 0.
func (m *Manager) ReplayJournal(name string) ([]Record, int64, error) {
	data, err := os.ReadFile(m.journalPath(name))
	if errors.Is(err, os.ErrNotExist) {
		return nil, 0, nil
	}
	if err != nil {
		return nil, 0, err
	}
	payloads, validEnd, err := scanFrames(data)
	if err != nil {
		return nil, 0, fmt.Errorf("%w: journal %s: %v", ErrCorrupt, name, err)
	}
	records := make([]Record, 0, len(payloads))
	for i, p := range payloads {
		var rec Record
		if err := json.Unmarshal(p, &rec); err != nil {
			// The CRC matched, so this is not a torn write: the payload
			// itself is damaged.
			return nil, 0, fmt.Errorf("%w: journal %s: record %d: %v", ErrCorrupt, name, i, err)
		}
		records = append(records, rec)
	}
	return records, validEnd, nil
}

// RecordDigest identifies one journal record for divergence probing: the
// generation the record produced, the CRC-32 (IEEE) of its payload — the
// same checksum the frame header carries, so two journals that recorded the
// same update byte-for-byte agree on it — and the byte offset of the
// record's frame in the journal file. A rejoining follower compares its
// digests against the primary's: the first generation whose CRC differs is
// the divergence point, and the follower truncates its journal at that
// record's local Offset instead of re-shipping a whole snapshot.
type RecordDigest struct {
	// Gen is the generation the record produced (Record.Gen).
	Gen uint64 `json:"gen"`
	// CRC is the CRC-32 (IEEE) of the record's JSON payload.
	CRC uint32 `json:"crc"`
	// Offset is the byte offset of the record's frame start in the journal
	// file it was scanned from. Offsets are local to that file — the two
	// sides of a probe compare Gen and CRC, never offsets.
	Offset int64 `json:"offset"`
}

// DigestFrames walks a journal image with the same framing rules as crash
// recovery (torn tails terminate the scan cleanly, earlier corruption is an
// error) and returns one digest per valid record. The CRC comes from the
// frame header, which scanFrames has already verified against the payload.
func DigestFrames(data []byte) ([]RecordDigest, error) {
	payloads, _, err := scanFrames(data)
	if err != nil {
		return nil, err
	}
	digests := make([]RecordDigest, 0, len(payloads))
	off := int64(len(journalMagic))
	for i, p := range payloads {
		var rec struct {
			Gen uint64 `json:"gen"`
		}
		if err := json.Unmarshal(p, &rec); err != nil {
			return nil, fmt.Errorf("%w: journal record %d: %v", ErrCorrupt, i, err)
		}
		digests = append(digests, RecordDigest{Gen: rec.Gen, CRC: crc32.ChecksumIEEE(p), Offset: off})
		off += int64(frameHeaderLen + len(p))
	}
	return digests, nil
}

// JournalDigests scans the named document's journal file and returns one
// digest per committed record, for divergence probing (see RecordDigest). A
// missing journal yields no digests. The scan reads the file without
// locking the live journal; a concurrent truncation (compaction) can only
// shorten the result, which a prober treats like any other stale answer and
// retries.
func (m *Manager) JournalDigests(name string) ([]RecordDigest, error) {
	data, err := os.ReadFile(m.journalPath(name))
	if errors.Is(err, os.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	digests, err := DigestFrames(data)
	if err != nil {
		return nil, fmt.Errorf("%w: journal %s: %v", ErrCorrupt, name, err)
	}
	return digests, nil
}

// TruncateJournal cuts the named document's journal file back to offset —
// the divergence point a digest probe found — discarding every record at or
// past it. The document's live journal handle must be closed first (the
// rejoin path retires the document before rebasing); offsets below the
// journal header are clamped to an empty journal. The truncation is
// fsynced so a crash mid-rejoin cannot resurrect the discarded records.
func (m *Manager) TruncateJournal(name string, offset int64) error {
	if offset < int64(len(journalMagic)) {
		offset = int64(len(journalMagic))
	}
	f, err := os.OpenFile(m.journalPath(name), os.O_RDWR, 0o644)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := f.Truncate(offset); err != nil {
		return err
	}
	if m.fsync {
		return f.Sync()
	}
	return nil
}

// EncodeFrame wraps a payload in the journal's record framing: a 4-byte
// little-endian payload length, a 4-byte CRC-32 (IEEE) of the payload, then
// the payload itself. The replication stream reuses this framing for its
// wire messages, which is what lets a follower validate streamed chunks
// with the same scanner that guards crash recovery.
func EncodeFrame(payload []byte) []byte {
	frame := make([]byte, frameHeaderLen+len(payload))
	binary.LittleEndian.PutUint32(frame[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(frame[4:8], crc32.ChecksumIEEE(payload))
	copy(frame[frameHeaderLen:], payload)
	return frame
}

// Path returns the journal's file path, for tailing readers that open their
// own read-only handle on it.
func (j *Journal) Path() string { return j.path }

// SafeLen returns the byte length of the journal prefix a concurrent reader
// may consume without ever observing a torn or volatile frame: with fsync
// enabled, the prefix the last completed fsync covers (streaming an
// un-synced frame could let a follower apply an update the primary forgets
// after a crash); with fsync disabled, the complete-frame prefix. Safe for
// concurrent use.
func (j *Journal) SafeLen() int64 {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.fsync {
		return j.syncedBytes
	}
	return j.writtenBytes
}

// Epoch returns the journal's truncation epoch. A tailing reader records it
// before reading file bytes and discards the read when a second call
// disagrees: the bytes may have been truncated away by a Reset mid-read.
// Safe for concurrent use.
func (j *Journal) Epoch() uint64 {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.epoch
}

// Wait blocks until the journal's safe length exceeds after, its epoch
// differs from epoch (a truncation landed), it is closed
// (ErrJournalClosed), or ctx is done (the ctx error). It is the tailing
// reader's park: call it with the offset already consumed and the epoch
// that offset belongs to, and re-check both on return. Safe for any number
// of concurrent callers.
func (j *Journal) Wait(ctx context.Context, after int64, epoch uint64) error {
	stop := context.AfterFunc(ctx, func() {
		j.mu.Lock()
		j.cond.Broadcast()
		j.mu.Unlock()
	})
	defer stop()
	j.mu.Lock()
	defer j.mu.Unlock()
	for {
		if j.closed {
			return ErrJournalClosed
		}
		if j.epoch != epoch {
			return nil
		}
		safe := j.writtenBytes
		if j.fsync {
			safe = j.syncedBytes
		}
		if safe > after {
			return nil
		}
		if err := ctx.Err(); err != nil {
			return err
		}
		j.cond.Wait()
	}
}

// scanFrames walks a journal image and returns the framed payloads plus the
// offset just past the last valid frame. A malformed frame that extends to
// (or past) the end of the image is a torn write and terminates the scan
// cleanly; a malformed frame with valid data after it is corruption.
func scanFrames(data []byte) ([][]byte, int64, error) {
	if len(data) < len(journalMagic) {
		// Torn header: nothing valid yet.
		return nil, 0, nil
	}
	if string(data[:len(journalMagic)]) != string(journalMagic) {
		return nil, 0, errors.New("bad magic")
	}
	var payloads [][]byte
	off := len(journalMagic)
	for off < len(data) {
		rest := len(data) - off
		if rest < frameHeaderLen {
			return payloads, int64(off), nil // torn mid-header
		}
		length := int(binary.LittleEndian.Uint32(data[off : off+4]))
		want := binary.LittleEndian.Uint32(data[off+4 : off+8])
		if length > maxRecordLen {
			if frameHeaderLen+length >= rest {
				return payloads, int64(off), nil // garbage length from a torn write
			}
			return nil, 0, fmt.Errorf("record at offset %d: unreasonable length %d", off, length)
		}
		if rest < frameHeaderLen+length {
			return payloads, int64(off), nil // torn mid-payload
		}
		payload := data[off+frameHeaderLen : off+frameHeaderLen+length]
		if crc32.ChecksumIEEE(payload) != want {
			if off+frameHeaderLen+length == len(data) {
				return payloads, int64(off), nil // torn final record
			}
			return nil, 0, fmt.Errorf("record at offset %d: checksum mismatch", off)
		}
		payloads = append(payloads, payload)
		off += frameHeaderLen + length
	}
	return payloads, int64(off), nil
}
