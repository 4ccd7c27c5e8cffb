// Package persist is labeld's durability layer: per-document snapshots plus
// an append-only update journal, laid out in a flat data directory.
//
// Why both: the prime scheme's defining property (Wu/Lee/Hsu §4) is that
// dynamic updates never relabel existing nodes, which makes allocation
// state history-dependent — it cannot be regenerated by relabeling the XML.
// A snapshot captures the complete labeled state via the labeling codec; the
// journal records every update applied since, so startup recovery is
// snapshot + replay(journal) and reproduces labels, relabel counters and SC
// order state exactly.
//
// Data-dir layout (one pair per hosted document):
//
//	<dir>/<name>.snap      snapshot: magic, JSON meta, codec payload
//	<dir>/<name>.snap.tmp  in-flight snapshot (renamed into place atomically)
//	<dir>/<name>.journal   journal: magic, then length-prefixed CRC records
//
// Concurrency: a Manager is safe for concurrent use across documents, but
// per-document operations (snapshot, journal append, replay) must be
// externally serialized — the server does this with the document's RWMutex:
// appends happen inside the write-lock critical section, snapshots under at
// least the read lock.
//
// Durability contract: with fsync enabled, Journal.Append returns only after
// the record is on stable storage, so an acknowledged update survives
// kill -9. Snapshots are written to a temp file, fsynced, and renamed into
// place, so a crash mid-snapshot leaves the previous snapshot intact; the
// journal is truncated only after the new snapshot is durable. Records carry
// the generation they produced, so a crash between snapshot rename and
// journal truncation is harmless — replay skips records at or below the
// snapshot's generation.
package persist

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"primelabel/internal/labeling"
	"primelabel/internal/labeling/codec"
	"primelabel/internal/server/trace"
)

// snapMagic identifies a snapshot file (version 1).
var snapMagic = []byte("LBLDSNP\x01")

// Errors the recovery path distinguishes.
var (
	// ErrNoSnapshot: the document has no snapshot file. Recovery treats a
	// journal without a snapshot as unrecoverable (there is no base state to
	// replay onto).
	ErrNoSnapshot = errors.New("persist: no snapshot")
	// ErrCorrupt reports a snapshot or journal whose contents fail
	// validation beyond what torn-write repair can explain.
	ErrCorrupt = errors.New("persist: corrupt data")
)

// Meta is the snapshot header: everything the server needs to rehost a
// document that the labeling payload itself does not carry.
type Meta struct {
	// Name is the document's registry name.
	Name string `json:"name"`
	// Planner is ignored. Servers that offered several structural-join
	// planners recorded the document's ("extent", "stacktree" or
	// "nestedloop") here; labeld serves every document on the extent
	// planner and no longer writes it.
	Planner string `json:"planner,omitempty"`
	// Generation is the document's update generation at snapshot time.
	Generation uint64 `json:"generation"`
	// Relabeled is the cumulative relabel counter at snapshot time — the
	// paper's cost metric, preserved across restarts.
	Relabeled uint64 `json:"relabeled"`
	// FenceEpoch is the document's fencing epoch at snapshot time (see
	// Record.Fence). Promotion bumps the epoch and immediately snapshots,
	// so the bump survives a restart even before the next journaled write.
	FenceEpoch uint64 `json:"fence_epoch,omitempty"`
}

// Manager owns one data directory. It is safe for concurrent use across
// documents; per-document calls must be serialized by the caller.
type Manager struct {
	dir   string
	fsync bool
}

// Open creates (if needed) and returns a Manager for dir. fsync controls
// whether journal appends and snapshots are flushed to stable storage
// before returning; disabling it trades crash durability for speed.
func Open(dir string, fsync bool) (*Manager, error) {
	if dir == "" {
		return nil, errors.New("persist: empty data dir")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	return &Manager{dir: dir, fsync: fsync}, nil
}

// Dir returns the managed data directory.
func (m *Manager) Dir() string { return m.dir }

// Fsync reports whether the manager flushes writes to stable storage.
func (m *Manager) Fsync() bool { return m.fsync }

func (m *Manager) snapPath(name string) string    { return filepath.Join(m.dir, name+".snap") }
func (m *Manager) journalPath(name string) string { return filepath.Join(m.dir, name+".journal") }

// WriteSnapshot atomically replaces the named document's snapshot with the
// given meta and labeling state, returning the snapshot size in bytes. The
// caller must hold at least the document's read lock so the labeling cannot
// mutate mid-marshal. A trace carried by ctx receives a codec_encode span
// covering labeling-state serialization (the CPU-bound part of a snapshot;
// the caller typically wraps the whole call in snapshot_write).
func (m *Manager) WriteSnapshot(ctx context.Context, meta Meta, lab labeling.Labeling) (int64, error) {
	path := m.snapPath(meta.Name)
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return 0, err
	}
	err = func() error {
		if _, err := f.Write(snapMagic); err != nil {
			return err
		}
		metaJSON, err := json.Marshal(meta)
		if err != nil {
			return err
		}
		var lenBuf [binary.MaxVarintLen64]byte
		n := binary.PutUvarint(lenBuf[:], uint64(len(metaJSON)))
		if _, err := f.Write(lenBuf[:n]); err != nil {
			return err
		}
		if _, err := f.Write(metaJSON); err != nil {
			return err
		}
		endEncode := trace.Start(ctx, trace.StageCodecEncode)
		err = codec.Marshal(lab, f)
		endEncode()
		if err != nil {
			return err
		}
		if m.fsync {
			return f.Sync()
		}
		return nil
	}()
	if err != nil {
		f.Close()
		os.Remove(tmp)
		return 0, err
	}
	size, _ := f.Seek(0, io.SeekEnd)
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return 0, err
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return 0, err
	}
	if m.fsync {
		if err := m.syncDir(); err != nil {
			return size, err
		}
	}
	return size, nil
}

// WriteSnapshotRaw atomically replaces the named document's snapshot with a
// complete snapshot image (as produced by WriteSnapshot on another server
// and shipped over the replication stream), using the same temp-file,
// fsync, rename sequence WriteSnapshot does. The caller is responsible for
// having validated the image (DecodeSnapshot); this function only stores
// bytes.
func (m *Manager) WriteSnapshotRaw(name string, image []byte) error {
	path := m.snapPath(name)
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(image); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if m.fsync {
		if err := f.Sync(); err != nil {
			f.Close()
			os.Remove(tmp)
			return err
		}
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return err
	}
	if m.fsync {
		return m.syncDir()
	}
	return nil
}

// LoadSnapshot reads and validates the named document's snapshot, returning
// its meta and restored labeling. A missing file is ErrNoSnapshot; any
// malformed content is ErrCorrupt (snapshots are written atomically, so a
// torn snapshot indicates real damage, not a crash).
func (m *Manager) LoadSnapshot(name string) (Meta, labeling.Labeling, error) {
	f, err := os.Open(m.snapPath(name))
	if errors.Is(err, os.ErrNotExist) {
		return Meta{}, nil, fmt.Errorf("%w: %s", ErrNoSnapshot, name)
	}
	if err != nil {
		return Meta{}, nil, err
	}
	defer f.Close()
	return decodeSnapshot(f, "snapshot "+name)
}

// ReadSnapshotRaw returns the named document's snapshot file image exactly
// as WriteSnapshot laid it out (magic, meta, codec payload). Snapshots are
// replaced atomically by rename, so a concurrent compaction yields either
// the old or the new complete image, never a torn one. The replication
// stream ships this image verbatim to followers, which decode it with
// DecodeSnapshot. A missing file is ErrNoSnapshot.
func (m *Manager) ReadSnapshotRaw(name string) ([]byte, error) {
	data, err := os.ReadFile(m.snapPath(name))
	if errors.Is(err, os.ErrNotExist) {
		return nil, fmt.Errorf("%w: %s", ErrNoSnapshot, name)
	}
	return data, err
}

// DecodeSnapshot parses a snapshot image (as produced by WriteSnapshot and
// shipped by ReadSnapshotRaw) into its meta and restored labeling. Any
// malformed content is ErrCorrupt.
func DecodeSnapshot(data []byte) (Meta, labeling.Labeling, error) {
	return decodeSnapshot(bytes.NewReader(data), "snapshot stream")
}

// DecodeSnapshotMeta parses only the meta header of a snapshot image,
// without restoring the labeling payload — the cheap way to learn a
// snapshot's generation before deciding whether a follower needs it shipped.
func DecodeSnapshotMeta(data []byte) (Meta, error) {
	br := newByteReader(bytes.NewReader(data))
	head := make([]byte, len(snapMagic))
	if _, err := io.ReadFull(br, head); err != nil || string(head) != string(snapMagic) {
		return Meta{}, fmt.Errorf("%w: snapshot image: bad magic", ErrCorrupt)
	}
	metaLen, err := binary.ReadUvarint(br)
	if err != nil || metaLen > 1<<20 {
		return Meta{}, fmt.Errorf("%w: snapshot image: bad meta length", ErrCorrupt)
	}
	metaJSON := make([]byte, metaLen)
	if _, err := io.ReadFull(br, metaJSON); err != nil {
		return Meta{}, fmt.Errorf("%w: snapshot image: truncated meta", ErrCorrupt)
	}
	var meta Meta
	if err := json.Unmarshal(metaJSON, &meta); err != nil {
		return Meta{}, fmt.Errorf("%w: snapshot image: meta: %v", ErrCorrupt, err)
	}
	return meta, nil
}

// decodeSnapshot reads one snapshot image from r; what names the source in
// errors.
func decodeSnapshot(r io.Reader, what string) (Meta, labeling.Labeling, error) {
	br := newByteReader(r)
	head := make([]byte, len(snapMagic))
	if _, err := io.ReadFull(br, head); err != nil || string(head) != string(snapMagic) {
		return Meta{}, nil, fmt.Errorf("%w: %s: bad magic", ErrCorrupt, what)
	}
	metaLen, err := binary.ReadUvarint(br)
	if err != nil || metaLen > 1<<20 {
		return Meta{}, nil, fmt.Errorf("%w: %s: bad meta length", ErrCorrupt, what)
	}
	metaJSON := make([]byte, metaLen)
	if _, err := io.ReadFull(br, metaJSON); err != nil {
		return Meta{}, nil, fmt.Errorf("%w: %s: truncated meta", ErrCorrupt, what)
	}
	var meta Meta
	if err := json.Unmarshal(metaJSON, &meta); err != nil {
		return Meta{}, nil, fmt.Errorf("%w: %s: meta: %v", ErrCorrupt, what, err)
	}
	lab, err := codec.Unmarshal(br)
	if err != nil {
		return Meta{}, nil, fmt.Errorf("%w: %s: %v", ErrCorrupt, what, err)
	}
	return meta, lab, nil
}

// Remove deletes the named document's snapshot and journal files (missing
// files are not an error).
func (m *Manager) Remove(name string) error {
	var first error
	for _, p := range []string{m.snapPath(name), m.snapPath(name) + ".tmp", m.journalPath(name)} {
		if err := os.Remove(p); err != nil && !errors.Is(err, os.ErrNotExist) && first == nil {
			first = err
		}
	}
	if m.fsync {
		if err := m.syncDir(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// List returns the names of all documents with persisted state (a snapshot,
// a journal, or both), sorted.
func (m *Manager) List() ([]string, error) {
	entries, err := os.ReadDir(m.dir)
	if err != nil {
		return nil, err
	}
	seen := make(map[string]bool)
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		switch n := e.Name(); {
		case strings.HasSuffix(n, ".snap"):
			seen[strings.TrimSuffix(n, ".snap")] = true
		case strings.HasSuffix(n, ".journal"):
			seen[strings.TrimSuffix(n, ".journal")] = true
		}
	}
	names := make([]string, 0, len(seen))
	for n := range seen {
		names = append(names, n)
	}
	sort.Strings(names)
	return names, nil
}

// HasJournal reports whether the named document has a journal file on disk.
func (m *Manager) HasJournal(name string) bool {
	_, err := os.Stat(m.journalPath(name))
	return err == nil
}

// syncDir fsyncs the data directory so renames and removals are durable.
func (m *Manager) syncDir() error {
	d, err := os.Open(m.dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}

// byteReader adapts an io.Reader with a one-byte ReadByte so
// binary.ReadUvarint cannot over-read past the header into the codec
// payload.
type byteReader struct {
	r io.Reader
}

func newByteReader(r io.Reader) *byteReader { return &byteReader{r: r} }

func (b *byteReader) Read(p []byte) (int, error) { return b.r.Read(p) }

func (b *byteReader) ReadByte() (byte, error) {
	var one [1]byte
	_, err := io.ReadFull(b.r, one[:])
	return one[0], err
}
