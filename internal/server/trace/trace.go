// Package trace is labeld's request-tracing layer. Every HTTP request gets
// a Trace carrying a request-scoped ID (honoring an incoming X-Trace-Id
// header) and a list of timed spans; the trace travels through the stack via
// context.Context, so the store, the durability wiring and the persist
// package each record the stages they own — lock waits, cache lookups,
// XPath evaluation, relabeling, codec encoding, journal appends and fsyncs —
// without any layer knowing about the others. Completed traces land in a
// fixed-size lock-free Ring served by /debug/traces, which is what turns
// "why was this update slow?" from guesswork into a span breakdown.
//
// All entry points are nil-safe: code holding a context without a trace
// (background compaction, recovery, tests) pays one nil check and no
// allocation, so tracing never forces a caller to care whether it is being
// observed.
package trace

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"sync"
	"time"
)

// Stage names. The store, durability wiring and persist layer record spans
// under these names, and the server aggregates them into the
// labeld_stage_duration_seconds metric — the set is closed so the metric's
// label cardinality is fixed at startup.
const (
	// StageLockWait is time spent acquiring the document's mutex (either
	// mode): lock contention, not work.
	StageLockWait = "lock_wait"
	// StageCacheLookup is the per-document query-cache probe.
	StageCacheLookup = "cache_lookup"
	// StageXPathEval is XPath-subset evaluation against the element table.
	StageXPathEval = "xpath_eval"
	// StageMaterialize is a query cache miss turning result rows into node
	// refs: path, label and text for every row.
	StageMaterialize = "materialize"
	// StageLabelProbe is a relation check (ancestor/parent/before), answered
	// from the element table's structural columns.
	StageLabelProbe = "label_probe"
	// StageParse is XML parsing during a document load.
	StageParse = "parse"
	// StageLabel is initial labeling during a document load.
	StageLabel = "label"
	// StageIndex is element-table construction (rdb.Build).
	StageIndex = "index"
	// StageRelabel is a dynamic update's labeling mutation — the paper's
	// relabeling cost, as wall time.
	StageRelabel = "relabel"
	// StageReindex is the post-update element-table patch, or the table's
	// rebuild after a labeling error.
	StageReindex = "reindex"
	// StageCodecEncode is labeling-state serialization inside a snapshot.
	StageCodecEncode = "codec_encode"
	// StageSnapshotWrite is a full snapshot write (encode + fsync + rename).
	StageSnapshotWrite = "snapshot_write"
	// StageJournalAppend is a journal record append (marshal + write),
	// excluding the fsync.
	StageJournalAppend = "journal_append"
	// StageJournalGroupWait is time an update spent waiting for another
	// request's in-flight fsync to cover its journal frame (group commit):
	// queueing behind the disk, not using it.
	StageJournalGroupWait = "journal_group_wait"
	// StageJournalFsync is the journal append's flush to stable storage —
	// the floor on durable update latency.
	StageJournalFsync = "journal_fsync"
	// StageReplicaStream is the primary-side lifetime of one replication
	// stream connection: journal tailing, snapshot shipping and heartbeats
	// for one follower.
	StageReplicaStream = "replica_stream"
	// StageReplicaApply is the follower-side application of one replicated
	// message (a journal record or a shipped snapshot) into the local store.
	StageReplicaApply = "replica_apply"
	// StageStreamFirstByte is a streamed query's time to first byte: from
	// request entry to the header line leaving the handler — evaluation
	// included, materialization excluded. The streaming endpoint's reason
	// to exist is keeping this flat in result size.
	StageStreamFirstByte = "stream_first_byte"
	// StageStreamWrite is the chunked materialize-and-write phase of a
	// streamed query: everything after the header line.
	StageStreamWrite = "stream_write"
)

// Stages lists every stage name, in rough request order. The server's
// metric registry builds one histogram per entry at startup.
var Stages = []string{
	StageLockWait, StageCacheLookup, StageXPathEval, StageMaterialize,
	StageLabelProbe, StageParse, StageLabel, StageIndex, StageRelabel,
	StageReindex, StageCodecEncode, StageSnapshotWrite, StageJournalAppend,
	StageJournalGroupWait, StageJournalFsync, StageReplicaStream,
	StageReplicaApply, StageStreamFirstByte, StageStreamWrite,
}

// Span is one timed stage within a trace.
type Span struct {
	// Stage is one of the Stage* constants.
	Stage string
	// Offset is the span's start relative to the trace's start.
	Offset time.Duration
	// Duration is how long the stage took.
	Duration time.Duration
}

// Trace is one request's record: identity, timing, and the spans recorded
// as it crossed the stack. Span appends are mutex-guarded — spans within a
// request are sequential today, but the lock keeps the structure safe if a
// stage ever fans out — and reads via Spans/JSON take the same lock, so a
// ring snapshot can be marshaled while late spans land.
type Trace struct {
	// ID is the request's trace ID: the caller's X-Trace-Id if one was
	// sent, otherwise server-generated. Immutable after creation.
	ID string
	// Endpoint is the logical endpoint name (query, update, load, ...).
	Endpoint string
	// Start is when the server began handling the request.
	Start time.Time

	mu       sync.Mutex
	doc      string
	status   int
	duration time.Duration
	done     bool
	spans    []Span
}

// New starts a trace for one request. id must be non-empty (use GenID when
// the caller did not supply one).
func New(id, endpoint string) *Trace {
	return &Trace{ID: id, Endpoint: endpoint, Start: time.Now()}
}

// SetDoc records which document the request addressed ("" for endpoints
// that are not document-scoped).
func (t *Trace) SetDoc(doc string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.doc = doc
	t.mu.Unlock()
}

// StartSpan begins a timed stage and returns the function that ends it.
// Nil-safe: on a nil trace the returned func is a no-op. Typical use:
//
//	defer tr.StartSpan(trace.StageXPathEval)()
func (t *Trace) StartSpan(stage string) func() {
	if t == nil {
		return func() {}
	}
	start := time.Now()
	return func() {
		end := time.Now()
		t.mu.Lock()
		t.spans = append(t.spans, Span{
			Stage:    stage,
			Offset:   start.Sub(t.Start),
			Duration: end.Sub(start),
		})
		t.mu.Unlock()
	}
}

// Finish seals the trace with the response status and total duration.
// Idempotent; only the first call wins.
func (t *Trace) Finish(status int) {
	if t == nil {
		return
	}
	t.mu.Lock()
	if !t.done {
		t.done = true
		t.status = status
		t.duration = time.Since(t.Start)
	}
	t.mu.Unlock()
}

// Status returns the response status recorded by Finish (0 before).
func (t *Trace) Status() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.status
}

// Duration returns the total handling time recorded by Finish (0 before).
func (t *Trace) Duration() time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.duration
}

// Doc returns the document name recorded with SetDoc ("" if none).
func (t *Trace) Doc() string {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.doc
}

// Spans returns a copy of the spans recorded so far.
func (t *Trace) Spans() []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]Span, len(t.spans))
	copy(out, t.spans)
	return out
}

// ctxKey is the private context key type for trace propagation.
type ctxKey struct{}

// NewContext returns ctx carrying t.
func NewContext(ctx context.Context, t *Trace) context.Context {
	return context.WithValue(ctx, ctxKey{}, t)
}

// FromContext returns the trace carried by ctx, or nil. The nil return is
// usable: every Trace method is nil-safe.
func FromContext(ctx context.Context) *Trace {
	t, _ := ctx.Value(ctxKey{}).(*Trace)
	return t
}

// Start begins a timed stage on the trace carried by ctx (a no-op when ctx
// has none) and returns the function that ends it.
func Start(ctx context.Context, stage string) func() {
	return FromContext(ctx).StartSpan(stage)
}

// Observe records an already-measured span on the trace carried by ctx (a
// no-op when ctx has none, or when d <= 0). It exists for durations
// measured by layers that do not know about tracing — a replicated
// record's apply time, for example — and are attributed to a stage after
// the fact. The span's offset places its end at "now".
func Observe(ctx context.Context, stage string, d time.Duration) {
	t := FromContext(ctx)
	if t == nil || d <= 0 {
		return
	}
	end := time.Now()
	t.mu.Lock()
	t.spans = append(t.spans, Span{
		Stage:    stage,
		Offset:   end.Add(-d).Sub(t.Start),
		Duration: d,
	})
	t.mu.Unlock()
}

// ID returns the trace ID carried by ctx, or "" when ctx has no trace —
// the form log call sites want for a trace_id attribute.
func ID(ctx context.Context) string {
	if t := FromContext(ctx); t != nil {
		return t.ID
	}
	return ""
}

// GenID returns a fresh random trace ID: 16 hex characters.
func GenID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		// crypto/rand failing means the process is in serious trouble;
		// degrade to a constant rather than panic on the request path.
		return "0000000000000000"
	}
	return hex.EncodeToString(b[:])
}

// MaxIDLen bounds accepted X-Trace-Id values; longer IDs are replaced with
// a generated one so a hostile client cannot bloat the ring or the logs.
const MaxIDLen = 128
