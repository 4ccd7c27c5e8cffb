// Package api defines the JSON wire types of the labeld HTTP service. The
// server (internal/server), the Go client (internal/server/client) and the
// load generator (cmd/labelload) all share these definitions, so a field
// added here is immediately visible on both sides of the wire.
package api

// TraceIDHeader is the HTTP header carrying a request's trace ID. Clients
// may set it to correlate their own records with the server's trace buffer
// and logs; the server generates an ID when the header is absent and always
// echoes the effective ID on the response.
const TraceIDHeader = "X-Trace-Id"

// LoadRequest loads (or replaces) a named document: the XML source plus the
// labeling configuration — scheme selection and the paper's optimizations,
// mirroring primelabel.Config.
type LoadRequest struct {
	// XML is the document source.
	XML string `json:"xml"`
	// Scheme is the labeling scheme: prime (default), prime-bottomup,
	// prime-decomposed, interval, xrel, prefix-1, prefix-2, dewey, float,
	// compact.
	Scheme string `json:"scheme,omitempty"`
	// TrackOrder builds the prime scheme's SC table so the document can
	// answer order queries (before, the ordered XPath axes).
	TrackOrder bool `json:"track_order,omitempty"`
	// ReservedPrimes is the prime scheme's Opt1 pool (-1 = auto).
	ReservedPrimes int `json:"reserved_primes,omitempty"`
	// PowerOfTwoLeaves is the prime scheme's Opt2.
	PowerOfTwoLeaves bool `json:"power_of_two_leaves,omitempty"`
	// Power2Threshold caps Opt2 exponents (0 = 16).
	Power2Threshold int `json:"power2_threshold,omitempty"`
	// SCChunk is the number of nodes per SC record (0 = 5).
	SCChunk int `json:"sc_chunk,omitempty"`
	// OrderSpacing spaces order numbers apart so mid-sibling inserts touch
	// one SC record (0 or 1 = the paper's dense numbering).
	OrderSpacing int `json:"order_spacing,omitempty"`
	// RecyclePrimes reuses the primes of deleted nodes.
	RecyclePrimes bool `json:"recycle_primes,omitempty"`
	// OrderPreserving keeps prefix-scheme sibling codes in document order.
	OrderPreserving bool `json:"order_preserving,omitempty"`
	// Planner selects the structural-join strategy: "extent" (default) picks
	// a physical operator per step from the table's document-order columns,
	// "stacktree" forces label-probe stack merges on descendant steps, and
	// "nestedloop" forces pairwise label-probe joins everywhere.
	Planner string `json:"planner,omitempty"`
}

// DocInfo describes one hosted document.
type DocInfo struct {
	Name         string `json:"name"`
	Scheme       string `json:"scheme"`
	Planner      string `json:"planner"`
	Elements     int    `json:"elements"`
	MaxLabelBits int    `json:"max_label_bits"`
	// Generation counts structural updates applied since load. Node ids are
	// document-order ordinals and are only stable within one generation.
	Generation uint64 `json:"generation"`
	// Relabeled is the cumulative relabel count over all updates — the
	// paper's headline cost metric, observed online.
	Relabeled uint64 `json:"relabeled"`
	// Durable reports whether updates to this document are journaled to the
	// server's data directory and will survive a restart. False when the
	// server runs without -data-dir or the scheme has no persistence codec
	// (prime-bottomup, prime-decomposed).
	Durable bool `json:"durable"`
	// Frozen reports that the document currently serves reads from a
	// compact fixed-width overlay built by the adaptive freeze policy (or
	// an explicit freeze). The scheme and label fields above still describe
	// the base labeling, which remains the source of truth; the next write
	// thaws the document transparently.
	Frozen bool `json:"frozen,omitempty"`
	// FrozenMaxLabelBits is the compact overlay's widest label in bits
	// (always at most 128). Only meaningful when Frozen is true.
	FrozenMaxLabelBits int `json:"frozen_max_label_bits,omitempty"`
	// Replica reports that this server hosts the document as a read
	// replica: its state arrives over the replication stream and local
	// writes are rejected until promotion.
	Replica bool `json:"replica,omitempty"`
	// ReplicaLagGenerations is the primary's generation minus the locally
	// applied one, as of the follower's last heartbeat. Only meaningful
	// when Replica is true.
	ReplicaLagGenerations uint64 `json:"replica_lag_generations,omitempty"`
}

// Query modes (QueryRequest.Mode).
const (
	// QueryModeNodes (the empty string) returns the full node list.
	QueryModeNodes = ""
	// QueryModeCount returns only the result count: the server never
	// materializes node refs (no paths, labels, or text are built).
	QueryModeCount = "count"
	// QueryModeExists returns as soon as the result is known (non-)empty;
	// like count, nothing is materialized.
	QueryModeExists = "exists"
)

// QueryRequest evaluates an XPath-subset expression against a document.
type QueryRequest struct {
	XPath string `json:"xpath"`
	// Mode selects the terminal: one of the QueryMode* constants. The
	// count and exists modes skip node materialization entirely — the
	// response carries Count (and Exists) with no Nodes.
	Mode string `json:"mode,omitempty"`
}

// NodeRef identifies one element in a query result. ID is the node's
// document-order ordinal (0 = root) in the generation the response reports;
// it is the handle relation and update requests use.
type NodeRef struct {
	ID    int    `json:"id"`
	Path  string `json:"path"`
	Label string `json:"label,omitempty"`
	Text  string `json:"text,omitempty"`
}

// QueryResponse is a query result set in document order.
type QueryResponse struct {
	Generation uint64    `json:"generation"`
	Count      int       `json:"count"`
	Cached     bool      `json:"cached"`
	Nodes      []NodeRef `json:"nodes,omitempty"`
	// Exists is set only in exists mode: whether the result set is
	// non-empty. Count and exists responses carry no Nodes.
	Exists *bool `json:"exists,omitempty"`
	// Explain is the execution profile, present only when the request asked
	// for it with ?explain=1. The profiled execution returns exactly the
	// nodes an unprofiled one would; only this field differs.
	Explain *QueryExplain `json:"explain,omitempty"`
}

// StreamHeader is the first NDJSON line of a streamed query response
// (POST /docs/{name}/query/stream): the result's generation and total count,
// sent before any node is materialized so clients can validate freshness
// and size the receive side up front.
type StreamHeader struct {
	Generation uint64 `json:"generation"`
	Count      int    `json:"count"`
	Cached     bool   `json:"cached"`
}

// StreamChunk is one subsequent NDJSON line of a streamed query response: a
// slice of the result set in document order. The final chunk has Done set
// (and carries the execution profile when the request asked for explain);
// it holds no nodes.
type StreamChunk struct {
	Nodes   []NodeRef     `json:"nodes,omitempty"`
	Done    bool          `json:"done,omitempty"`
	Explain *QueryExplain `json:"explain,omitempty"`
}

// QueryExplain is the structured profile of one query execution, answering
// the planner questions a per-request caller cannot otherwise see: which
// backend served the query, whether the cache answered it, how each location
// step narrowed the candidate set, what the ancestor-test fast path did, and
// where the time went.
type QueryExplain struct {
	// Shape is the query's normalized form (positional predicates masked as
	// [*]) — the key the query-stats registry aggregates under.
	Shape string `json:"shape"`
	// CacheHit reports the result came from the per-document query cache; no
	// steps were executed and the step/fastpath fields are absent.
	CacheHit bool `json:"cache_hit"`
	// Backend is the labeling that served the evaluation: the document's
	// scheme name (e.g. "prime"), or "frozen-compact" when the adaptive
	// freeze policy routed the query to the compact overlay.
	Backend string `json:"backend,omitempty"`
	// Parallel reports that at least one join fanned out across the worker
	// pool; Shards is the total shard count across fan-outs.
	Parallel bool `json:"parallel"`
	Shards   int  `json:"shards,omitempty"`
	// Candidates is the summed per-step candidate volume — the join input
	// rows the executor scanned.
	Candidates int `json:"candidates"`
	// MaxLabelBits is the widest label of the serving backend in bits: the
	// probe-cost currency ancestry-labeling schemes are compared by.
	MaxLabelBits int `json:"max_label_bits,omitempty"`
	// Steps profiles each executed location step in query order. Execution
	// short-circuits on an empty intermediate context, so this can be shorter
	// than the query.
	Steps []ExplainStep `json:"steps,omitempty"`
	// Fastpath reports the prime ancestor-test fast path's counter deltas
	// over this execution. Absent for non-prime backends. The counters are
	// registry-wide, so under concurrent load the deltas are approximate
	// (they may include probes from overlapping queries).
	Fastpath *ExplainFastpath `json:"fastpath,omitempty"`
	// Stages is the per-stage timing breakdown, drawn from the same request
	// trace /debug/traces records.
	Stages []ExplainStage `json:"stages,omitempty"`
	// Streamed reports the profile came from the streaming endpoint: nodes
	// were delivered in NDJSON chunks as they materialized, and the stages
	// include stream_first_byte and stream_write.
	Streamed bool `json:"streamed,omitempty"`
}

// ExplainStep is one location step's execution profile.
type ExplainStep struct {
	// Axis and Name restate the step (axis name plus tag test).
	Axis string `json:"axis"`
	Name string `json:"name"`
	// Pos is the positional predicate [n], 0 when absent; Filters is the
	// step's value-predicate count.
	Pos     int `json:"pos,omitempty"`
	Filters int `json:"filters,omitempty"`
	// Candidates is the tag-scan output after value filters; Pairs is the
	// join output before positional selection (0 for the document-context
	// first step); Emitted is the context handed to the next step.
	Candidates int `json:"candidates"`
	Pairs      int `json:"pairs"`
	Emitted    int `json:"emitted"`
	// Parallel reports the step's join fanned out, across Shards shards.
	Parallel bool `json:"parallel,omitempty"`
	Shards   int  `json:"shards,omitempty"`
	// JoinPlan is the physical operator the per-step planner chose: "scan"
	// for the document-context first step, then "nested-loop",
	// "extent-probe", "extent-merge", "extent-cover", "extent-range",
	// "extent-range-cover", "extent-sibling", "stack-merge", "order-scan",
	// or "sibling-index".
	JoinPlan string `json:"join_plan,omitempty"`
}

// ExplainFastpath is the ancestor-test fast path's counter deltas over one
// query: how many probes the prefilter rejected without touching big.Int
// arithmetic, and how the exact checks split between uint64 and big paths.
type ExplainFastpath struct {
	PrefilterRejects uint64 `json:"prefilter_rejects"`
	ExactU64         uint64 `json:"exact_u64"`
	ExactBig         uint64 `json:"exact_big"`
	ExactTrue        uint64 `json:"exact_true"`
}

// ExplainStage is one stage timing of a profiled query, mirroring the
// request trace's span record.
type ExplainStage struct {
	Stage      string  `json:"stage"`
	DurationMS float64 `json:"duration_ms"`
}

// Relation kinds.
const (
	RelAncestor = "ancestor"
	RelParent   = "parent"
	RelBefore   = "before"
)

// RelationRequest asks a label-only relationship question about two nodes,
// identified by their document-order ids.
type RelationRequest struct {
	// Kind is one of the Rel* constants.
	Kind string `json:"kind"`
	A    int    `json:"a"`
	B    int    `json:"b"`
	// Generation, when set, makes the request conditional: if the document
	// has moved on (ids may refer to different nodes), the server answers
	// 409 instead of silently resolving stale ids.
	Generation *uint64 `json:"generation,omitempty"`
}

// RelationResponse is the answer to a RelationRequest.
type RelationResponse struct {
	Generation uint64 `json:"generation"`
	Result     bool   `json:"result"`
}

// Update operations.
const (
	OpInsert = "insert"
	OpWrap   = "wrap"
	OpDelete = "delete"
)

// UpdateRequest applies one dynamic update.
type UpdateRequest struct {
	// Op is one of the Op* constants.
	Op string `json:"op"`
	// Parent and Index position an insert: the new element becomes the
	// Index-th element child (0-based) of the node with id Parent.
	Parent int `json:"parent,omitempty"`
	Index  int `json:"index,omitempty"`
	// Tag names the new element for insert and wrap.
	Tag string `json:"tag,omitempty"`
	// Target is the node to wrap or delete.
	Target int `json:"target,omitempty"`
	// Generation, when set, makes the update conditional (see
	// RelationRequest.Generation).
	Generation *uint64 `json:"generation,omitempty"`
}

// UpdateResponse reports the outcome of an update.
type UpdateResponse struct {
	// Generation is the document's generation after the update.
	Generation uint64 `json:"generation"`
	// Relabeled is how many labels were written by this update (including
	// the new node and any SC record updates) — the paper's cost metric.
	Relabeled int `json:"relabeled"`
	// Node is the affected node's id in the new generation: the inserted
	// element, the wrapper, or -1 for a delete.
	Node int `json:"node"`
}

// BatchUpdateRequest applies a sequence of dynamic updates in one request:
// one lock acquisition, one reindex, and — on a durable document — one
// journal record covering the whole batch, so the batch is atomic on disk
// (crash recovery replays whole batches, never a prefix of one). Ops are
// applied in order, each against the document state the previous op left:
// node ids in later ops must account for rows inserted or removed by
// earlier ones. The batch stops at the first failing op; earlier ops stay
// applied.
type BatchUpdateRequest struct {
	// Ops are the updates, applied in order. Per-op Generation pins are
	// rejected; use the batch-level pin below.
	Ops []UpdateRequest `json:"ops"`
	// Generation, when set, makes the batch conditional on the document
	// generation before the first op (see RelationRequest.Generation).
	Generation *uint64 `json:"generation,omitempty"`
}

// BatchOpResult reports the outcome of one op within a batch.
type BatchOpResult struct {
	// Relabeled is the op's own relabel count.
	Relabeled int `json:"relabeled"`
	// Node is the op's affected node id in the generation the batch
	// response reports (the final state): the inserted element, the
	// wrapper, or -1 for a delete or a failed op.
	Node int `json:"node"`
	// Error is the op's failure message (empty for a successful op). Only
	// the last attempted op of a batch can carry one.
	Error string `json:"error,omitempty"`
}

// BatchUpdateResponse reports the outcome of a batch update. The HTTP
// status is 200 whenever at least one op was applied, even if a later op
// failed — check Failed to detect a partially applied batch.
type BatchUpdateResponse struct {
	// Generation is the document's generation after the batch; it advances
	// by one per applied op, exactly as the same ops applied singly would.
	Generation uint64 `json:"generation"`
	// Relabeled is the total relabel count across applied ops.
	Relabeled int `json:"relabeled"`
	// Failed is the index of the op that stopped the batch, or -1 when
	// every op succeeded. Ops after Failed were not attempted.
	Failed int `json:"failed"`
	// Results holds one entry per attempted op, in request order.
	Results []BatchOpResult `json:"results"`
	// TraceID is the request's effective trace ID, echoed in the body so
	// batch callers can correlate the write with its journal append here and
	// its replica_apply on every follower without reading response headers.
	TraceID string `json:"trace_id,omitempty"`
}

// QueryStatsResponse is the GET /debug/querystats response: the server's
// pg_stat_statements-style registry of per-(document, shape) query
// statistics. Entries are sorted by total execution time, descending, so the
// most expensive shapes lead.
type QueryStatsResponse struct {
	// Shapes is the number of (doc, shape) entries currently tracked;
	// Capacity is the registry's LRU bound. When Shapes has reached Capacity,
	// recording a new shape evicts the least-recently-used one — Evictions
	// counts those.
	Shapes    int    `json:"shapes"`
	Capacity  int    `json:"capacity"`
	Evictions uint64 `json:"evictions"`
	// Entries holds the tracked shapes, filtered by the request's doc= and
	// limited by its k= parameter.
	Entries []QueryStatsEntry `json:"entries,omitempty"`
}

// QueryStatsEntry is one (document, query shape)'s aggregated statistics.
type QueryStatsEntry struct {
	Doc   string `json:"doc"`
	Shape string `json:"shape"`
	// Calls counts executions; Errors the failed ones. CacheHits counts
	// answers served from the query cache, FrozenServes answers evaluated on
	// the frozen compact overlay.
	Calls        uint64 `json:"calls"`
	Errors       uint64 `json:"errors,omitempty"`
	CacheHits    uint64 `json:"cache_hits"`
	FrozenServes uint64 `json:"frozen_serves"`
	// Latency aggregates in milliseconds: the mean, interpolated p50/p95,
	// and the slowest single call.
	TotalMS float64 `json:"total_ms"`
	MeanMS  float64 `json:"mean_ms"`
	P50MS   float64 `json:"p50_ms"`
	P95MS   float64 `json:"p95_ms"`
	MaxMS   float64 `json:"max_ms"`
	// MeanCandidates is the average candidate-row volume per uncached call —
	// the executor work a call of this shape implies.
	MeanCandidates float64 `json:"mean_candidates"`
	// SlowProfile is the execution profile captured at the entry's slowest
	// call, giving a slow shape an attached plan without the caller having
	// asked for explain (step details appear when that call ran ?explain=1).
	SlowProfile *QueryExplain `json:"slow_profile,omitempty"`
}

// Health is the /healthz response.
type Health struct {
	Status    string `json:"status"`
	Documents int    `json:"documents"`
	// Durable reports whether the server persists documents to a data
	// directory.
	Durable       bool    `json:"durable"`
	UptimeSeconds float64 `json:"uptime_seconds"`
	// ReadOnly reports that the server rejects writes because it is
	// following a primary; promotion clears it.
	ReadOnly bool `json:"read_only,omitempty"`
	// Replication describes the follower's replication state; nil on a
	// server that is not following a primary.
	Replication *ReplicationStatus `json:"replication,omitempty"`
	// Fences maps each hosted document to its fencing epoch. Cluster
	// managers compare these across nodes to detect a deposed primary that
	// resurrected with stale state (its epochs lag the promoted successor's).
	Fences map[string]uint64 `json:"fences,omitempty"`
}

// ReplicationStatus summarizes a follower's replication state, embedded in
// /healthz.
type ReplicationStatus struct {
	// Primary is the base URL of the primary this server follows.
	Primary string `json:"primary"`
	// Docs holds one entry per subscribed document, sorted by name.
	Docs []ReplicaDocStatus `json:"docs"`
}

// ReplicaDocStatus is one subscribed document's replication state on a
// follower.
type ReplicaDocStatus struct {
	// Doc is the document name.
	Doc string `json:"doc"`
	// State is the replicator's connection state: connecting, streaming, or
	// backoff.
	State string `json:"state"`
	// AppliedGeneration is the generation applied locally.
	AppliedGeneration uint64 `json:"applied_generation"`
	// PrimaryGeneration is the primary's generation as of the last
	// heartbeat or record.
	PrimaryGeneration uint64 `json:"primary_generation"`
	// LagGenerations is PrimaryGeneration − AppliedGeneration (0 when
	// caught up).
	LagGenerations uint64 `json:"lag_generations"`
	// LagSeconds is how long the replica has been behind: 0 when caught
	// up, otherwise seconds since it was last caught up (or since it
	// started, if never).
	LagSeconds float64 `json:"lag_seconds"`
	// Reconnects counts stream connection attempts after the first.
	Reconnects uint64 `json:"reconnects"`
	// AppliedRecords counts journal records applied since subscribe.
	AppliedRecords uint64 `json:"applied_records"`
	// SnapshotsInstalled counts snapshot images installed since subscribe.
	SnapshotsInstalled uint64 `json:"snapshots_installed"`
	// LastError is the most recent stream error ("" when none).
	LastError string `json:"last_error,omitempty"`
	// LastTraceID is the trace ID of the most recently applied record: the
	// originating write carried it end to end, so /debug/traces?id= on the
	// primary or on this follower returns that write's per-node slices.
	LastTraceID string `json:"last_trace_id,omitempty"`
	// FenceEpoch is the highest fencing epoch this replicator has observed
	// for the document (from heartbeats, applied records, and rebase
	// probes). A stream advertising a lower epoch is from a deposed primary
	// and is rejected.
	FenceEpoch uint64 `json:"fence_epoch,omitempty"`
	// Rebases counts divergence-point rejoins: reconnects that truncated
	// the local journal back to the fork and resumed streaming, instead of
	// dropping the copy and re-shipping a snapshot.
	Rebases uint64 `json:"rebases,omitempty"`
}

// Topology is the GET /topology response: any cluster member's view of the
// fabric — the consistent-hash ring parameters, each node's role and health,
// and per-document placement (owning primary, replicas, replication lag,
// fencing epoch). Clients bootstrap and refresh their routing from it
// instead of carrying static node lists.
type Topology struct {
	// Self is the answering node's advertised base URL.
	Self string `json:"self"`
	// Nodes lists every configured cluster member, sorted by URL.
	Nodes []TopologyNode `json:"nodes"`
	// Docs lists every document the answering node knows placement for,
	// sorted by name.
	Docs []TopologyDoc `json:"docs,omitempty"`
	// Pins are the per-document placement overrides (document → node URL)
	// that bypass the hash ring.
	Pins map[string]string `json:"pins,omitempty"`
	// VNodes is the ring's virtual-node count per member.
	VNodes int `json:"vnodes"`
	// FailoverAfterSeconds is how long a primary must stay unreachable
	// before its designated successor self-promotes (0 = failover disabled).
	FailoverAfterSeconds float64 `json:"failover_after_seconds,omitempty"`
}

// TopologyNode is one cluster member's state as observed by the answering
// node's health probes.
type TopologyNode struct {
	// URL is the member's advertised base URL.
	URL string `json:"url"`
	// Role is "primary" (accepts writes), "follower" (read-only, pulling a
	// replication stream), or "unreachable" (health probes failing).
	Role string `json:"role"`
	// Healthy reports the most recent health probe succeeded.
	Healthy bool `json:"healthy"`
	// Following is the base URL of the primary a follower pulls from
	// (empty for primaries and unreachable nodes).
	Following string `json:"following,omitempty"`
	// UnhealthySeconds is how long probes have been failing (0 when
	// healthy or never yet probed successfully).
	UnhealthySeconds float64 `json:"unhealthy_seconds,omitempty"`
}

// TopologyDoc is one document's placement and replication state.
type TopologyDoc struct {
	// Name is the document name.
	Name string `json:"name"`
	// Primary is the base URL of the node that owns writes for this
	// document (ring placement plus pin overrides).
	Primary string `json:"primary"`
	// Pinned reports the placement came from a pin override, not the ring.
	Pinned bool `json:"pinned,omitempty"`
	// FenceEpoch is the document's fencing epoch on its primary: bumped by
	// every promotion, journaled with every subsequent record, and used to
	// reject streams from deposed primaries.
	FenceEpoch uint64 `json:"fence_epoch,omitempty"`
	// Replicas lists the followers holding a copy, sorted by URL.
	Replicas []TopologyReplica `json:"replicas,omitempty"`
}

// TopologyReplica is one follower's replication state for one document.
type TopologyReplica struct {
	// URL is the follower's advertised base URL.
	URL string `json:"url"`
	// State is the replicator's connection state on that follower.
	State string `json:"state,omitempty"`
	// LagGenerations is the primary's generation minus the follower's
	// applied one, per the follower's own health report.
	LagGenerations uint64 `json:"lag_generations"`
}

// RedirectPayload is the JSON body of a 307 write redirect: the answering
// node is not the placement owner of the document and names the node that
// is. The Location header carries the same owner URL joined with the
// request path, so standard HTTP clients re-send the write there
// automatically; callers that do not follow redirects can read Owner here.
type RedirectPayload struct {
	// Error restates the condition in the standard error-envelope field.
	Error string `json:"error"`
	// Doc is the document whose placement was consulted.
	Doc string `json:"doc"`
	// Owner is the base URL of the node that owns writes for Doc.
	Owner string `json:"owner"`
}

// PromoteResponse reports the outcome of POST /promote.
type PromoteResponse struct {
	// Promoted is true when this call performed the promotion; false when
	// the server already accepted writes (the call is idempotent).
	Promoted bool `json:"promoted"`
	// Documents is the number of documents hosted at promotion time.
	Documents int `json:"documents"`
}

// Error is the JSON error envelope every non-2xx response carries.
type Error struct {
	Error string `json:"error"`
}
