// Package sigfile is a production-quality Go implementation of signature
// files as set access facilities for object-oriented databases,
// reproducing "Evaluation of Signature Files as Set Access Facilities in
// OODBs" (Ishikawa, Kitagawa, Ohbo; SIGMOD 1993).
//
// The library provides four facilities for indexing a set-valued
// attribute, all behind the AccessMethod interface:
//
//   - SSF — the sequential signature file: superimposed-coding set
//     signatures stored row-wise plus an OID file. Cheapest to update,
//     slowest to search (full scan).
//   - BSSF — the bit-sliced signature file: the signature matrix stored
//     column-wise, one file per bit position, so a query touches only the
//     slices it needs. The paper's recommended facility.
//   - FSSF — the frame-sliced signature file: the signature split into K
//     frames stored per-frame, a middle ground between SSF's cheap
//     updates and BSSF's selective reads.
//   - NIX — the nested index: a B⁺-tree from set element to the OIDs of
//     objects containing it, the classical comparison baseline.
//
// All four answer the set predicates of the paper's §2: T ⊇ Q
// (has-subset), T ⊆ Q (in-subset), overlap, set equality and membership —
// with no false dismissals, resolving signature false drops against the
// stored objects through a SetSource.
//
// # Quick start
//
//	sets := sigfile.MapSource{
//	    1: {"Baseball", "Fishing"},
//	    2: {"Baseball", "Golf", "Fishing"},
//	    3: {"Tennis"},
//	}
//	scheme, _ := sigfile.NewScheme(250, 2) // F=250 bits, m=2 bits/element
//	idx, _ := sigfile.Open(sigfile.Config{Kind: sigfile.KindBSSF, Scheme: scheme, Source: sets})
//	for oid, set := range sets {
//	    idx.Insert(oid, set)
//	}
//	res, _ := idx.Search(sigfile.Superset, []string{"Baseball", "Fishing"})
//	// res.OIDs == [1, 2]; res.Stats decomposes the page-access cost.
//
// Beyond the facilities themselves the module ships the paper's full
// analytical cost model (CostModel), the mini OODB and SQL-like query
// language of the paper's examples (cmd/sigdb, internal/query), and a
// harness regenerating every table and figure of the evaluation
// (cmd/sigbench, bench_test.go).
package sigfile

import (
	"context"
	"io"

	"sigfile/internal/core"
	"sigfile/internal/costmodel"
	"sigfile/internal/obs"
	"sigfile/internal/pagestore"
	"sigfile/internal/signature"
)

// Re-exported core types. See the respective internal packages for the
// full method sets.
type (
	// AccessMethod is a set access facility over one indexed set-valued
	// attribute: Insert, Delete, Search, StoragePages, Count.
	AccessMethod = core.AccessMethod
	// SSF is the sequential signature file.
	SSF = core.SSF
	// BSSF is the bit-sliced signature file.
	BSSF = core.BSSF
	// NIX is the nested index.
	NIX = core.NIX
	// FSSF is the frame-sliced signature file (extension: the third
	// classical organization, between SSF and BSSF).
	FSSF = core.FSSF
	// LSM is any facility kind on the log-structured write path:
	// WAL-backed memtable, immutable segments, background compaction
	// (DESIGN.md §13). Build one with Open plus WithLSM.
	LSM = core.LSM
	// FrameScheme is the frame-partitioned superimposed-coding
	// configuration FSSF uses.
	FrameScheme = signature.FrameScheme
	// Result is a search outcome: qualifying OIDs plus measured cost.
	Result = core.Result
	// SearchStats decomposes a search's page accesses the way the
	// paper's RC formulas do.
	SearchStats = core.SearchStats
	// SearchOptions is the resolved form of a SearchOption list — the
	// strategy struct the facilities consume after folding the option
	// functions. Exported for inspection; configure searches through the
	// WithX option functions.
	SearchOptions = core.SearchOptions
	// ShardedFacility hash-partitions the OID space across K inner
	// facilities and searches them in shard order (DESIGN.md §16).
	// Build one with Open plus WithShards.
	ShardedFacility = core.ShardedFacility
	// SearchRequest is one search of a batch passed to SearchMany.
	SearchRequest = core.SearchRequest
	// SetSource resolves an OID to its stored set during false-drop
	// resolution.
	SetSource = core.SetSource
	// MapSource is an in-memory SetSource.
	MapSource = core.MapSource
	// Scheme is a superimposed-coding configuration (width F, weight m).
	Scheme = signature.Scheme
	// Predicate is a set-comparison operator.
	Predicate = signature.Predicate
	// Store provides named page files (in memory or on disk) to a
	// facility.
	Store = pagestore.Store
	// Stats counts physical page accesses of one file.
	Stats = pagestore.Stats
	// CostModel evaluates the paper's analytical formulas; construct
	// with PaperModel or a costmodel literal.
	CostModel = costmodel.Params
	// Kind selects a facility for the unified Open constructor.
	Kind = core.Kind
	// Config describes the facility Open should build: Kind plus the
	// scheme, set source and (optionally) store and frame split.
	Config = core.Config
	// OpenOption tweaks a Config functionally; see WithStore, WithPrefix,
	// WithFrames, WithWorstCaseInserts.
	OpenOption = core.OpenOption
	// FacilityStats is a facility's self-description — object count,
	// measured mean set cardinality, signature design, tree height — the
	// statistics the cost-based planner feeds the analytical formulas.
	FacilityStats = core.FacilityStats
	// Describer is implemented by every built-in facility: Describe
	// returns its FacilityStats snapshot.
	Describer = core.Describer
	// Entry is one (OID, set) pair for batch loading.
	Entry = core.Entry
	// BatchInserter is satisfied by every facility; InsertBatch amortizes
	// page writes across a bulk load (the insertion-cost improvement the
	// paper's §6 anticipates, taken to its limit).
	BatchInserter = core.BatchInserter
	// SearchOption configures one Search/SearchContext call; see
	// WithSmartRetrieval, WithMaxProbeElements, WithTrace.
	SearchOption = core.SearchOption
	// Trace is one search's phase decomposition: index scan → OID map →
	// false-drop resolution, with page counts summing exactly to the
	// search's SearchStats.
	Trace = obs.Trace
	// TraceSink receives completed traces (must be concurrency-safe).
	TraceSink = obs.TraceSink
	// TraceCollector is a TraceSink retaining every emitted trace.
	TraceCollector = obs.Collector
	// Drift is one measured-vs-model retrieval-cost comparison.
	Drift = obs.Drift
	// DriftChecker compares measured page accesses against the analytical
	// cost model and flags divergence beyond a tolerance factor.
	DriftChecker = obs.DriftChecker
	// HealthState is a facility's degradation state: Healthy, Degraded
	// (read-only after a terminal storage fault) or Failed.
	HealthState = core.HealthState
	// HealthReporter is implemented by every built-in facility: Health
	// returns its current HealthState.
	HealthReporter = core.HealthReporter
	// Repairer resets a facility's health after the operator repaired (or
	// rebuilt) the underlying storage.
	Repairer = core.Repairer
	// RetryPolicy bounds the transient-fault retry loop of a RetryStore:
	// attempt budget, exponential backoff base/cap, jitter.
	RetryPolicy = pagestore.RetryPolicy
	// ScrubReport summarizes one background scrub pass: pages verified,
	// corruption found, repaired from the log, quarantined, released.
	ScrubReport = pagestore.ScrubReport
	// FaultStore wraps a Store for failure injection: armed counters,
	// seeded probabilistic transient schedules, persistent read/write
	// fault modes. Test tooling, usable for soak tests of client code.
	FaultStore = pagestore.FaultStore
	// TransientFaults configures a FaultStore's seeded probabilistic
	// schedule (per-operation fault probabilities and the errno mix).
	TransientFaults = pagestore.TransientFaults
	// DurableStore is the crash-safe store OpenDurableStore returns; it
	// adds Commit/Checkpoint, Scrub/StartScrubber and Quarantined to
	// Store.
	DurableStore = pagestore.DurableStore
)

// Sentinel errors, matchable with errors.Is through every wrapping layer.
var (
	// ErrWidthMismatch reports a signature whose width differs from the
	// scheme's F (e.g. reopening a facility under a different scheme).
	ErrWidthMismatch = signature.ErrWidthMismatch
	// ErrInvalidPredicate reports a Predicate value outside the five
	// operators of the paper's §2.
	ErrInvalidPredicate = signature.ErrInvalidPredicate
	// ErrClosed reports an operation on a closed page file.
	ErrClosed = pagestore.ErrClosed
	// ErrDegraded reports a write rejected by a degraded (read-only)
	// facility; searches keep serving. Repair with MarkRepaired.
	ErrDegraded = core.ErrDegraded
	// ErrFailed reports any operation on a failed facility.
	ErrFailed = core.ErrFailed
	// ErrChecksum reports a page whose on-disk checksum did not match —
	// detected corruption, never served to the caller.
	ErrChecksum = pagestore.ErrChecksum
	// ErrQuarantined reports a read of a corrupt page that could not be
	// repaired from the write-ahead log; a committed rewrite releases it.
	ErrQuarantined = pagestore.ErrQuarantined
	// ErrRetryExhausted reports a transient fault that persisted through
	// the whole retry budget; classified terminal.
	ErrRetryExhausted = pagestore.ErrRetryExhausted
)

// Facility health states, on a ladder that only descends until repair.
const (
	Healthy  = core.Healthy
	Degraded = core.Degraded
	Failed   = core.Failed
)

// HealthOf returns am's degradation state; access methods that do not
// track health read as Healthy.
func HealthOf(am AccessMethod) HealthState { return core.HealthOf(am) }

// DefaultRetryPolicy is the RetryPolicy NewRetryStore applies when given
// a zero policy: a small bounded exponential backoff with jitter.
var DefaultRetryPolicy = pagestore.DefaultRetryPolicy

// NewRetryStore wraps a store so every page operation retries
// transient faults (EIO, EINTR, short writes, ...) under pol before
// giving up with ErrRetryExhausted. Terminal faults (ENOSPC, corruption)
// are returned immediately.
func NewRetryStore(inner Store, pol RetryPolicy) Store {
	return pagestore.NewRetryStore(inner, pol)
}

// NewFaultStore wraps a store with the failure-injection device the
// resilience test suite uses: arm per-file fault counters, seed a
// probabilistic transient schedule, or fail all reads/writes
// persistently, then Heal.
func NewFaultStore(inner Store) *FaultStore { return pagestore.NewFaultStore(inner) }

// The facility kinds Open constructs.
const (
	KindSSF  = core.KindSSF
	KindBSSF = core.KindBSSF
	KindNIX  = core.KindNIX
	KindFSSF = core.KindFSSF
)

// The set predicates of the paper's §2.
const (
	// Superset is T ⊇ Q: targets containing every query element.
	Superset = signature.Superset
	// Subset is T ⊆ Q: targets contained in the query set.
	Subset = signature.Subset
	// Overlap is T ∩ Q ≠ ∅.
	Overlap = signature.Overlap
	// Equals is T = Q.
	Equals = signature.Equals
	// Contains is membership: q ∈ T.
	Contains = signature.Contains
)

// NewScheme returns a superimposed-coding scheme of f bits with m bits
// per element signature.
func NewScheme(f, m int) (*Scheme, error) { return signature.New(f, m) }

// OptimalM returns m_opt = F·ln2/D_t, the element-signature weight
// minimizing the T ⊇ Q false-drop probability for target sets of
// cardinality dt (paper eq. 3). Note §5's finding: for set access a much
// smaller m (2–3) usually yields better total retrieval cost.
func OptimalM(f int, dt float64) int { return signature.OptimalMInt(f, dt) }

// Open creates (or reopens) a set access facility from a Config — the
// unified construction entry point:
//
//	idx, err := sigfile.Open(sigfile.Config{
//	    Kind:   sigfile.KindBSSF,
//	    Scheme: scheme,
//	    Source: sets,
//	}, sigfile.WithStore(store))
//
// Scheme is required for the signature-file kinds (for KindFSSF the
// frame split is derived from it unless a FrameScheme or frame count is
// given) and ignored for KindNIX. A nil store keeps the facility in
// memory.
func Open(cfg Config, opts ...OpenOption) (AccessMethod, error) {
	return core.Open(cfg, opts...)
}

// WithStore directs the facility's files to store.
func WithStore(store Store) OpenOption { return core.WithStore(store) }

// WithPrefix namespaces the facility's files inside its store, so
// several facilities can share one.
func WithPrefix(prefix string) OpenOption { return core.WithPrefix(prefix) }

// WithFrames sets the FSSF frame count used when deriving the frame
// split from a flat Scheme; the count must divide F.
func WithFrames(k int) OpenOption { return core.WithFrames(k) }

// WithWorstCaseInserts makes BSSF insertion touch all F slice files —
// the paper's UC_I = F+1 accounting — instead of only the set bits.
func WithWorstCaseInserts() OpenOption { return core.WithWorstCaseInserts() }

// WithLSM puts the facility on the log-structured write path: inserts
// and deletes append to a WAL-backed memtable that seals into immutable
// segments, with compaction merging segments in the background of the
// caller's writes. Deletes become O(1) tombstone appends and insert
// page writes amortize below the paper's F+1 wall (DESIGN.md §13).
func WithLSM() OpenOption { return core.WithLSM() }

// WithLSMMemtableSize sets how many memtable operations accumulate
// before a flush seals them into a segment (default 256). Implies
// WithLSM.
func WithLSMMemtableSize(ops int) OpenOption { return core.WithLSMMemtableSize(ops) }

// WithLSMCompactAfter sets the sealed-segment count that triggers a
// compaction (default 4). Implies WithLSM.
func WithLSMCompactAfter(n int) OpenOption { return core.WithLSMCompactAfter(n) }

// WithShards hash-partitions the OID space across k inner facilities,
// each a full instance of the configured kind under its own store
// prefix, WAL and health ladder. Writes route to the owning shard;
// searches visit every shard in order and merge deterministically, so
// results are byte-identical at any k (DESIGN.md §16). k ≤ 1 means
// unsharded. Composes with WithLSM: each shard runs its own LSM.
func WithShards(k int) OpenOption { return core.WithShards(k) }

// InsertAll loads entries into a facility, using its batch path (page
// writes amortized across the batch) when it implements BatchInserter
// and falling back to one-at-a-time inserts otherwise.
func InsertAll(am AccessMethod, entries []Entry) error { return core.InsertAll(am, entries) }

// NewFrameScheme returns a frame-sliced coding scheme: k frames of s
// bits (total width F = k·s) with m bits per element signature.
func NewFrameScheme(k, s, m int) (*FrameScheme, error) {
	return signature.NewFrameScheme(k, s, m)
}

// SearchMany answers a batch of searches against one facility, one after
// another on the calling goroutine. Result i corresponds to request i;
// failed slots are nil and their errors are joined. The built-in
// facilities are safe for concurrent searches, so callers wanting
// throughput run several SearchMany or Search calls concurrently; every
// Result is identical to that of a single Search call.
func SearchMany(am AccessMethod, reqs []SearchRequest) ([]*Result, error) {
	return core.SearchMany(am, reqs)
}

// SearchManyContext is SearchMany with cancellation: when ctx fires, the
// running search stops at its next page access, unstarted slots stay nil
// and the joined error satisfies errors.Is(err, ctx.Err()).
func SearchManyContext(ctx context.Context, am AccessMethod, reqs []SearchRequest) ([]*Result, error) {
	return core.SearchManyContext(ctx, am, reqs)
}

// Search options for AccessMethod.Search and SearchContext. Each returns
// a SearchOption; they are the only way to configure a search.

// WithSmartRetrieval lets the facility pick its own probe caps — the
// paper's smart object retrieval (§5.1.3, §5.2.2) without hand-tuned
// constants. Explicit WithMaxProbeElements/WithMaxZeroSlices values take
// precedence; SSF ignores the option (its scan cost is fixed).
func WithSmartRetrieval() SearchOption { return core.WithSmartRetrieval() }

// WithMaxProbeElements caps how many query elements form the probe on
// T ⊇ Q searches (the paper's §5.1.3 smart retrieval). Zero = all.
func WithMaxProbeElements(k int) SearchOption { return core.WithMaxProbeElements(k) }

// WithMaxZeroSlices caps how many zero-position bit slices a BSSF T ⊆ Q
// search reads (§5.2.2). Zero = exhaustive.
func WithMaxZeroSlices(z int) SearchOption { return core.WithMaxZeroSlices(z) }

// WithTrace emits the search's phase trace to sink; it overrides any sink
// riding the context (ContextWithTraceSink).
func WithTrace(sink TraceSink) SearchOption { return core.WithTrace(sink) }

// ContextWithTraceSink returns a context carrying a trace sink: every
// SearchContext under it emits its phase trace there, including searches
// the query engine drives on the caller's behalf.
func ContextWithTraceSink(ctx context.Context, sink TraceSink) context.Context {
	return obs.ContextWithSink(ctx, sink)
}

// NewDriftChecker returns a cost-model drift checker against model with
// the given multiplicative tolerance factor (≤ 0 selects the default,
// 2×). Record measured mean page accesses per (facility, predicate, Dq)
// point; Report writes the verdict table.
func NewDriftChecker(model CostModel, factor float64) *DriftChecker {
	return obs.NewDriftChecker(model, factor)
}

// WriteMetricsJSON dumps the process metrics registry — every sigfile_*
// counter, gauge and histogram — as a flat JSON object.
func WriteMetricsJSON(w io.Writer) error { return obs.Default().WriteJSON(w) }

// WriteMetricsPrometheus dumps the process metrics registry in Prometheus
// text exposition format.
func WriteMetricsPrometheus(w io.Writer) error { return obs.Default().WritePrometheus(w) }

// NewMemStore returns an in-memory page store.
func NewMemStore() Store { return pagestore.NewMemStore() }

// NewDiskStore returns a page store writing files under dir.
func NewDiskStore(dir string) (Store, error) { return pagestore.NewDiskStore(dir) }

// OpenDurableStore returns a crash-safe page store under dir: page writes
// are buffered until Commit, which logs them to a shared write-ahead log
// before applying, and every on-disk page carries a checksum verified on
// read. Opening the store replays any committed-but-unapplied log tail,
// so a facility survives a crash at any instant in exactly its last
// committed state. The returned store is a *DurableStore: beyond Store
// it carries Commit/Checkpoint, io.Closer, and Scrub/StartScrubber
// (checksum verification with WAL repair and quarantine).
func OpenDurableStore(dir string) (*DurableStore, error) { return pagestore.OpenDurableStore(dir) }

// PaperModel returns the analytical cost model instantiated with the
// paper's Table 2 constants (N=32000, P=4096, V=13000) for target
// cardinality dt and signature design (f, m).
func PaperModel(dt float64, f int, m float64) CostModel {
	return costmodel.Paper(dt, f, m)
}

// FalseDropSuperset returns the T ⊇ Q false-drop probability of a design
// (paper eq. 2).
func FalseDropSuperset(f, m int, dt, dq float64) float64 {
	return signature.FalseDropSuperset(float64(f), float64(m), dt, dq)
}

// FalseDropSubset returns the T ⊆ Q false-drop probability (paper eq. 6).
func FalseDropSubset(f, m int, dt, dq float64) float64 {
	return signature.FalseDropSubset(float64(f), float64(m), dt, dq)
}
