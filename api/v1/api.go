// Package api (import path sigfile/api/v1) is the versioned wire schema
// of the sigfiled server: the request/response types, stable error
// codes, and binary framing shared by the server (internal/server), the
// Go client (sigfile/client), and the load generator (cmd/sigload).
//
// The schema is deliberately decoupled from the library's internal
// structs: adding a field to core.SearchStats does not change the wire
// format until this package maps it, and every sentinel error crossing
// the wire travels as a stable Code (codes.go) rather than a Go error
// string. Version negotiation is by URL prefix over HTTP (PathPrefix)
// and by a handshake byte on the binary protocol (binary.go); an
// incompatible change to either representation means a v2 package, not
// an edit here.
package api

import "fmt"

// Version identifies this wire schema generation.
const Version = "v1"

// PathPrefix is the HTTP route prefix every versioned endpoint lives
// under. Tenant-scoped endpoints follow PathPrefix + "/t/{tenant}/{op}".
const PathPrefix = "/" + Version

// The five set predicates of the paper's §2, as wire strings.
const (
	PredSuperset = "superset" // T ⊇ Q
	PredSubset   = "subset"   // T ⊆ Q
	PredOverlap  = "overlap"  // T ∩ Q ≠ ∅
	PredEquals   = "equals"   // T = Q
	PredContains = "contains" // q ∈ T
)

// Predicates lists every valid wire predicate string.
var Predicates = []string{PredSuperset, PredSubset, PredOverlap, PredEquals, PredContains}

// ValidPredicate reports whether p is one of the five wire predicates.
func ValidPredicate(p string) bool {
	for _, q := range Predicates {
		if p == q {
			return true
		}
	}
	return false
}

// TenantConfig describes one tenant database: which facilities index
// its sets and under what signature design. It is both the create-tenant
// request body and the server's persisted per-tenant configuration.
type TenantConfig struct {
	// Kinds lists the facilities to maintain on the tenant's set
	// attribute: "ssf", "bssf", "fssf", "nix". With several, the
	// cost-based planner picks per query. Empty means ["bssf"].
	Kinds []string `json:"kinds,omitempty"`
	// F and M are the signature design (width, bits per element) for the
	// signature-file kinds. Zero means the defaults (F=256, m=2).
	F int `json:"f,omitempty"`
	M int `json:"m,omitempty"`
	// LSM puts every facility on the log-structured write path
	// (WAL-backed memtable + immutable segments + compaction).
	LSM bool `json:"lsm,omitempty"`
	// LSMMemtableOps and LSMCompactAfter tune the LSM triggers; zero
	// keeps the library defaults.
	LSMMemtableOps  int `json:"lsm_memtable_ops,omitempty"`
	LSMCompactAfter int `json:"lsm_compact_after,omitempty"`
	// CheckpointSec overrides the server's default checkpoint interval
	// for this tenant; zero inherits the server default.
	CheckpointSec int `json:"checkpoint_sec,omitempty"`
	// Shards, when ≥ 2, hash-partitions every facility's OID space across
	// that many inner facilities with scatter-gather search (DESIGN.md
	// §16). 0 or 1 means unsharded.
	Shards int `json:"shards,omitempty"`
}

// CreateTenantRequest creates a tenant: POST {PathPrefix}/tenants.
type CreateTenantRequest struct {
	Name   string       `json:"name"`
	Config TenantConfig `json:"config"`
}

// TenantInfo describes one live tenant in list/health responses.
type TenantInfo struct {
	Name    string       `json:"name"`
	Objects int          `json:"objects"`
	Config  TenantConfig `json:"config"`
}

// TenantsResponse is GET {PathPrefix}/tenants.
type TenantsResponse struct {
	Tenants []TenantInfo `json:"tenants"`
}

// InsertRequest registers one object's set value with a tenant:
// POST {PathPrefix}/t/{tenant}/insert. The server assigns the OID.
type InsertRequest struct {
	Elems []string `json:"elems"`
	// DeadlineMS bounds the request on the server side (milliseconds
	// from receipt); 0 inherits the server default. The mapping onto
	// context cancellation is the same one searches use.
	DeadlineMS int64 `json:"deadline_ms,omitempty"`
}

// InsertResponse acknowledges a durable insert.
type InsertResponse struct {
	OID uint64 `json:"oid"`
}

// DeleteRequest removes one object: POST {PathPrefix}/t/{tenant}/delete.
type DeleteRequest struct {
	OID        uint64 `json:"oid"`
	DeadlineMS int64  `json:"deadline_ms,omitempty"`
}

// DeleteResponse acknowledges a durable delete.
type DeleteResponse struct{}

// SearchOptions selects a retrieval strategy for one search. The zero
// value lets the server's cost-based planner choose everything.
type SearchOptions struct {
	// Parallelism is accepted and ignored: every search runs on one
	// goroutine. The field stays so older clients decode and the binary
	// frame layout is unchanged.
	Parallelism int `json:"parallelism,omitempty"`
	// MaxProbeElements caps the probe on superset/contains searches (the
	// paper's §5.1.3 smart retrieval); 0 lets the planner pick.
	MaxProbeElements int `json:"max_probe_elements,omitempty"`
	// MaxZeroSlices caps the zero slices a BSSF subset search reads
	// (§5.2.2); 0 lets the planner pick.
	MaxZeroSlices int `json:"max_zero_slices,omitempty"`
}

// SearchRequest answers one set predicate against a tenant:
// POST {PathPrefix}/t/{tenant}/search.
type SearchRequest struct {
	// Pred is one of the Pred* wire strings.
	Pred string `json:"pred"`
	// Query is the query set Q.
	Query      []string       `json:"query"`
	Options    *SearchOptions `json:"options,omitempty"`
	DeadlineMS int64          `json:"deadline_ms,omitempty"`
}

// SearchStats decomposes a search's measured cost the way the paper's
// retrieval-cost formulas do. It mirrors the library's SearchStats but
// is a wire type: field set and names are frozen per schema version.
type SearchStats struct {
	QueryCardinality int   `json:"query_cardinality"`
	ProbedElements   int   `json:"probed_elements,omitempty"`
	SlicesRead       int   `json:"slices_read,omitempty"`
	IndexPages       int64 `json:"index_pages"`
	OIDPages         int64 `json:"oid_pages"`
	ObjectFetches    int64 `json:"object_fetches"`
	Candidates       int   `json:"candidates"`
	Results          int   `json:"results"`
	FalseDrops       int   `json:"false_drops"`
	TotalPages       int64 `json:"total_pages"`
}

// SearchResponse is the outcome of one search.
type SearchResponse struct {
	// OIDs are the qualifying objects in ascending order.
	OIDs []uint64 `json:"oids"`
	// Plan is the executed plan in EXPLAIN's one-line form.
	Plan string `json:"plan,omitempty"`
	// Stats is the page-access decomposition when an index drove the
	// query; nil for heap scans.
	Stats *SearchStats `json:"stats,omitempty"`
	// ElapsedUS is server-side wall time in microseconds.
	ElapsedUS int64 `json:"elapsed_us"`
}

// SearchItem is one search of a SearchMany batch.
type SearchItem struct {
	Pred  string   `json:"pred"`
	Query []string `json:"query"`
}

// SearchManyRequest answers a batch of searches in one round trip:
// POST {PathPrefix}/t/{tenant}/search_many. Options apply to every item.
type SearchManyRequest struct {
	Searches   []SearchItem   `json:"searches"`
	Options    *SearchOptions `json:"options,omitempty"`
	DeadlineMS int64          `json:"deadline_ms,omitempty"`
}

// SearchManyResponse carries one SearchResponse per request item, in
// request order.
type SearchManyResponse struct {
	Results []SearchResponse `json:"results"`
}

// ExplainRequest plans a search without executing it:
// POST {PathPrefix}/t/{tenant}/explain.
type ExplainRequest struct {
	Pred       string   `json:"pred"`
	Query      []string `json:"query"`
	DeadlineMS int64    `json:"deadline_ms,omitempty"`
}

// ExplainResponse is the planner's full cost table, as EXPLAIN renders
// it: every costed (facility, strategy) candidate and the reason the
// winner won.
type ExplainResponse struct {
	Text string `json:"text"`
}

// FacilityHealth is one facility's state in a health report.
type FacilityHealth struct {
	Kind    string `json:"kind"`
	Health  string `json:"health"` // "healthy" | "degraded" | "failed"
	Pages   int    `json:"pages"`
	Entries int    `json:"entries"`
}

// TenantHealth is one tenant's state in a health report.
type TenantHealth struct {
	Name       string           `json:"name"`
	Objects    int              `json:"objects"`
	QueueDepth int              `json:"queue_depth"`
	QueueCap   int              `json:"queue_cap"`
	Facilities []FacilityHealth `json:"facilities"`
}

// HealthResponse is GET {PathPrefix}/health: overall status plus the
// per-tenant, per-facility degradation ladder.
type HealthResponse struct {
	// Status is "ok" while every facility of every tenant is healthy,
	// "degraded" otherwise.
	Status  string         `json:"status"`
	Version string         `json:"version"`
	Tenants []TenantHealth `json:"tenants"`
}

// FacilityStats is one facility's catalog snapshot in a stats report:
// the numbers the server's cost-based planner feeds the paper's
// retrieval-cost formulas, frozen as a wire type. It mirrors the
// library's FacilityStats the way SearchStats mirrors its namesake.
type FacilityStats struct {
	// Kind is the facility name: "SSF", "BSSF", "FSSF" or "NIX".
	Kind string `json:"kind"`
	// Count is the number of live indexed objects (the cost model's N).
	Count int `json:"count"`
	// AvgSetCard is the measured mean set cardinality D_t; 0 when the
	// insert history predates the process.
	AvgSetCard float64 `json:"avg_set_card,omitempty"`
	// F and M are the signature design; both 0 for NIX.
	F int `json:"f,omitempty"`
	M int `json:"m,omitempty"`
	// Frames is the FSSF frame count K; 0 otherwise.
	Frames int `json:"frames,omitempty"`
	// DistinctElems is a lower bound on the element-domain cardinality V
	// (exact for NIX); 0 elsewhere.
	DistinctElems int `json:"distinct_elems,omitempty"`
	// LookupPages is the per-lookup page cost rc = h + 1 for NIX.
	LookupPages int `json:"lookup_pages,omitempty"`
	// StoragePages is the facility's storage cost SC in pages.
	StoragePages int `json:"storage_pages"`
	// Health is the facility's aggregate degradation state:
	// "healthy" | "degraded" | "failed". For a sharded facility it is the
	// worst shard's state.
	Health string `json:"health"`
	// Shards is the partition count K of a sharded facility; 0 when
	// unsharded.
	Shards int `json:"shards,omitempty"`
	// ShardHealth lists every shard's own health state in shard order;
	// empty when unsharded.
	ShardHealth []string `json:"shard_health,omitempty"`
	// SegmentCounts holds the live-entry count of each sealed LSM segment
	// (concatenated across shards when sharded); empty off the LSM path.
	SegmentCounts []int `json:"segment_counts,omitempty"`
	// MemtableCount is the number of live LSM memtable entries.
	MemtableCount int `json:"memtable_count,omitempty"`
}

// StatsResponse is GET {PathPrefix}/tenants/{tenant}/stats: the catalog
// snapshot of every facility the tenant maintains.
type StatsResponse struct {
	Tenant     string          `json:"tenant"`
	Objects    int             `json:"objects"`
	Facilities []FacilityStats `json:"facilities"`
}

// ErrorBody is the JSON error envelope every failed HTTP request
// carries: {"error": {"code": "...", "message": "..."}}.
type ErrorBody struct {
	Error *Error `json:"error"`
}

// Error is a wire-level error: a stable Code plus a human-readable
// message. It implements error, and Unwrap exposes the library sentinel
// the code maps from, so client code can keep using
// errors.Is(err, sigfile.ErrDegraded) across the network boundary.
type Error struct {
	Code    Code   `json:"code"`
	Message string `json:"message"`
}

// Error implements the error interface.
func (e *Error) Error() string {
	return fmt.Sprintf("%s: %s", e.Code, e.Message)
}

// Unwrap returns the sentinel error the code maps back to (nil for
// server-only codes), so errors.Is sees through the wire round trip.
func (e *Error) Unwrap() error { return e.Code.Sentinel() }
