// Package core implements the paper's contribution: set access
// facilities for OODB queries with set predicates, behind one interface.
// The paper evaluates three, and a fourth organization fills in the
// design space between the first two:
//
//   - SSF, the sequential signature file (§4.1): set signatures stored
//     row-wise plus an OID file; retrieval scans the whole signature file.
//   - BSSF, the bit-sliced signature file (§4.2): one bit-slice file per
//     signature bit position; retrieval reads only the needed slices.
//   - NIX, the nested index (§4.3): a B⁺-tree from set element to the OIDs
//     of objects containing it.
//   - FSSF, the frame-sliced signature file (an extension; §3.1 leaves
//     the physical organization open): the signature split into frames,
//     one file per frame.
//
// Each is an index — a candidate generator plus its update logic — under
// the one search-and-update shell of shell.go, and composes with the LSM
// write path and with sharding, which are indexes over facilities. All
// four support the paper's two query types T ⊇ Q and T ⊆ Q as well as
// the overlap, equality and membership operators listed in §2, and the
// "smart object retrieval" strategies of §5.1.3 and §5.2.2. Every search
// reports its cost decomposed exactly as the paper's retrieval-cost
// formulas do: index pages + OID-file pages + object fetches.
package core

import (
	"context"
	"fmt"
	"slices"

	"sigfile/internal/signature"
)

// SetSource resolves an OID to the indexed set attribute of its object.
// Each call is assumed to cost one page access (the paper's P_s = P_u = 1);
// implementations over a real object store (oodb.SetSource) read exactly
// one page per call.
type SetSource interface {
	Set(oid uint64) ([]string, error)
}

// MapSource is an in-memory SetSource for tests and synthetic workloads.
type MapSource map[uint64][]string

// Set implements SetSource.
func (m MapSource) Set(oid uint64) ([]string, error) {
	s, ok := m[oid]
	if !ok {
		return nil, fmt.Errorf("core: OID %d not in source", oid)
	}
	return s, nil
}

// SearchStats decomposes the measured cost of one search the same way the
// paper's retrieval-cost formulas do, so measured and analytical values
// compare term by term.
type SearchStats struct {
	// QueryCardinality is D_q, the number of (distinct) query elements.
	QueryCardinality int
	// ProbedElements is how many query elements actually formed the probe
	// (smaller than QueryCardinality under the smart ⊇ strategy).
	ProbedElements int
	// SlicesRead is the number of bit-slice files read (BSSF only).
	SlicesRead int
	// IndexPages counts page reads in the index structure itself: the
	// signature file scan for SSF, the slice pages for BSSF, the B⁺-tree
	// probes for NIX.
	IndexPages int64
	// OIDPages counts OID-file pages read to map matching signature
	// positions to OIDs (the paper's LC_OID; zero for NIX).
	OIDPages int64
	// ObjectFetches counts object retrievals for drop resolution and
	// result materialization — one page each (P_s = P_u = 1).
	ObjectFetches int64
	// Candidates is the number of drops: objects whose signature or index
	// entry matched and so had to be fetched.
	Candidates int
	// Results is the number of actual drops (objects satisfying the
	// predicate).
	Results int
	// FalseDrops = Candidates − Results.
	FalseDrops int
}

// TotalPages is the paper's RC: all page accesses of the search.
func (s SearchStats) TotalPages() int64 {
	return s.IndexPages + s.OIDPages + s.ObjectFetches
}

// String renders the stats in the shape of the paper's cost formula.
func (s SearchStats) String() string {
	return fmt.Sprintf("RC=%d (index=%d oid=%d objects=%d) drops=%d actual=%d false=%d",
		s.TotalPages(), s.IndexPages, s.OIDPages, s.ObjectFetches,
		s.Candidates, s.Results, s.FalseDrops)
}

// Result is the outcome of a search: the qualifying OIDs in ascending
// order plus the measured cost.
type Result struct {
	OIDs  []uint64
	Stats SearchStats
}

// SearchOptions is the resolved form of a SearchOption list: the struct
// the facilities consume internally after Search/SearchContext fold their
// functional options (WithSmartRetrieval, WithTrace, ...) into one value.
// Callers configure searches exclusively through the option functions;
// this struct is exported so they can inspect the resolved strategy, not
// to be passed positionally.
type SearchOptions struct {
	// MaxProbeElements, when positive, limits how many query elements are
	// used to form the probe (the query signature for SSF/BSSF, the index
	// lookups for NIX) on Superset/Overlap/Contains searches. This is the
	// paper's smart object retrieval for T ⊇ Q (§5.1.3): with k elements
	// probed the filter is weaker but cheaper, and false-drop resolution
	// restores exactness. Zero means "use every element".
	MaxProbeElements int
	// MaxZeroSlices, when positive, limits how many zero-position bit
	// slices a BSSF Subset search reads — the paper's smart strategy for
	// T ⊆ Q (§5.2.2). Zero means "read all F − m_q zero slices". Other
	// access methods ignore it.
	MaxZeroSlices int
	// Smart asks the facility to derive its own probe caps — the paper's
	// smart object retrieval without hand-tuned constants. Explicit
	// MaxProbeElements/MaxZeroSlices values take precedence; SSF ignores
	// it. Set through WithSmartRetrieval.
	Smart bool
	// Trace, when non-nil, receives a per-phase trace of the search. Set
	// through WithTrace; a sink riding the context (obs.ContextWithSink)
	// is used when this is nil.
	Trace TraceSink
}

// AccessMethod is a set access facility over one indexed set-valued
// attribute. Implementations are SSF, BSSF, FSSF and NIX, and the LSM
// and ShardedFacility compositions of them.
type AccessMethod interface {
	// Name identifies the facility ("SSF", "BSSF", "FSSF", "NIX").
	Name() string
	// Insert registers an object's indexed set value. OIDs must be
	// nonzero and unique.
	Insert(oid uint64, elems []string) error
	// Delete removes an object. elems must be the object's indexed set
	// value (needed by NIX to locate postings; the signature files ignore
	// it and tombstone the OID file entry).
	Delete(oid uint64, elems []string) error
	// Search returns the OIDs of objects satisfying pred against query,
	// resolving false drops through the SetSource supplied at
	// construction. opts selects a retrieval strategy; none means the
	// default. It is equivalent to SearchContext with
	// context.Background().
	Search(pred signature.Predicate, query []string, opts ...SearchOption) (*Result, error)
	// SearchContext is Search with a context and functional options: the
	// search honors ctx cancellation/deadline before every page read and
	// candidate fetch (returning an error satisfying
	// errors.Is(err, ctx.Err()) without corrupting facility state), and a
	// trace sink — from WithTrace or obs.ContextWithSink — receives the
	// search's phase decomposition.
	SearchContext(ctx context.Context, pred signature.Predicate, query []string, opts ...SearchOption) (*Result, error)
	// StoragePages returns the number of pages the facility occupies
	// (the paper's SC).
	StoragePages() int
	// Count returns the number of live indexed objects.
	Count() int
}

// dedup returns query with duplicates removed, preserving order; the
// paper's D_q is a set cardinality.
func dedup(elems []string) []string {
	seen := make(map[string]struct{}, len(elems))
	out := make([]string, 0, len(elems))
	for _, e := range elems {
		if _, dup := seen[e]; dup {
			continue
		}
		seen[e] = struct{}{}
		out = append(out, e)
	}
	return out
}

// probeElements applies the smart-⊇ element cap to a deduplicated query.
func probeElements(query []string, opts SearchOptions, pred signature.Predicate) []string {
	k := opts.MaxProbeElements
	if k <= 0 || k >= len(query) {
		return query
	}
	switch pred {
	case signature.Superset, signature.Contains:
		// "form a query signature from only k arbitrary elements" — the
		// first k are as arbitrary as any.
		return query[:k]
	default:
		// For Subset/Overlap/Equals dropping elements would lose answers
		// (the probe must stay sound), so the cap is ignored.
		return query
	}
}

// verifyCandidates resolves each candidate OID against the compiled
// predicate, updating stats, and returns the qualifying OIDs in ascending
// order. It filters candidates in place — the shell owns the slice — by
// overwriting each rejected slot with the reserved OID 0 and compacting
// afterwards. Cancellation is checked before each fetch. On error the
// stats are unreliable and the caller must discard them, which also means
// a partial fetch count need not be reported.
func verifyCandidates(ctx context.Context, src SetSource, match *signature.Compiled, candidates []uint64, stats *SearchStats) ([]uint64, error) {
	for i, oid := range candidates {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		target, err := src.Set(oid)
		if err != nil {
			return nil, fmt.Errorf("core: resolve OID %d: %w", oid, err)
		}
		if !match.Match(target) {
			candidates[i] = 0
		}
	}
	stats.ObjectFetches += int64(len(candidates))
	stats.Candidates = len(candidates)
	results := candidates[:0]
	for _, oid := range candidates {
		if oid != 0 {
			results = append(results, oid)
		}
	}
	if results == nil {
		results = []uint64{} // Result.OIDs is never nil
	}
	stats.Results = len(results)
	stats.FalseDrops = stats.Candidates - stats.Results
	// Candidates arrive in storage order (signature-file position, or
	// segment and shard order); the API contract is ascending OIDs. NIX
	// candidates already are.
	if !slices.IsSorted(results) {
		slices.Sort(results)
	}
	return results, nil
}
