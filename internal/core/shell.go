package core

import (
	"context"
	"fmt"
	"sync"
	"time"

	"sigfile/internal/obs"
	"sigfile/internal/signature"
)

// This file is the one search-and-update shell every facility runs
// under. The paper prices all its facilities with the same three-step
// retrieval — filter to drops, map drops through the OID file, resolve
// false drops (RC = index + OID + object pages, §4–§5) — and only the
// first two steps differ between organizations. The shell owns
// everything that does not: the readers-writer lock, the health gate,
// the search metrics, option resolution, the trace, and the single
// false-drop resolution pass. What differs lives behind index.

// index is the kind-specific half of a facility: a candidate generator
// plus the update and catalog operations over its own files. An index
// never locks, gates, meters or verifies — the shell calls it with the
// lock held (shared for candidates, liveOIDs, describe and count;
// exclusive for insert, delete and insertBatch) and owns every
// cross-cutting concern, so index code cannot get them wrong.
type index interface {
	// candidates runs the index-scan and OID-map phases of a search —
	// everything up to (but not including) false-drop resolution — and
	// returns the candidate OIDs in a slice the shell owns: resolution
	// filters it in place. query is deduplicated and opts carries pinned
	// caps (never Smart). SlicesRead, IndexPages and OIDPages land in
	// stats; the two phases are emitted as spans on tr (nil-safe).
	candidates(ctx context.Context, pred signature.Predicate, query []string, opts SearchOptions, stats *SearchStats, tr *obs.Trace) ([]uint64, error)
	insert(oid uint64, elems []string) error
	delete(oid uint64, elems []string) error
	// insertBatch is insert for every entry in order, with page writes
	// deferred where the organization can amortize them. OIDs are nonzero.
	insertBatch(entries []Entry) error
	// liveOIDs enumerates every OID the index's files record.
	liveOIDs() ([]uint64, error)
	// describe fills the catalog snapshot; the shell adds the facility
	// name and health.
	describe() FacilityStats
	count() int
}

// subFacility is a facility serving inside a composite one — an LSM
// segment or a shard: the public surface plus the shell's unexported
// entry points. Everything Open returns satisfies it.
type subFacility interface {
	AccessMethod
	Describer
	BatchInserter
	HealthReporter
	// segmentCandidates is the candidate phases of a search under the
	// facility's own shared lock — ungated, unmetered, untraced and
	// unverified, because the outermost shell of the composition does
	// each of those exactly once for the whole logical search. opts must
	// carry the caps that shell pinned.
	segmentCandidates(ctx context.Context, pred signature.Predicate, query []string, opts SearchOptions, stats *SearchStats) ([]uint64, error)
	liveOIDs() ([]uint64, error)
	ladder() *healthTracker
}

// shell implements the whole AccessMethod surface (and Describer,
// BatchInserter, HealthReporter, Repairer) once, over an index. The
// exported facility types embed it.
type shell struct {
	// mu is the reader/writer contract: searches hold it shared, updates
	// exclusive.
	mu   sync.RWMutex
	kind Kind
	// m is the element weight the smart probe cap derives from.
	m       int
	src     SetSource
	idx     index
	health  *healthTracker
	metrics *facilityMetrics
}

func newShell(kind Kind, m int, src SetSource, idx index) *shell {
	return &shell{
		kind: kind, m: m, src: src, idx: idx,
		health:  newHealthTracker(kind.String()),
		metrics: newFacilityMetrics(kind.String()),
	}
}

// Name implements AccessMethod: the facility kind's name at every
// composition depth, so the planner's per-facility cost formulas and the
// metrics' facility label apply unchanged under LSM and sharding.
func (sh *shell) Name() string { return sh.kind.String() }

// Health implements HealthReporter.
func (sh *shell) Health() HealthState { return sh.health.get() }

// MarkRepaired implements Repairer, returning the facility to service
// after the storage fault is fixed (or the facility rebuilt).
func (sh *shell) MarkRepaired() { sh.health.reset() }

func (sh *shell) ladder() *healthTracker { return sh.health }

// Count implements AccessMethod.
func (sh *shell) Count() int {
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	return sh.idx.count()
}

// StoragePages implements AccessMethod (the paper's SC).
func (sh *shell) StoragePages() int { return sh.Describe().StoragePages }

// Describe implements Describer.
func (sh *shell) Describe() FacilityStats {
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	st := sh.idx.describe()
	st.Facility = sh.Name()
	st.Health = sh.health.get()
	return st
}

// Search implements AccessMethod: SearchContext with
// context.Background().
func (sh *shell) Search(pred signature.Predicate, query []string, opts ...SearchOption) (*Result, error) {
	return sh.SearchContext(context.Background(), pred, query, opts...)
}

// SearchContext implements AccessMethod: the paper's three retrieval
// steps. The index generates candidates (index scan, then OID mapping)
// and the one verification pass resolves false drops against the
// SetSource. Cancellation is honored before every page read and
// candidate fetch; the trace goes to the WithTrace/context sink. One logical
// search is one metrics observation and one trace however deeply the
// index composes other facilities, because those run through
// segmentCandidates.
func (sh *shell) SearchContext(ctx context.Context, pred signature.Predicate, query []string, opts ...SearchOption) (res *Result, err error) {
	// The one query table of the search: it validates pred, deduplicates
	// the query for the index and decides every candidate in the
	// resolution pass.
	match, err := signature.Compile(pred, query)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	query = match.Elems()
	if err := sh.health.gateRead(); err != nil {
		return nil, err
	}
	o := newSearchOptions(opts)
	start := time.Now()
	defer func() { sh.metrics.observe(start, res, err) }()
	defer func() { sh.health.noteRead(err) }()
	tr := obs.StartTrace(traceSink(ctx, o), sh.Name(), pred.String())
	defer func() { tr.Finish(err) }()
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	// Pin the smart caps here, from the whole facility's live count, so
	// every segment and shard below applies the same filter strength.
	o = smartCaps(sh.kind, sh.m, sh.idx.count(), o)
	stats := SearchStats{
		QueryCardinality: len(query),
		ProbedElements:   len(probeElements(query, o, pred)),
	}
	candidates, err := sh.idx.candidates(ctx, pred, query, o, &stats, tr)
	if err != nil {
		return nil, err
	}
	phase := tr.Begin()
	oids, err := verifyCandidates(ctx, sh.src, match, candidates, &stats)
	if err != nil {
		return nil, err
	}
	tr.End(obs.PhaseResolve, phase, stats.ObjectFetches)
	return &Result{OIDs: oids, Stats: stats}, nil
}

func (sh *shell) segmentCandidates(ctx context.Context, pred signature.Predicate, query []string, opts SearchOptions, stats *SearchStats) ([]uint64, error) {
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	return sh.idx.candidates(ctx, pred, query, opts, stats, nil)
}

func (sh *shell) liveOIDs() ([]uint64, error) {
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	return sh.idx.liveOIDs()
}

// update runs one mutation of the index. The health gate runs before the
// lock so a degraded facility rejects writes immediately, even while
// searches hold the lock shared; a terminal storage fault inside fn
// degrades the facility to read-only — a half-applied mutation may have
// left residue (stray slice bits, orphan postings) that a later write
// must not commit for a different object.
func (sh *shell) update(fn func() error) error {
	if err := sh.health.gateWrite(); err != nil {
		return err
	}
	if sh.health.shards != nil {
		// A sharded index keeps no state of its own: the shard a write
		// routes to locks, gates and notes it on its own ladder, so writes
		// to different shards never contend and a fault degrades only the
		// shard it hit.
		sh.mu.RLock()
		defer sh.mu.RUnlock()
		return fn()
	}
	sh.mu.Lock()
	defer sh.mu.Unlock()
	err := fn()
	sh.health.noteWrite(err)
	return err
}

// Insert implements AccessMethod. OIDs must be nonzero and unique.
func (sh *shell) Insert(oid uint64, elems []string) error {
	if oid == 0 {
		return fmt.Errorf("core: %s insert: OID 0 is reserved", sh.Name())
	}
	return sh.update(func() error { return sh.idx.insert(oid, elems) })
}

// Delete implements AccessMethod. elems must be the object's indexed set
// value (NIX locates postings by it; the other indexes ignore it).
func (sh *shell) Delete(oid uint64, elems []string) error {
	return sh.update(func() error { return sh.idx.delete(oid, elems) })
}

// InsertBatch implements BatchInserter. The whole batch is validated
// before any page is touched: a bad entry mid-batch must not leave pages
// half-written.
func (sh *shell) InsertBatch(entries []Entry) error {
	for _, e := range entries {
		if e.OID == 0 {
			return fmt.Errorf("core: %s batch: OID 0 is reserved", sh.Name())
		}
	}
	if len(entries) == 0 {
		return nil
	}
	return sh.update(func() error { return sh.idx.insertBatch(entries) })
}
