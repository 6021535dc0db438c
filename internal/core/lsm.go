package core

import (
	"context"
	"fmt"
	"time"

	"sigfile/internal/obs"
	"sigfile/internal/pagestore"
	"sigfile/internal/signature"
)

// LSM is the log-structured write path over any of the four facilities
// (DESIGN.md §13): a WAL-backed in-memory memtable absorbs inserts and
// deletes, flushing every memtableOps operations into a sealed on-disk
// segment (a full facility of the configured kind, served through a
// read-only store view); compaction merges the segments back into one.
// Deletes become O(1) tombstones instead of the legacy SC_OID/2 OID-file
// scan, and an insert costs one log-page write amortized against the
// batched segment build — the paper's Table 7 F+1 wall for BSSF falls.
//
// A search gathers candidates from every segment and the memtable and
// resolves them in one verification pass. The authoritative liveness map
// (where) assigns each live OID to exactly one location, so the
// per-segment candidate lists are disjoint and results are
// byte-identical to the legacy path.
//
// An LSM is safe for concurrent use under the same shell as the
// facilities it wraps: searches share the lock, updates (and flush and
// compaction, which run on the updating goroutine) exclude them.
type LSM struct {
	*shell
	ix *lsmIndex
}

// lsmIndex is the LSM's index: its candidate generator is "every
// segment's candidates, filtered by the where-map, plus the memtable's".
type lsmIndex struct {
	cfg Config

	store pagestore.Store
	mem   *lsmMemtable
	log   *lsmLog
	// gen is the current log generation; nextSeg the next segment ID.
	gen     uint64
	nextSeg uint64
	// segs holds the sealed segments, oldest first.
	segs []*lsmSegment
	// where maps every live OID to its single authoritative location.
	where map[uint64]lsmLoc

	// memtableOps triggers a flush once the memtable holds that many
	// operations (entries + tombstones); compactAfter triggers a
	// compaction once that many segments exist.
	memtableOps  int
	compactAfter int

	// pauses records the wall-clock duration of every compaction, the
	// stall a writer experienced (compaction runs on the writer's
	// goroutine under the exclusive lock).
	pauses []time.Duration

	// card accumulates inserted set cardinalities for describe.
	card cardStats

	manifest pagestore.File
}

// lsmLoc locates one live OID: the segment holding it (or lsmMemtableSeg
// for memtable residents) and whether its set value is empty — empty
// sets live only in segment metadata, never in the inner facility.
type lsmLoc struct {
	seg   uint64
	empty bool
}

// lsmMemtableSeg is the pseudo-segment ID of memtable residents.
const lsmMemtableSeg = ^uint64(0)

// Default flush/compaction triggers; see WithLSMMemtableSize and
// WithLSMCompactAfter.
const (
	defaultLSMMemtableOps  = 256
	defaultLSMCompactAfter = 4
)

// newLSM opens (or recovers) the log-structured form of cfg. store is
// the (already prefix-wrapped) store; nil gets a fresh MemStore.
func newLSM(cfg Config, store pagestore.Store) (*LSM, error) {
	if store == nil {
		store = pagestore.NewMemStore()
	}
	l := &lsmIndex{
		cfg:          cfg,
		store:        store,
		mem:          newLSMMemtable(),
		where:        make(map[uint64]lsmLoc),
		memtableOps:  cfg.LSMMemtableOps,
		compactAfter: cfg.LSMCompactAfter,
	}
	if l.memtableOps <= 0 {
		l.memtableOps = defaultLSMMemtableOps
	}
	if l.compactAfter <= 1 {
		l.compactAfter = defaultLSMCompactAfter
	}
	mf, err := store.Open(lsmManifestName)
	if err != nil {
		return nil, fmt.Errorf("core: lsm open manifest: %w", err)
	}
	l.manifest = mf
	man, err := readManifest(mf)
	if err != nil {
		return nil, err
	}
	if man != nil {
		l.gen = man.Gen
		l.nextSeg = man.NextSeg
		for _, meta := range man.Segments {
			seg, err := reopenSegment(&l.cfg, store, meta)
			if err != nil {
				return nil, err
			}
			l.segs = append(l.segs, seg)
			// Rebuild liveness oldest→newest: a segment's tombstones kill
			// older occurrences first, then its own content goes live (an
			// OID tombstoned and re-inserted in the same memtable has both
			// a tombstone and an entry; this order lets the entry win).
			for _, oid := range meta.Tombs {
				delete(l.where, oid)
			}
			live, err := seg.inner.liveOIDs()
			if err != nil {
				return nil, fmt.Errorf("core: lsm segment %d liveness: %w", meta.ID, err)
			}
			for _, oid := range live {
				l.where[oid] = lsmLoc{seg: meta.ID}
			}
			for _, oid := range meta.Empties {
				l.where[oid] = lsmLoc{seg: meta.ID, empty: true}
			}
		}
	}
	logF, err := store.Open(lsmLogName(l.gen))
	if err != nil {
		return nil, fmt.Errorf("core: lsm open log: %w", err)
	}
	if l.log, err = openLSMLog(logF); err != nil {
		return nil, err
	}
	if err := l.log.replay(func(op byte, oid uint64, elems []string) error {
		switch op {
		case lsmOpInsert:
			l.mem.insert(oid, elems)
			l.where[oid] = lsmLoc{seg: lsmMemtableSeg, empty: len(elems) == 0}
			l.card.add(len(elems))
		case lsmOpDelete:
			l.mem.delete(oid)
			delete(l.where, oid)
		}
		return nil
	}); err != nil {
		return nil, err
	}
	return &LSM{shell: newShell(cfg.Kind, cfg.weight(), cfg.Source, l), ix: l}, nil
}

// Segments returns the number of sealed segments (diagnostics/tests).
func (l *LSM) Segments() int {
	l.mu.RLock()
	defer l.mu.RUnlock()
	return len(l.ix.segs)
}

// MemtableOps returns the current memtable operation count
// (diagnostics/tests).
func (l *LSM) MemtableOps() int {
	l.mu.RLock()
	defer l.mu.RUnlock()
	return l.ix.mem.ops()
}

// Pauses returns the wall-clock duration of every compaction so far —
// the write-stall record the throughput benchmark summarizes as p99.
func (l *LSM) Pauses() []time.Duration {
	l.mu.RLock()
	defer l.mu.RUnlock()
	return append([]time.Duration(nil), l.ix.pauses...)
}

// Generation returns the current log generation (diagnostics/tests).
func (l *LSM) Generation() uint64 {
	l.mu.RLock()
	defer l.mu.RUnlock()
	return l.ix.gen
}

// Flush seals the current memtable into a segment (no-op when empty).
func (l *LSM) Flush() error { return l.update(l.ix.flushLocked) }

// Compact merges every sealed segment into one, discharging all
// tombstones. The memtable is untouched — its contents flush into a
// fresh segment later as usual. Compaction runs on the calling
// goroutine under the exclusive lock; the stall it causes is recorded
// in Pauses.
func (l *LSM) Compact() error { return l.update(l.ix.compactLocked) }

func (l *lsmIndex) count() int { return len(l.where) }

// insert implements index: one log append (typically a single page
// write) plus the in-memory memtable update; the segment build amortizes
// the signature-file writes over the whole memtable. May trigger a flush
// and then a compaction before returning.
func (l *lsmIndex) insert(oid uint64, elems []string) error {
	if _, dup := l.where[oid]; dup {
		return fmt.Errorf("core: %s insert: OID %d already indexed", l.cfg.Kind, oid)
	}
	deduped := dedup(elems)
	if err := l.log.appendInsert(oid, deduped); err != nil {
		return err
	}
	l.mem.insert(oid, deduped)
	l.where[oid] = lsmLoc{seg: lsmMemtableSeg, empty: len(deduped) == 0}
	l.card.add(len(deduped))
	return l.maybeRoll()
}

// insertBatch implements index: the memtable is the batch, so entries
// simply insert in order.
func (l *lsmIndex) insertBatch(entries []Entry) error {
	for _, e := range entries {
		if err := l.insert(e.OID, e.Elems); err != nil {
			return err
		}
	}
	return nil
}

// delete implements index: one log append plus two map updates — O(1),
// against the legacy paths' SC_OID/2 OID-file scan (signature files) or
// rc·D_t tree deletions (NIX).
func (l *lsmIndex) delete(oid uint64, _ []string) error {
	if _, ok := l.where[oid]; !ok {
		return fmt.Errorf("core: %s delete: OID %d not present", l.cfg.Kind, oid)
	}
	if err := l.log.appendDelete(oid); err != nil {
		return err
	}
	l.mem.delete(oid)
	delete(l.where, oid)
	return l.maybeRoll()
}

// liveOIDs implements index: every live OID, sorted.
func (l *lsmIndex) liveOIDs() ([]uint64, error) {
	out := make([]uint64, 0, len(l.where))
	for oid := range l.where {
		out = append(out, oid)
	}
	return sortedU64(out), nil
}

// maybeRoll applies the flush and compaction triggers after a mutation.
// Runs under the shell's exclusive lock.
func (l *lsmIndex) maybeRoll() error {
	if l.mem.ops() < l.memtableOps {
		return nil
	}
	if err := l.flushLocked(); err != nil {
		return err
	}
	if len(l.segs) >= l.compactAfter {
		return l.compactLocked()
	}
	return nil
}

func (l *lsmIndex) flushLocked() error {
	if l.mem.ops() == 0 {
		return nil
	}
	var entries []Entry
	var empties []uint64
	for _, oid := range l.mem.sortedOIDs() {
		elems := l.mem.entries[oid]
		if len(elems) == 0 {
			empties = append(empties, oid)
			continue
		}
		entries = append(entries, Entry{OID: oid, Elems: elems})
	}
	id := l.nextSeg
	seg, err := buildSegment(&l.cfg, l.store, id, entries, l.mem.sortedTombs(), empties)
	if err != nil {
		return err
	}
	l.nextSeg++
	l.segs = append(l.segs, seg)
	for _, e := range entries {
		l.where[e.OID] = lsmLoc{seg: id}
	}
	for _, oid := range empties {
		l.where[oid] = lsmLoc{seg: id, empty: true}
	}
	oldGen := l.gen
	l.gen++
	logF, err := l.store.Open(lsmLogName(l.gen))
	if err != nil {
		return fmt.Errorf("core: lsm open log gen %d: %w", l.gen, err)
	}
	if l.log, err = openLSMLog(logF); err != nil {
		return err
	}
	l.mem.reset()
	if err := l.writeManifestLocked(); err != nil {
		return err
	}
	// The old generation's log is dead weight now; reclaim best-effort.
	_ = pagestore.RemoveIfSupported(l.store, lsmLogName(oldGen))
	return nil
}

// writeManifestLocked persists the segment list and generation.
func (l *lsmIndex) writeManifestLocked() error {
	man := &lsmManifest{Gen: l.gen, NextSeg: l.nextSeg, Segments: make([]lsmSegMeta, len(l.segs))}
	for i, seg := range l.segs {
		man.Segments[i] = seg.meta
	}
	return writeManifest(l.manifest, man)
}

// candidates implements index: the search visits every sealed segment in
// order, then the memtable, leaving all candidates to the shell's one
// verification pass. The caps in opts were pinned from the total live
// count, so every segment applies the same filter strength.
func (l *lsmIndex) candidates(ctx context.Context, pred signature.Predicate, query []string, opts SearchOptions, stats *SearchStats, tr *obs.Trace) ([]uint64, error) {
	// Index phase: every segment's candidate scan, each adding its page
	// counts to stats.
	phase := tr.Begin()
	var candidates []uint64
	for _, seg := range l.segs {
		cands, err := seg.inner.segmentCandidates(ctx, pred, query, opts, stats)
		if err != nil {
			return nil, fmt.Errorf("core: lsm segment %d search: %w", seg.id, err)
		}
		// Keep only candidates this segment still owns: an OID deleted or
		// re-inserted later resolves elsewhere (or nowhere), and the
		// disjointness of the kept lists is what makes the gather a plain
		// concatenation.
		for _, oid := range cands {
			if loc, ok := l.where[oid]; ok && loc.seg == seg.id && !loc.empty {
				candidates = append(candidates, oid)
			}
		}
		// Empty sets live only in segment metadata. They are candidates
		// whenever an empty set could satisfy the predicate (∅ ⊆ Q always;
		// a vacuous query makes ⊇/= possible too); verification is exact,
		// so over-inclusion only costs a fetch.
		if pred == signature.Subset || len(query) == 0 {
			for _, oid := range seg.meta.Empties {
				if loc, ok := l.where[oid]; ok && loc.seg == seg.id && loc.empty {
					candidates = append(candidates, oid)
				}
			}
		}
	}
	tr.End(obs.PhaseIndexScan, phase, stats.IndexPages)

	// OID-map phase: the per-segment OID reads already happened inside
	// segmentCandidates (counted into OIDPages above); the memtable holds
	// actual set values, so its candidates cost no pages.
	phase = tr.Begin()
	memCands, err := l.mem.candidates(pred, query)
	if err != nil {
		return nil, err
	}
	candidates = append(candidates, memCands...)
	tr.End(obs.PhaseOIDMap, phase, stats.OIDPages)
	return candidates, nil
}

// describe implements index. SegmentCounts and MemtableCount let the
// planner add the per-segment scatter overhead to its RC estimates;
// StoragePages is the segments' pages plus the log and manifest.
func (l *lsmIndex) describe() FacilityStats {
	st := FacilityStats{
		Count:         len(l.where),
		AvgSetCard:    l.card.avg(),
		MemtableCount: len(l.mem.entries),
	}
	switch {
	case l.cfg.Kind == KindNIX:
	case l.cfg.FrameScheme != nil:
		st.F = l.cfg.FrameScheme.F()
		st.M = l.cfg.FrameScheme.M()
		st.Frames = l.cfg.FrameScheme.K()
	case l.cfg.Scheme != nil:
		st.F = l.cfg.Scheme.F()
		st.M = l.cfg.Scheme.M()
	}
	st.StoragePages = l.manifest.NumPages() + l.log.npages
	for _, seg := range l.segs {
		inner := seg.inner.Describe()
		st.StoragePages += inner.StoragePages
		st.SegmentCounts = append(st.SegmentCounts, seg.meta.Count+len(seg.meta.Empties))
		st.DistinctElems += inner.DistinctElems
		st.LookupPages = max(st.LookupPages, inner.LookupPages)
	}
	if l.cfg.Kind == KindNIX && st.LookupPages == 0 {
		st.LookupPages = 1
	}
	return st
}

var _ subFacility = (*LSM)(nil)
