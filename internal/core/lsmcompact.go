package core

import (
	"fmt"
	"time"

	"sigfile/internal/pagestore"
)

// This file is the compaction side of the LSM write path: merging the
// sealed segments back into one, dropping tombstoned and superseded
// entries so the read fan-out (and the planner's segment-count cost
// overhead) returns to the single-file baseline.

// compactLocked merges every sealed segment into one, dropping
// tombstoned and superseded entries (LSM.Compact and the maybeRoll
// trigger both land here, under the shell's exclusive lock).
func (l *lsmIndex) compactLocked() error {
	if len(l.segs) < 2 {
		return nil
	}
	t0 := time.Now()
	// Collect the segment-resident live OIDs (the where map is the
	// single source of liveness truth; memtable residents stay put).
	var liveOIDs, emptyOIDs []uint64
	for oid, loc := range l.where {
		if loc.seg == lsmMemtableSeg {
			continue
		}
		if loc.empty {
			emptyOIDs = append(emptyOIDs, oid)
		} else {
			liveOIDs = append(liveOIDs, oid)
		}
	}
	sortedU64(liveOIDs)
	sortedU64(emptyOIDs)
	// Re-derive each survivor's set value from the SetSource — the same
	// authority false-drop resolution trusts. The signature segments are
	// lossy (they cannot reproduce the sets), so the merge is a rebuild,
	// not a file-level concatenation.
	entries := make([]Entry, 0, len(liveOIDs))
	for _, oid := range liveOIDs {
		elems, err := l.cfg.Source.Set(oid)
		if err != nil {
			return fmt.Errorf("core: lsm compact: set of OID %d: %w", oid, err)
		}
		entries = append(entries, Entry{OID: oid, Elems: dedup(elems)})
	}
	id := l.nextSeg
	merged, err := buildSegment(&l.cfg, l.store, id, entries, nil, emptyOIDs)
	if err != nil {
		return err
	}
	l.nextSeg++
	old := l.segs
	l.segs = []*lsmSegment{merged}
	for _, e := range entries {
		l.where[e.OID] = lsmLoc{seg: id}
	}
	for _, oid := range emptyOIDs {
		l.where[oid] = lsmLoc{seg: id, empty: true}
	}
	if err := l.writeManifestLocked(); err != nil {
		return err
	}
	// The superseded segments are unreachable from the manifest now;
	// reclaim their files best-effort.
	for _, seg := range old {
		pre := pagestore.Prefixed(l.store, segPrefix(seg.id))
		for _, name := range segmentFileNames(&l.cfg) {
			_ = pagestore.RemoveIfSupported(pre, name)
		}
	}
	l.pauses = append(l.pauses, time.Since(t0))
	return nil
}
