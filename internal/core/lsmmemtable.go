package core

import (
	"slices"

	"sigfile/internal/signature"
)

// lsmMemtable is the mutable in-memory head of the LSM write path: the
// set values inserted since the last flush plus the tombstones of
// deletes. Every mutation is logged to the generation's lsmLog before it
// lands here, so the memtable is always reconstructible by replay.
// Guarded by the owning LSM's mutex.
type lsmMemtable struct {
	// entries maps each memtable-resident live OID to its deduplicated
	// set value. An empty (but non-nil) slice is a live empty set.
	entries map[uint64][]string
	// tombs records every OID deleted since the last flush. A tombstone
	// coexisting with an entry means delete-then-reinsert: the tombstone
	// still kills the OID's occurrence in older segments, while the entry
	// is its new value.
	tombs map[uint64]struct{}
}

func newLSMMemtable() *lsmMemtable {
	return &lsmMemtable{entries: make(map[uint64][]string), tombs: make(map[uint64]struct{})}
}

// insert records a (deduplicated) set value. An existing tombstone for
// the OID is kept: it refers to an older, flushed occurrence.
func (m *lsmMemtable) insert(oid uint64, elems []string) {
	if elems == nil {
		elems = []string{}
	}
	m.entries[oid] = elems
}

// delete drops the OID's entry (if resident) and records a tombstone.
// The tombstone is recorded even for memtable-resident OIDs — it is
// harmless at rebuild time and keeps replay order-free.
func (m *lsmMemtable) delete(oid uint64) {
	delete(m.entries, oid)
	m.tombs[oid] = struct{}{}
}

// ops is the flush-trigger size: live entries plus tombstones.
func (m *lsmMemtable) ops() int { return len(m.entries) + len(m.tombs) }

// reset empties the memtable after a flush.
func (m *lsmMemtable) reset() {
	m.entries = make(map[uint64][]string)
	m.tombs = make(map[uint64]struct{})
}

// sortedOIDs returns the resident live OIDs in ascending order.
func (m *lsmMemtable) sortedOIDs() []uint64 {
	out := make([]uint64, 0, len(m.entries))
	for oid := range m.entries {
		out = append(out, oid)
	}
	slices.Sort(out)
	return out
}

// sortedTombs returns the tombstoned OIDs in ascending order.
func (m *lsmMemtable) sortedTombs() []uint64 {
	out := make([]uint64, 0, len(m.tombs))
	for oid := range m.tombs {
		out = append(out, oid)
	}
	slices.Sort(out)
	return out
}

// candidates evaluates pred exactly against every resident entry, with
// the query compiled once for the whole scan, and returns the qualifying
// OIDs in ascending order. The memtable holds the actual set values, so
// this is not a signature filter — no false drops are produced — but the
// OIDs still flow through the common verification pass, which re-derives
// the same answer from the SetSource.
func (m *lsmMemtable) candidates(pred signature.Predicate, query []string) ([]uint64, error) {
	if len(m.entries) == 0 {
		return nil, nil
	}
	match, err := signature.Compile(pred, query)
	if err != nil {
		return nil, err
	}
	var out []uint64
	for _, oid := range m.sortedOIDs() {
		if match.Match(m.entries[oid]) {
			out = append(out, oid)
		}
	}
	return out, nil
}
