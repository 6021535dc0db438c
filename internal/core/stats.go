package core

// This file is the catalog-statistics surface of the facilities: a
// point-in-time snapshot of the numbers a cost-based planner needs to
// evaluate the paper's retrieval-cost formulas (N, D_t, F, m, rc) against
// a live facility instead of the Table 2 constants.

// FacilityStats is a snapshot of one facility's catalog statistics. All
// fields describe the facility at the moment Describe was called; a
// planner holding one across later Inserts sees slightly stale numbers,
// which is the usual catalog trade-off.
type FacilityStats struct {
	// Facility is the access-method name: "SSF", "BSSF", "FSSF" or "NIX".
	Facility string
	// Count is the number of live (non-tombstoned) objects indexed — the
	// cost model's N.
	Count int
	// AvgSetCard is the mean cardinality of the indexed sets over every
	// insert this instance performed — the cost model's D_t. It is 0
	// (unknown) for a facility reopened from a persistent store, whose
	// insert history predates the process; callers fall back to a default.
	AvgSetCard float64
	// F and M are the signature design (signature width in bits and
	// element weight); both 0 for NIX.
	F, M int
	// Frames is the frame count K of an FSSF; 0 otherwise.
	Frames int
	// DistinctElems is the number of distinct indexed element values —
	// an exact lower bound on the domain cardinality V. Only NIX knows it
	// (its B⁺-tree keys are the elements); 0 elsewhere.
	DistinctElems int
	// LookupPages is the page cost of one element lookup (the paper's
	// rc = h + 1) for NIX; 0 for the signature files.
	LookupPages int
	// StoragePages is the facility's total storage cost SC in pages.
	StoragePages int
	// Health is the facility's degradation state (healthy, degraded
	// read-only, or failed) at snapshot time.
	Health HealthState
	// SegmentCounts, for an LSM-backed facility, holds the live-entry
	// count of each sealed segment (oldest first); nil for the legacy
	// in-place path. A search fans out across len(SegmentCounts) files,
	// which the planner folds into its RC estimates.
	SegmentCounts []int
	// MemtableCount is the number of live entries in the LSM memtable
	// (searched for free — it is in memory); 0 for the legacy path.
	MemtableCount int
	// Shards is the partition count K of a sharded facility — a search
	// scatters across that many independent file sets, which the planner
	// folds into its RC estimates the same way it folds SegmentCounts.
	// 0 for an unsharded facility.
	Shards int
	// ShardHealth is every shard's own health state, in shard order, for
	// a sharded facility; nil otherwise. Health above is the worst of
	// these and the facility's own ladder (which read faults feed: a
	// search touches every shard).
	ShardHealth []HealthState
}

// Describer is implemented by facilities that can report catalog
// statistics. Everything Open returns implements it.
type Describer interface {
	Describe() FacilityStats
}

// cardStats accumulates the cardinalities of inserted sets so Describe
// can report the measured D_t. Guarded by the owning facility's lock.
type cardStats struct {
	sum int64
	n   int64
}

func (c *cardStats) add(card int) {
	c.sum += int64(card)
	c.n++
}

func (c *cardStats) avg() float64 {
	if c.n == 0 {
		return 0
	}
	return float64(c.sum) / float64(c.n)
}
