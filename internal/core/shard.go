package core

import (
	"context"
	"fmt"

	"sigfile/internal/obs"
	"sigfile/internal/pagestore"
	"sigfile/internal/signature"
)

// ShardedFacility hash-partitions the OID space across K inner
// facilities (DESIGN.md §16). Each shard is a full facility of the
// configured kind — its own files under a `shard.%02d` store prefix, its
// own WAL when the store is durable, its own lock and health ladder —
// so writes to different shards never contend.
//
// Insert and Delete route to the owning shard (shardOf, a fixed integer
// hash of the OID — stable across restarts, so a reopened store routes
// identically). A search runs the candidate phases of every shard in
// shard order and the shell resolves the gathered candidates in one
// pass; because the partitions are disjoint, the result is the unsharded
// facility's at any K.
//
// Composes with the LSM write path: Config{LSM: true, Shards: k} gives
// every shard its own memtable, segments and compaction schedule.
type ShardedFacility struct {
	*shell
	ix *shardedIndex
}

// shardedIndex is the sharded facility's index: its candidate generator
// is the concatenation of its shards' candidates, and it keeps no state
// of its own — updates route to the owning shard.
type shardedIndex struct {
	shards []subFacility
}

// maxShards bounds Config.Shards: beyond this the per-shard fixed costs
// (files, WALs, per-shard search overhead) dwarf any write-contention win.
const maxShards = 64

// shardOf is the partitioning function: a splitmix64-style finalizer
// over the OID, reduced mod k. A fixed integer hash (not map order, not
// insertion order) keeps the partition stable across processes and
// restarts, which reopening a persistent sharded store depends on.
func shardOf(oid uint64, k int) int {
	z := oid + 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	return int(z % uint64(k))
}

// newSharded builds (or reopens) the K-shard form of cfg. store is the
// (already prefix-wrapped) store; nil gets a fresh MemStore shared by
// the shards through their per-shard prefixes.
func newSharded(cfg Config, store pagestore.Store) (*ShardedFacility, error) {
	k := cfg.Shards
	if k < 2 || k > maxShards {
		return nil, fmt.Errorf("core: open %s: Shards must be in [2,%d], got %d", cfg.Kind, maxShards, k)
	}
	if store == nil {
		store = pagestore.NewMemStore()
	}
	var err error
	ix := &shardedIndex{shards: make([]subFacility, k)}
	sh := newShell(cfg.Kind, cfg.weight(), cfg.Source, ix)
	for i := range ix.shards {
		inner := cfg
		inner.Shards = 0
		inner.Prefix = "" // already applied to store by Open
		inner.Store = pagestore.Prefixed(store, fmt.Sprintf("shard.%02d", i))
		if ix.shards[i], err = open(inner); err != nil {
			return nil, fmt.Errorf("core: open shard %02d: %w", i, err)
		}
		sh.health.shards = append(sh.health.shards, ix.shards[i].ladder())
	}
	return &ShardedFacility{shell: sh, ix: ix}, nil
}

// Shards returns K, the number of partitions.
func (s *ShardedFacility) Shards() int { return len(s.ix.shards) }

// Shard exposes shard i for tests and repair tooling.
func (s *ShardedFacility) Shard(i int) AccessMethod { return s.ix.shards[i] }

// ShardHealth returns every shard's own health state, in shard order.
func (s *ShardedFacility) ShardHealth() []HealthState {
	out := make([]HealthState, len(s.ix.shards))
	for i, sh := range s.ix.shards {
		out[i] = sh.Health()
	}
	return out
}

// owner returns the shard owning oid and its number.
func (s *shardedIndex) owner(oid uint64) (int, subFacility) {
	i := shardOf(oid, len(s.shards))
	return i, s.shards[i]
}

// insert implements index, routing to the owning shard.
func (s *shardedIndex) insert(oid uint64, elems []string) error {
	i, sh := s.owner(oid)
	if err := sh.Insert(oid, elems); err != nil {
		return fmt.Errorf("core: shard %02d insert: %w", i, err)
	}
	return nil
}

// delete implements index, routing to the owning shard.
func (s *shardedIndex) delete(oid uint64, elems []string) error {
	i, sh := s.owner(oid)
	if err := sh.Delete(oid, elems); err != nil {
		return fmt.Errorf("core: shard %02d delete: %w", i, err)
	}
	return nil
}

// insertBatch implements index: entries partition into per-shard batches
// that load through each shard's own batch path.
func (s *shardedIndex) insertBatch(entries []Entry) error {
	buckets := make([][]Entry, len(s.shards))
	for _, e := range entries {
		i, _ := s.owner(e.OID)
		buckets[i] = append(buckets[i], e)
	}
	for i, b := range buckets {
		if err := s.shards[i].InsertBatch(b); err != nil {
			return fmt.Errorf("core: shard %02d batch insert: %w", i, err)
		}
	}
	return nil
}

// count implements index: the sum over shards.
func (s *shardedIndex) count() int {
	n := 0
	for _, sh := range s.shards {
		n += sh.Count()
	}
	return n
}

// liveOIDs implements index: the shards' OIDs, in shard order.
func (s *shardedIndex) liveOIDs() ([]uint64, error) {
	var out []uint64
	for i, sh := range s.shards {
		oids, err := sh.liveOIDs()
		if err != nil {
			return nil, fmt.Errorf("core: shard %02d: %w", i, err)
		}
		out = append(out, oids...)
	}
	return out, nil
}

// candidates implements index: the candidate phases of every shard —
// each an independent facility with its own files and lock — run in
// shard order, each adding its page counts to stats. The caps in opts
// were pinned from the total live count, so every shard applies the same
// filter strength; the partitions are disjoint, so resolving the
// concatenation in the shell's one pass yields exactly the unsharded
// result.
func (s *shardedIndex) candidates(ctx context.Context, pred signature.Predicate, query []string, opts SearchOptions, stats *SearchStats, tr *obs.Trace) ([]uint64, error) {
	phase := tr.Begin()
	var candidates []uint64
	for i, sh := range s.shards {
		cands, err := sh.segmentCandidates(ctx, pred, query, opts, stats)
		if err != nil {
			return nil, fmt.Errorf("core: shard %02d search: %w", i, err)
		}
		candidates = append(candidates, cands...)
	}
	tr.End(obs.PhaseIndexScan, phase, stats.IndexPages)

	// The per-shard OID-file reads happened inside each shard's candidate
	// phases (counted into OIDPages above); the span keeps the trace's
	// phase set that of every other facility.
	phase = tr.Begin()
	tr.End(obs.PhaseOIDMap, phase, stats.OIDPages)
	return candidates, nil
}

// describe implements index, aggregating the per-shard catalogs: counts
// and storage sum, the signature design is common to all shards, and
// Shards/ShardHealth expose the partition layout so the planner can
// price the K-way scatter and route around degraded shards.
func (s *shardedIndex) describe() FacilityStats {
	st := FacilityStats{Shards: len(s.shards)}
	var cardSum float64
	var cardN int
	for _, sh := range s.shards {
		inner := sh.Describe()
		st.Count += inner.Count
		st.StoragePages += inner.StoragePages
		st.MemtableCount += inner.MemtableCount
		st.SegmentCounts = append(st.SegmentCounts, inner.SegmentCounts...)
		if inner.F > 0 {
			st.F, st.M, st.Frames = inner.F, inner.M, inner.Frames
		}
		if inner.AvgSetCard > 0 {
			cardSum += inner.AvgSetCard * float64(inner.Count)
			cardN += inner.Count
		}
		// Shards hold disjoint OIDs but overlapping element domains, so
		// summing DistinctElems would overcount V; the max stays a lower
		// bound, which is the planner contract.
		st.DistinctElems = max(st.DistinctElems, inner.DistinctElems)
		st.LookupPages = max(st.LookupPages, inner.LookupPages)
		st.ShardHealth = append(st.ShardHealth, inner.Health)
	}
	if cardN > 0 {
		st.AvgSetCard = cardSum / float64(cardN)
	}
	return st
}

var _ subFacility = (*ShardedFacility)(nil)
