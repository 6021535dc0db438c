package core

import (
	"context"
	"fmt"
	"testing"

	"sigfile/internal/signature"
)

// TestCompositeStatsAreSums: an LSM and a sharded facility hand one
// SearchStats down to every part they search, so each part must add its
// page counts, never assign them. For every kind and predicate the
// composite's SlicesRead, IndexPages, OIDPages and ObjectFetches must
// equal the sum over its parts, each part's candidate phases run alone
// on a zeroed SearchStats; a part's ObjectFetches is the number of
// candidates it hands to the one verification pass.
func TestCompositeStatsAreSums(t *testing.T) {
	const n, dt, v = 120, 4, 30
	sets, entries, universe := foldCorpus(n, dt, v, 5)
	queries := [][]string{sets[7], universe[:2], universe[:12], nil}
	type counts struct{ slices, index, oid, fetches int64 }
	countsOf := func(st SearchStats) counts {
		return counts{int64(st.SlicesRead), st.IndexPages, st.OIDPages, st.ObjectFetches}
	}
	for _, kind := range []Kind{KindSSF, KindBSSF, KindFSSF, KindNIX} {
		cfg := Config{Kind: kind, Scheme: signature.MustNew(64, 2), Source: MapSource(sets)}
		// 120 inserts at 25 per flush seal four segments and leave 20 in
		// the memtable; compaction waits for 16.
		lsmAM, err := Open(cfg, WithLSMMemtableSize(25), WithLSMCompactAfter(16))
		if err != nil {
			t.Fatal(err)
		}
		shAM, err := Open(cfg, WithShards(3))
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range entries {
			if err := lsmAM.Insert(e.OID, e.Elems); err != nil {
				t.Fatal(err)
			}
			if err := shAM.Insert(e.OID, e.Elems); err != nil {
				t.Fatal(err)
			}
		}
		lsm := lsmAM.(*LSM).ix
		if len(lsm.segs) < 3 || len(lsm.mem.entries) == 0 {
			t.Fatalf("%v: %d segments and %d memtable entries, want ≥ 3 and > 0", kind, len(lsm.segs), len(lsm.mem.entries))
		}
		sh := shAM.(*ShardedFacility).ix
		for _, pred := range allPredicates {
			for qi, query := range queries {
				match, err := signature.Compile(pred, query)
				if err != nil {
					t.Fatal(err)
				}
				q := match.Elems()
				// part runs one part's candidate phases alone and adds its
				// counts to want.
				part := func(want *counts, sub subFacility) {
					var st SearchStats
					cands, err := sub.segmentCandidates(context.Background(), pred, q, SearchOptions{}, &st)
					if err != nil {
						t.Fatal(err)
					}
					c := countsOf(st)
					want.slices += c.slices
					want.index += c.index
					want.oid += c.oid
					want.fetches += int64(len(cands))
				}
				check := func(name string, am AccessMethod, want counts) {
					t.Helper()
					res, err := am.Search(pred, query)
					if err != nil {
						t.Fatalf("%s %v q%d: %v", name, pred, qi, err)
					}
					if got := countsOf(res.Stats); got != want {
						t.Errorf("%s %v q%d: {slices index oid fetches} = %+v, parts sum to %+v", name, pred, qi, got, want)
					}
				}

				var wantLSM counts
				for _, seg := range lsm.segs {
					part(&wantLSM, seg.inner)
				}
				memCands, err := lsm.mem.candidates(pred, q)
				if err != nil {
					t.Fatal(err)
				}
				wantLSM.fetches += int64(len(memCands))
				check(fmt.Sprintf("LSM-%v", kind), lsmAM, wantLSM)

				var wantSharded counts
				for _, s := range sh.shards {
					part(&wantSharded, s)
				}
				check(fmt.Sprintf("Sharded-%v", kind), shAM, wantSharded)
			}
		}
	}
}
