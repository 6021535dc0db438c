package core

import (
	"context"
	"runtime"
	"testing"

	"sigfile/internal/signature"
)

// bytesPerRun reports the heap bytes one call of f allocates, averaged
// over runs.
func bytesPerRun(runs int, f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return (after.TotalAlloc - before.TotalAlloc) / uint64(runs)
}

// TestVerifyAllocsIndependentOfCandidates pins what compiling the query
// once is for: false-drop resolution allocates nothing per candidate. At
// D_q=100 every predicate resolves 20 and 2 000 candidates with the same
// allocation count. Deciding each candidate with EvaluateSets cost ≈ 6
// allocations per candidate; the budget is literal on purpose.
func TestVerifyAllocsIndependentOfCandidates(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	sets, _, universe := foldCorpus(2000, 10, 3250, 1)
	// The query holds OID 17's set, so every predicate but = has answers
	// among the candidates and false drops beside them.
	query := append(append([]string(nil), sets[17]...), universe[:90]...)
	src := MapSource(sets)
	for pred := signature.Superset; pred <= signature.Contains; pred++ {
		match, err := signature.Compile(pred, query)
		if err != nil {
			t.Fatal(err)
		}
		allocs := func(n int) float64 {
			all := make([]uint64, n)
			for i := range all {
				all[i] = uint64(i + 1)
			}
			cands := make([]uint64, n)
			return testing.AllocsPerRun(10, func() {
				copy(cands, all)
				var stats SearchStats
				if _, err := verifyCandidates(context.Background(), src, match, cands, &stats); err != nil {
					t.Fatal(err)
				}
			})
		}
		few, many := allocs(20), allocs(2000)
		if few != many {
			t.Errorf("%v: %.0f allocs for 20 candidates, %.0f for 2000; want equal", pred, few, many)
		}
		if many > 16 {
			t.Errorf("%v: %.0f allocs to resolve 2000 candidates, budget 16", pred, many)
		}
	}
}

// TestNIXSearchAllocCeiling is TestBSSFSearchAllocCeiling for the nested
// index, whose T ⊆ Q search resolves ≈ 2 150 candidates at the paper's
// design (N=8000, D_t=10, D_q=100): with two hash maps built per candidate
// it cost 30 128 allocations / 10.8 MB. The budgets are literal on purpose.
func TestNIXSearchAllocCeiling(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	const n, dt, v = 8000, 10, 3250
	sets, entries, universe := foldCorpus(n, dt, v, 1)
	nix, err := NewNIX(MapSource(sets), nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := nix.InsertBatch(entries); err != nil {
		t.Fatal(err)
	}
	// Planted on OID 17, so the search has an answer to resolve.
	subQ := append(append([]string(nil), sets[17]...), universe[:90]...)
	search := func() {
		res, err := nix.Search(signature.Subset, subQ)
		if err != nil || len(res.OIDs) == 0 {
			t.Fatalf("T ⊆ Q: %d OIDs, err %v", len(res.OIDs), err)
		}
	}
	if got := testing.AllocsPerRun(10, search); got > 18000 {
		t.Errorf("T ⊆ Q at D_q=100: %.0f allocs per search, budget 18000", got)
	}
	if got := bytesPerRun(10, search); got > 2_600_000 {
		t.Errorf("T ⊆ Q at D_q=100: %d bytes per search, budget 2 600 000", got)
	}
}
