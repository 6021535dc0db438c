package core

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"sigfile/internal/bitset"
	"sigfile/internal/pagestore"
	"sigfile/internal/signature"
)

// This file pins the streaming fold of the bit-sliced searches
// (foldSlices / frameMask) three ways: against a reference
// that still builds one BitSet per slice, against a literal allocation
// budget, and under cancellation.

// foldCorpus builds n sets of cardinality dt over a v-element universe,
// OIDs 1..n in insertion order.
func foldCorpus(n, dt, v int, seed int64) (map[uint64][]string, []Entry, []string) {
	rng := rand.New(rand.NewSource(seed))
	universe := make([]string, v)
	for i := range universe {
		universe[i] = fmt.Sprintf("elem-%05d", i)
	}
	sets := make(map[uint64][]string, n)
	entries := make([]Entry, n)
	for i := range entries {
		set := make([]string, dt)
		for k, j := range rng.Perm(v)[:dt] {
			set[k] = universe[j]
		}
		oid := uint64(i + 1)
		sets[oid] = set
		entries[i] = Entry{OID: oid, Elems: set}
	}
	return sets, entries, universe
}

// refReadSlice is the slice loader the streaming fold replaced: slice j
// as a BitSet of its own, one bulk word copy per page.
func refReadSlice(t *testing.T, b *bssfIndex, j int, stats *SearchStats) *bitset.BitSet {
	t.Helper()
	out := bitset.New(b.n)
	buf := make([]byte, pagestore.PageSize)
	stats.SlicesRead++
	for p := 0; p*bitsPerSlicePage < b.n; p++ {
		if err := b.slices[j].ReadPage(pagestore.PageID(p), buf); err != nil {
			t.Fatalf("reference: read slice %d page %d: %v", j, p, err)
		}
		stats.IndexPages++
		out.LoadWordsAt(p*bitsPerSlicePage/64, buf)
	}
	return out
}

// refBSSF computes a BSSF search's candidate positions and index-scan
// counts the way the code did before the streaming fold: every selected
// slice materialised, then combined set by set.
func refBSSF(t *testing.T, b *bssfIndex, pred signature.Predicate, query []string, opts SearchOptions) (*bitset.BitSet, SearchStats) {
	t.Helper()
	var stats SearchStats
	qsig := b.scheme.SetSignatureStrings(probeElements(query, opts, pred))
	combine := func(js []int, and bool) *bitset.BitSet {
		acc := bitset.New(b.n)
		if and {
			acc.Fill()
		}
		for _, j := range js {
			if s := refReadSlice(t, b, j, &stats); and {
				acc.And(s)
			} else {
				acc.Or(s)
			}
		}
		return acc
	}
	noZeros := func(maxZero int) *bitset.BitSet {
		zeros := qsig.Zeros()
		if maxZero > 0 && len(zeros) > maxZero {
			zeros = zeros[:maxZero]
		}
		acc := combine(zeros, false)
		acc.Not()
		return acc
	}
	switch pred {
	case signature.Superset, signature.Contains:
		return combine(qsig.Ones(), true), stats
	case signature.Overlap:
		return combine(qsig.Ones(), false), stats
	case signature.Subset:
		return noZeros(opts.MaxZeroSlices), stats
	default: // Equals
		acc := combine(qsig.Ones(), true)
		acc.And(noZeros(0))
		return acc, stats
	}
}

// refFSSF is refBSSF's counterpart: one n-bit mask per scanned frame,
// built record by record from the frame pages, then combined mask by
// mask. The per-frame conditions come from whole FrameSignatures rather
// than the product's per-element maps.
func refFSSF(t *testing.T, f *fssfIndex, pred signature.Predicate, query []string, opts SearchOptions) (*bitset.BitSet, SearchStats) {
	t.Helper()
	var stats SearchStats
	empty := bitset.New(f.scheme.S())
	frameOf := func(sig *signature.FrameSignature, j int) *bitset.BitSet {
		if fr := sig.Frame(j); fr != nil {
			return fr
		}
		return empty
	}
	qsig := f.scheme.SetSignature(query)
	js, and := allFrames(f.scheme.K()), true
	var pass func(j int, rec *bitset.BitSet) bool
	switch pred {
	case signature.Superset, signature.Contains:
		psig := f.scheme.SetSignature(probeElements(query, opts, pred))
		js = psig.TouchedFrames()
		pass = func(j int, rec *bitset.BitSet) bool { return rec.ContainsAll(frameOf(psig, j)) }
	case signature.Subset:
		pass = func(j int, rec *bitset.BitSet) bool { return rec.SubsetOf(frameOf(qsig, j)) }
	case signature.Equals:
		pass = func(j int, rec *bitset.BitSet) bool { return rec.Equal(frameOf(qsig, j)) }
	case signature.Overlap:
		js, and = qsig.TouchedFrames(), false
		esigs := make([]*signature.FrameSignature, len(query))
		for i, e := range query {
			esigs[i] = f.scheme.SetSignature([]string{e})
		}
		pass = func(j int, rec *bitset.BitSet) bool {
			for _, es := range esigs {
				if es.Frame(j) != nil && rec.ContainsAll(es.Frame(j)) {
					return true
				}
			}
			return false
		}
	}
	acc := bitset.New(f.n)
	if and {
		acc.Fill()
	}
	buf := make([]byte, pagestore.PageSize)
	rec := bitset.New(f.scheme.S())
	for _, j := range js {
		mask := bitset.New(f.n)
		stats.SlicesRead++
		for p := 0; p*f.recsPerPage < f.n; p++ {
			if err := f.frames[j].ReadPage(pagestore.PageID(p), buf); err != nil {
				t.Fatalf("reference: read frame %d page %d: %v", j, p, err)
			}
			stats.IndexPages++
			for i := 0; i < f.recsPerPage && p*f.recsPerPage+i < f.n; i++ {
				if err := rec.LoadBinary(buf[i*f.recBytes : (i+1)*f.recBytes]); err != nil {
					t.Fatal(err)
				}
				if pass(j, rec) {
					mask.Set(p*f.recsPerPage + i)
				}
			}
		}
		if and {
			acc.And(mask)
		} else {
			acc.Or(mask)
		}
	}
	return acc, stats
}

// TestFoldMatchesPerSliceReference: for BSSF and FSSF, every predicate,
// object counts that leave a ragged last word, fill
// a slice page exactly ±1 and span several pages, with and without the
// probe and zero-slice caps, Search returns exactly the OIDs and exactly
// the SearchStats — every field — that the per-slice reference predicts.
func TestFoldMatchesPerSliceReference(t *testing.T) {
	const dt = 3
	caps := []struct {
		name string
		opts []SearchOption
	}{
		{"naive", nil},
		{"probe1", []SearchOption{WithMaxProbeElements(1)}},
		{"zero5", []SearchOption{WithMaxZeroSlices(5)}},
		{"smart", []SearchOption{WithSmartRetrieval()}},
	}
	sizes := []int{100, 32767, 32769, 70000}
	if raceEnabled {
		// The fold runs on the search's goroutine, so -race has nothing
		// here that depends on N; the instrumented run keeps one
		// single-page and one multi-page instance.
		sizes = []int{100, 32769}
	}
	for _, n := range sizes {
		// The larger instances draw from a wider universe and skip the
		// empty query, so that resolving candidates — not what is under
		// test — does not dominate the run.
		v := 60
		if n > 100 {
			v = 400
		}
		sets, entries, universe := foldCorpus(n, dt, v, int64(n))
		src := MapSource(sets)
		bssf, err := NewBSSF(signature.MustNew(128, 2), src, nil)
		if err != nil {
			t.Fatal(err)
		}
		fssf, err := NewFSSF(signature.MustFrameScheme(8, 16, 2), src, nil)
		if err != nil {
			t.Fatal(err)
		}
		kinds := []struct {
			am   AccessMethod
			kind Kind
			oid  *oidFile
			ref  func(signature.Predicate, []string, SearchOptions) (*bitset.BitSet, SearchStats)
		}{
			{bssf, KindBSSF, bssf.ix.oid, func(p signature.Predicate, q []string, o SearchOptions) (*bitset.BitSet, SearchStats) {
				return refBSSF(t, bssf.ix, p, q, o)
			}},
			{fssf, KindFSSF, fssf.ix.oid, func(p signature.Predicate, q []string, o SearchOptions) (*bitset.BitSet, SearchStats) {
				return refFSSF(t, fssf.ix, p, q, o)
			}},
		}
		// Stale entries, the last position included.
		dead := []uint64{2, uint64(n)}
		live := make(map[uint64][]string, n)
		for oid, s := range sets {
			live[oid] = s
		}
		for _, oid := range dead {
			delete(live, oid)
		}
		// A stored set (Equals has an answer), a small probe, the union of
		// four stored sets (T ⊆ Q has answers), and the empty query.
		var wide []string
		for oid := uint64(5); oid < 9; oid++ {
			wide = append(wide, sets[oid]...)
		}
		queries := [][]string{sets[uint64(n/2)], {universe[1], universe[2]}, dedup(wide)}
		if n <= 100 {
			queries = append(queries, nil)
		}
		for _, k := range kinds {
			if err := k.am.(BatchInserter).InsertBatch(entries); err != nil {
				t.Fatalf("N=%d %s load: %v", n, k.am.Name(), err)
			}
			for _, oid := range dead {
				if err := k.am.Delete(oid, sets[oid]); err != nil {
					t.Fatal(err)
				}
			}
			for _, pred := range allPredicates {
				for qi, query := range queries {
					for _, c := range caps {
						label := fmt.Sprintf("N=%d %s %v q%d %s", n, k.am.Name(), pred, qi, c.name)
						o := smartCaps(k.kind, 2, len(live), newSearchOptions(c.opts))
						bits, want := k.ref(pred, query, o)
						cands, oidPages, err := k.oid.getMany(bits.Ones())
						if err != nil {
							t.Fatalf("%s: reference OID map: %v", label, err)
						}
						var wantOIDs []uint64
						for _, oid := range cands {
							if ok, _ := signature.EvaluateSets(pred, sets[oid], query); ok {
								wantOIDs = append(wantOIDs, oid)
							}
						}
						want.QueryCardinality = len(query)
						want.ProbedElements = len(probeElements(query, o, pred))
						want.OIDPages = oidPages
						want.ObjectFetches = int64(len(cands))
						want.Candidates = len(cands)
						want.Results = len(wantOIDs)
						want.FalseDrops = len(cands) - len(wantOIDs)
						if c.opts == nil && !sameOIDs(wantOIDs, bruteForce(live, pred, query)) {
							t.Fatalf("%s: the reference itself misses answers", label)
						}
						got, err := k.am.Search(pred, query, c.opts...)
						if err != nil {
							t.Fatalf("%s: %v", label, err)
						}
						if !sameOIDs(wantOIDs, got.OIDs) {
							t.Errorf("%s: %d OIDs, reference has %d", label, len(got.OIDs), len(wantOIDs))
						}
						if got.Stats != want {
							t.Errorf("%s: stats %+v, reference %+v", label, got.Stats, want)
						}
					}
				}
			}
		}
	}
}

// TestBSSFFoldCancel: a cancellation landing between two slice-page reads
// of the fold surfaces as ctx.Err(), and the facility answers exactly
// afterwards. (fssf_cancel_test.go is the FSSF
// counterpart.)
func TestBSSFFoldCancel(t *testing.T) {
	const n, dt, v = 300, 5, 40
	sets, entries, universe := foldCorpus(n, dt, v, 78)
	query := universe[:20]
	want := bruteForce(sets, signature.Subset, query)
	store := &cancelStore{inner: pagestore.NewMemStore()}
	store.disarm() // construction and inserts read pages too
	bssf, err := NewBSSF(signature.MustNew(120, 3), MapSource(sets), store)
	if err != nil {
		t.Fatal(err)
	}
	if err := bssf.InsertBatch(entries); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	store.arm(cancel, 7) // T ⊆ Q reads ≈ 80 zero slices; the 7th read is mid-fold
	_, err = bssf.SearchContext(ctx, signature.Subset, query)
	cancel()
	if !errors.Is(err, ctx.Err()) {
		t.Errorf("mid-fold cancel: err = %v, want errors.Is(err, %v)", err, ctx.Err())
	}
	store.disarm()
	res, err := bssf.SearchContext(context.Background(), signature.Subset, query)
	if err != nil {
		t.Fatalf("after cancel: %v", err)
	}
	if !sameOIDs(want, res.OIDs) {
		t.Errorf("after cancel: got %v want %v", res.OIDs, want)
	}
}

// TestBSSFSearchAllocCeiling pins what the streaming fold is for, in
// counts that repeat exactly: at the paper's design (F=500, m=2, D_t=10)
// over N=8000 objects, a T ⊆ Q search at D_q=100 reads ≈ 337 slices and
// used to cost 1 235 allocations / 1.8 MB — one BitSet and one page buffer
// per slice. The budgets are literal on purpose; measured 228 / 73 KB
// (⊆) and 28 (⊇) when written.
func TestBSSFSearchAllocCeiling(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	const n, dt, v = 8000, 10, 3250
	sets, entries, universe := foldCorpus(n, dt, v, 1)
	bssf, err := NewBSSF(signature.MustNew(500, 2), MapSource(sets), nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := bssf.InsertBatch(entries); err != nil {
		t.Fatal(err)
	}
	// Both queries are planted on OID 17, so each has an answer to resolve.
	superQ := sets[17][:3]
	subQ := append(append([]string(nil), sets[17]...), universe[:90]...)
	search := func(pred signature.Predicate, q []string) func() {
		return func() {
			res, err := bssf.Search(pred, q)
			if err != nil || len(res.OIDs) == 0 {
				t.Fatalf("%v: %d OIDs, err %v", pred, len(res.OIDs), err)
			}
		}
	}
	if got := testing.AllocsPerRun(20, search(signature.Subset, subQ)); got > 250 {
		t.Errorf("T ⊆ Q at D_q=100: %.0f allocs per search, budget 250", got)
	}
	if got := bytesPerRun(20, search(signature.Subset, subQ)); got > 96<<10 {
		t.Errorf("T ⊆ Q at D_q=100: %d bytes per search, budget %d", got, 96<<10)
	}
	if got := testing.AllocsPerRun(20, search(signature.Superset, superQ)); got > 30 {
		t.Errorf("T ⊇ Q at D_q=3: %.0f allocs per search, budget 30", got)
	}
}
