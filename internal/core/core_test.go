package core

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"sigfile/internal/pagestore"
	"sigfile/internal/signature"
)

// fixture holds a populated access method plus the ground-truth data it
// indexes.
type fixture struct {
	am   AccessMethod
	sets map[uint64][]string
}

// newFixtures builds all three access methods over the same synthetic
// data: n objects with sets of cardinality dt drawn from a v-element
// universe.
func newFixtures(t testing.TB, n, dt, v int, seed int64) []*fixture {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	universe := make([]string, v)
	for i := range universe {
		universe[i] = fmt.Sprintf("elem-%05d", i)
	}
	sets := make(map[uint64][]string, n)
	for oid := uint64(1); oid <= uint64(n); oid++ {
		perm := rng.Perm(v)[:dt]
		set := make([]string, dt)
		for i, j := range perm {
			set[i] = universe[j]
		}
		sets[oid] = set
	}
	src := MapSource(sets)
	scheme := signature.MustNew(120, 3)

	ssf, err := NewSSF(scheme, src, nil)
	if err != nil {
		t.Fatal(err)
	}
	bssf, err := NewBSSF(scheme, src, nil)
	if err != nil {
		t.Fatal(err)
	}
	nix, err := NewNIX(src, nil)
	if err != nil {
		t.Fatal(err)
	}
	out := []*fixture{{ssf, sets}, {bssf, sets}, {nix, sets}}
	for _, f := range out {
		for oid := uint64(1); oid <= uint64(n); oid++ {
			if err := f.am.Insert(oid, sets[oid]); err != nil {
				t.Fatalf("%s insert %d: %v", f.am.Name(), oid, err)
			}
		}
	}
	return out
}

// bruteForce computes the exact answer.
func bruteForce(sets map[uint64][]string, pred signature.Predicate, query []string) []uint64 {
	var out []uint64
	for oid, target := range sets {
		if ok, _ := signature.EvaluateSets(pred, target, query); ok {
			out = append(out, oid)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func sameOIDs(a, b []uint64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

var allPredicates = []signature.Predicate{
	signature.Superset, signature.Subset, signature.Overlap,
	signature.Equals, signature.Contains,
}

func TestAllMethodsMatchBruteForce(t *testing.T) {
	fixtures := newFixtures(t, 300, 6, 60, 1)
	rng := rand.New(rand.NewSource(2))
	universe := make([]string, 60)
	for i := range universe {
		universe[i] = fmt.Sprintf("elem-%05d", i)
	}
	for trial := 0; trial < 25; trial++ {
		var query []string
		switch trial % 4 {
		case 0: // small random query
			for _, j := range rng.Perm(60)[:1+rng.Intn(4)] {
				query = append(query, universe[j])
			}
		case 1: // large random query (subset-friendly)
			for _, j := range rng.Perm(60)[:10+rng.Intn(30)] {
				query = append(query, universe[j])
			}
		case 2: // an existing target set (equality hits)
			oid := uint64(1 + rng.Intn(300))
			query = append(query, fixtures[0].sets[oid]...)
		case 3: // subset of an existing set (superset hits)
			oid := uint64(1 + rng.Intn(300))
			set := fixtures[0].sets[oid]
			query = append(query, set[:1+rng.Intn(len(set))]...)
		}
		for _, pred := range allPredicates {
			q := query
			if pred == signature.Contains {
				q = query[:1]
			}
			want := bruteForce(fixtures[0].sets, pred, q)
			for _, f := range fixtures {
				res, err := f.am.Search(pred, q, nil)
				if err != nil {
					t.Fatalf("%s %v: %v", f.am.Name(), pred, err)
				}
				if !sameOIDs(res.OIDs, want) {
					t.Fatalf("%s %v query=%v: got %d oids, want %d\ngot  %v\nwant %v",
						f.am.Name(), pred, q, len(res.OIDs), len(want), res.OIDs, want)
				}
				if res.Stats.Results != len(want) || res.Stats.FalseDrops < 0 {
					t.Fatalf("%s stats inconsistent: %+v", f.am.Name(), res.Stats)
				}
			}
		}
	}
}

func TestSmartSupersetStillExact(t *testing.T) {
	fixtures := newFixtures(t, 200, 8, 50, 3)
	query := []string{"elem-00001", "elem-00002", "elem-00003", "elem-00004", "elem-00005"}
	want := bruteForce(fixtures[0].sets, signature.Superset, query)
	for _, f := range fixtures {
		for k := 1; k <= 5; k++ {
			res, err := f.am.Search(signature.Superset, query, WithMaxProbeElements(k))
			if err != nil {
				t.Fatal(err)
			}
			if !sameOIDs(res.OIDs, want) {
				t.Fatalf("%s k=%d: wrong answer", f.am.Name(), k)
			}
			if res.Stats.ProbedElements != k {
				t.Fatalf("%s k=%d: probed %d", f.am.Name(), k, res.Stats.ProbedElements)
			}
		}
	}
}

func TestSmartSubsetCapStillExact(t *testing.T) {
	fixtures := newFixtures(t, 200, 4, 40, 4)
	universe := make([]string, 0, 20)
	for i := 0; i < 20; i++ {
		universe = append(universe, fmt.Sprintf("elem-%05d", i))
	}
	want := bruteForce(fixtures[0].sets, signature.Subset, universe)
	for _, f := range fixtures {
		bssf, ok := f.am.(*BSSF)
		if !ok {
			continue
		}
		full, err := bssf.Search(signature.Subset, universe, nil)
		if err != nil {
			t.Fatal(err)
		}
		capped, err := bssf.Search(signature.Subset, universe, WithMaxZeroSlices(10))
		if err != nil {
			t.Fatal(err)
		}
		if !sameOIDs(full.OIDs, want) || !sameOIDs(capped.OIDs, want) {
			t.Fatal("subset answers differ from brute force")
		}
		if capped.Stats.SlicesRead != 10 {
			t.Fatalf("capped scan read %d slices, want 10", capped.Stats.SlicesRead)
		}
		if full.Stats.SlicesRead <= 10 {
			t.Fatalf("full scan read only %d slices", full.Stats.SlicesRead)
		}
		// Weaker filter ⇒ at least as many candidates.
		if capped.Stats.Candidates < full.Stats.Candidates {
			t.Fatalf("capped candidates %d < full %d", capped.Stats.Candidates, full.Stats.Candidates)
		}
	}
}

func TestDeleteRemovesFromResults(t *testing.T) {
	fixtures := newFixtures(t, 100, 5, 30, 5)
	for _, f := range fixtures {
		victim := uint64(17)
		set := f.sets[victim]
		res, err := f.am.Search(signature.Superset, set[:1], nil)
		if err != nil {
			t.Fatal(err)
		}
		found := false
		for _, oid := range res.OIDs {
			if oid == victim {
				found = true
			}
		}
		if !found {
			t.Fatalf("%s: victim not found before delete", f.am.Name())
		}
		if err := f.am.Delete(victim, set); err != nil {
			t.Fatal(err)
		}
		if f.am.Count() != 99 {
			t.Fatalf("%s: Count = %d after delete", f.am.Name(), f.am.Count())
		}
		res, err = f.am.Search(signature.Superset, set[:1], nil)
		if err != nil {
			t.Fatal(err)
		}
		for _, oid := range res.OIDs {
			if oid == victim {
				t.Fatalf("%s: deleted OID still returned", f.am.Name())
			}
		}
		// Double delete errors.
		if err := f.am.Delete(victim, set); err == nil {
			t.Fatalf("%s: double delete accepted", f.am.Name())
		}
	}
}

func TestInsertValidation(t *testing.T) {
	fixtures := newFixtures(t, 10, 3, 20, 6)
	for _, f := range fixtures {
		if err := f.am.Insert(0, []string{"x"}); err == nil {
			t.Fatalf("%s: OID 0 accepted", f.am.Name())
		}
	}
	// NIX rejects duplicate OIDs outright.
	nix := fixtures[2].am
	if err := nix.Insert(3, []string{"y"}); err == nil {
		t.Fatal("NIX: duplicate OID accepted")
	}
}

func TestEmptySetAndEmptyQuery(t *testing.T) {
	sets := map[uint64][]string{
		1: {"a", "b"},
		2: {},
		3: {"c"},
	}
	src := MapSource(sets)
	scheme := signature.MustNew(64, 2)
	ssf, _ := NewSSF(scheme, src, nil)
	bssf, _ := NewBSSF(scheme, src, nil)
	nix, _ := NewNIX(src, nil)
	for _, am := range []AccessMethod{ssf, bssf, nix} {
		for oid, set := range sets {
			if err := am.Insert(oid, set); err != nil {
				t.Fatalf("%s: %v", am.Name(), err)
			}
		}
		for _, pred := range allPredicates {
			for _, query := range [][]string{{}, {"a"}, {"a", "b", "c"}} {
				want := bruteForce(sets, pred, query)
				res, err := am.Search(pred, query, nil)
				if err != nil {
					t.Fatalf("%s %v: %v", am.Name(), pred, err)
				}
				if !sameOIDs(res.OIDs, want) {
					t.Fatalf("%s %v query=%v: got %v want %v", am.Name(), pred, query, res.OIDs, want)
				}
			}
		}
		// The empty set must answer every Subset query.
		res, _ := am.Search(signature.Subset, []string{"zzz"}, nil)
		if !sameOIDs(res.OIDs, []uint64{2}) {
			t.Fatalf("%s: empty set not returned for Subset: %v", am.Name(), res.OIDs)
		}
	}
}

func TestDuplicateElementsInSetAndQuery(t *testing.T) {
	sets := map[uint64][]string{1: {"a", "a", "b"}}
	src := MapSource(sets)
	scheme := signature.MustNew(64, 2)
	ssf, _ := NewSSF(scheme, src, nil)
	nix, _ := NewNIX(src, nil)
	for _, am := range []AccessMethod{ssf, nix} {
		if err := am.Insert(1, sets[1]); err != nil {
			t.Fatal(err)
		}
		res, err := am.Search(signature.Equals, []string{"b", "a", "b", "a"}, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !sameOIDs(res.OIDs, []uint64{1}) {
			t.Fatalf("%s: duplicate-laden equality failed: %v", am.Name(), res.OIDs)
		}
	}
}

func TestSSFCostAccounting(t *testing.T) {
	fixtures := newFixtures(t, 2000, 5, 100, 7)
	ssf := fixtures[0].am.(*SSF)
	res, err := ssf.Search(signature.Superset, []string{"elem-00001", "elem-00002"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	// SSF reads the whole signature file: IndexPages == SC_SIG.
	if res.Stats.IndexPages != int64(ssf.SignaturePages()) {
		t.Fatalf("IndexPages %d != SC_SIG %d", res.Stats.IndexPages, ssf.SignaturePages())
	}
	// Storage identity SC = SC_SIG + SC_OID.
	if ssf.StoragePages() != ssf.SignaturePages()+ssf.OIDPages() {
		t.Fatal("storage identity broken")
	}
	// ObjectFetches == Candidates (P = 1 per candidate).
	if res.Stats.ObjectFetches != int64(res.Stats.Candidates) {
		t.Fatalf("ObjectFetches %d != Candidates %d", res.Stats.ObjectFetches, res.Stats.Candidates)
	}
	// Total = sum of parts.
	want := res.Stats.IndexPages + res.Stats.OIDPages + res.Stats.ObjectFetches
	if res.Stats.TotalPages() != want {
		t.Fatal("TotalPages is not the sum of its parts")
	}
}

func TestBSSFCostAccounting(t *testing.T) {
	fixtures := newFixtures(t, 2000, 5, 100, 8)
	bssf := fixtures[1].am.(*BSSF)
	scheme := bssf.Scheme()

	// Superset: slices read == weight of the query signature; with
	// N=2000 each slice is one page.
	query := []string{"elem-00001", "elem-00002"}
	qsig := scheme.SetSignatureStrings(query)
	res, err := bssf.Search(signature.Superset, query, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.SlicesRead != qsig.Count() {
		t.Fatalf("SlicesRead %d != m_q %d", res.Stats.SlicesRead, qsig.Count())
	}
	if res.Stats.IndexPages != int64(qsig.Count()) {
		t.Fatalf("IndexPages %d != %d slice pages", res.Stats.IndexPages, qsig.Count())
	}

	// Subset: slices read == F − m_q.
	res, err = bssf.Search(signature.Subset, query, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.SlicesRead != scheme.F()-qsig.Count() {
		t.Fatalf("subset SlicesRead %d != F−m_q %d", res.Stats.SlicesRead, scheme.F()-qsig.Count())
	}

	// Storage: F slice pages + OID pages.
	if bssf.StoragePages() != scheme.F()*bssf.SlicePages()+bssf.OIDPages() {
		t.Fatal("BSSF storage identity broken")
	}
}

func TestBSSFInsertCost(t *testing.T) {
	sets := MapSource{}
	scheme := signature.MustNew(100, 2)
	store := pagestore.NewMemStore()
	bssf, err := NewBSSF(scheme, sets, store)
	if err != nil {
		t.Fatal(err)
	}
	set := []string{"a", "b", "c"}
	sets[1] = set
	// Warm up: first insert allocates pages.
	if err := bssf.Insert(1, set); err != nil {
		t.Fatal(err)
	}
	// Count writes of a steady-state insert.
	var before, after int64
	for j := 0; j < scheme.F(); j++ {
		f, _ := store.Open(fmt.Sprintf("bssf.slice.%04d", j))
		before += f.Stats().Writes()
	}
	oidF, _ := store.Open("bssf.oid")
	beforeOID := oidF.Stats().Writes()
	sets[2] = set
	if err := bssf.Insert(2, set); err != nil {
		t.Fatal(err)
	}
	for j := 0; j < scheme.F(); j++ {
		f, _ := store.Open(fmt.Sprintf("bssf.slice.%04d", j))
		after += f.Stats().Writes()
	}
	sliceWrites := after - before
	weight := scheme.SetSignatureStrings(set).Count()
	if sliceWrites != int64(weight) {
		t.Fatalf("improved insert wrote %d slices, want signature weight %d", sliceWrites, weight)
	}
	if oidF.Stats().Writes() != beforeOID+1 {
		t.Fatal("insert should write the OID file once")
	}

	// Worst-case mode writes all F slices: UC_I = F + 1.
	wc, err := NewBSSF(scheme, sets, pagestore.NewMemStore(), WithWorstCaseInsert())
	if err != nil {
		t.Fatal(err)
	}
	if err := wc.Insert(1, set); err != nil {
		t.Fatal(err)
	}
	var wcWrites int64
	for _, f := range wc.ix.slices {
		wcWrites += f.Stats().Writes()
	}
	if wcWrites != int64(scheme.F()) {
		t.Fatalf("worst-case insert wrote %d slices, want F=%d", wcWrites, scheme.F())
	}
}

func TestSSFInsertCostIsTwoWrites(t *testing.T) {
	sets := MapSource{1: {"a"}, 2: {"b"}}
	scheme := signature.MustNew(64, 2)
	store := pagestore.NewMemStore()
	ssf, err := NewSSF(scheme, sets, store)
	if err != nil {
		t.Fatal(err)
	}
	if err := ssf.Insert(1, sets[1]); err != nil {
		t.Fatal(err)
	}
	sigF, _ := store.Open("ssf.sig")
	oidF, _ := store.Open("ssf.oid")
	r0 := sigF.Stats().Writes() + oidF.Stats().Writes()
	if err := ssf.Insert(2, sets[2]); err != nil {
		t.Fatal(err)
	}
	r1 := sigF.Stats().Writes() + oidF.Stats().Writes()
	if r1-r0 != 2 {
		t.Fatalf("steady-state SSF insert cost %d writes, want UC_I = 2", r1-r0)
	}
}

func TestNIXLookupCost(t *testing.T) {
	fixtures := newFixtures(t, 3000, 5, 500, 9)
	nix := fixtures[2].am.(*NIX)
	res, err := nix.Search(signature.Superset, []string{"elem-00005", "elem-00123"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Two lookups, each costing Height() page reads (rc in the paper).
	want := int64(2 * nix.LookupCost())
	if res.Stats.IndexPages != want {
		t.Fatalf("NIX index pages %d, want rc·D_q = %d", res.Stats.IndexPages, want)
	}
}

func TestSSFCompact(t *testing.T) {
	fixtures := newFixtures(t, 600, 4, 50, 10)
	ssf := fixtures[0].am.(*SSF)
	// Delete 400 objects (enough that the live prefix spans fewer pages).
	for oid := uint64(1); oid <= 400; oid++ {
		if err := ssf.Delete(oid, nil); err != nil {
			t.Fatal(err)
		}
	}
	query := []string{"elem-00001"}
	want := bruteForceLive(fixtures[0].sets, 401, signature.Superset, query)
	preScan, err := ssf.Search(signature.Superset, query, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := ssf.Compact(); err != nil {
		t.Fatal(err)
	}
	postScan, err := ssf.Search(signature.Superset, query, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !sameOIDs(postScan.OIDs, want) || !sameOIDs(preScan.OIDs, want) {
		t.Fatal("compaction changed answers")
	}
	if postScan.Stats.IndexPages >= preScan.Stats.IndexPages {
		t.Fatalf("compaction did not shrink the scan: %d -> %d pages",
			preScan.Stats.IndexPages, postScan.Stats.IndexPages)
	}
	if ssf.Count() != 200 {
		t.Fatalf("Count after compact = %d", ssf.Count())
	}
}

func TestBSSFCompact(t *testing.T) {
	fixtures := newFixtures(t, 500, 4, 50, 11)
	bssf := fixtures[1].am.(*BSSF)
	for oid := uint64(1); oid <= 250; oid++ {
		if err := bssf.Delete(oid, nil); err != nil {
			t.Fatal(err)
		}
	}
	query := []string{"elem-00002"}
	want := bruteForceLive(fixtures[1].sets, 251, signature.Superset, query)
	if err := bssf.Compact(); err != nil {
		t.Fatal(err)
	}
	res, err := bssf.Search(signature.Superset, query, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !sameOIDs(res.OIDs, want) {
		t.Fatalf("post-compact answers wrong: got %v want %v", res.OIDs, want)
	}
	if bssf.Count() != 250 {
		t.Fatalf("Count after compact = %d", bssf.Count())
	}
	// Inserts still work after compaction.
	fixtures[1].sets[9001] = []string{"elem-00002"}
	if err := bssf.Insert(9001, []string{"elem-00002"}); err != nil {
		t.Fatal(err)
	}
	res, _ = bssf.Search(signature.Superset, query, nil)
	found := false
	for _, oid := range res.OIDs {
		if oid == 9001 {
			found = true
		}
	}
	if !found {
		t.Fatal("insert after compact not visible")
	}
}

// bruteForceLive is bruteForce over OIDs >= lo (the survivors of a range
// delete).
func bruteForceLive(sets map[uint64][]string, lo uint64, pred signature.Predicate, query []string) []uint64 {
	var out []uint64
	for oid, target := range sets {
		ok, _ := signature.EvaluateSets(pred, target, query)
		if oid >= lo && ok {
			out = append(out, oid)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func TestConstructorValidation(t *testing.T) {
	scheme := signature.MustNew(64, 2)
	src := MapSource{}
	if _, err := NewSSF(nil, src, nil); err == nil {
		t.Fatal("SSF accepted nil scheme")
	}
	if _, err := NewSSF(scheme, nil, nil); err == nil {
		t.Fatal("SSF accepted nil source")
	}
	if _, err := NewBSSF(nil, src, nil); err == nil {
		t.Fatal("BSSF accepted nil scheme")
	}
	if _, err := NewBSSF(scheme, nil, nil); err == nil {
		t.Fatal("BSSF accepted nil source")
	}
	if _, err := NewNIX(nil, nil); err == nil {
		t.Fatal("NIX accepted nil source")
	}
	// Oversized signatures are rejected (F > page bits).
	big := signature.MustNew(pagestore.PageSize*8+64, 2)
	if _, err := NewSSF(big, src, nil); err == nil {
		t.Fatal("SSF accepted F wider than a page")
	}
}

func TestInvalidPredicate(t *testing.T) {
	fixtures := newFixtures(t, 10, 2, 10, 12)
	for _, f := range fixtures {
		if _, err := f.am.Search(signature.Predicate(99), []string{"x"}, nil); err == nil {
			t.Fatalf("%s accepted invalid predicate", f.am.Name())
		}
	}
}

func TestSSFPersistenceAcrossReopen(t *testing.T) {
	sets := MapSource{1: {"a", "b"}, 2: {"b", "c"}, 3: {"c"}}
	scheme := signature.MustNew(64, 2)
	store := pagestore.NewMemStore()
	ssf, err := NewSSF(scheme, sets, store)
	if err != nil {
		t.Fatal(err)
	}
	for oid, s := range map[uint64][]string(sets) {
		if err := ssf.Insert(oid, s); err != nil {
			t.Fatal(err)
		}
	}
	ssf.Delete(2, nil)
	// Reopen over the same store.
	ssf2, err := NewSSF(scheme, sets, store)
	if err != nil {
		t.Fatal(err)
	}
	if ssf2.Count() != 2 {
		t.Fatalf("reopened Count = %d", ssf2.Count())
	}
	res, err := ssf2.Search(signature.Superset, []string{"b"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !sameOIDs(res.OIDs, []uint64{1}) {
		t.Fatalf("reopened search: %v", res.OIDs)
	}
	// Inserts continue at the right position.
	sets[4] = []string{"b"}
	if err := ssf2.Insert(4, sets[4]); err != nil {
		t.Fatal(err)
	}
	res, _ = ssf2.Search(signature.Superset, []string{"b"}, nil)
	if !sameOIDs(res.OIDs, []uint64{1, 4}) {
		t.Fatalf("post-reopen insert: %v", res.OIDs)
	}
}

func TestBSSFPersistenceAcrossReopen(t *testing.T) {
	sets := MapSource{1: {"a", "b"}, 2: {"b", "c"}}
	scheme := signature.MustNew(64, 2)
	store := pagestore.NewMemStore()
	bssf, err := NewBSSF(scheme, sets, store)
	if err != nil {
		t.Fatal(err)
	}
	for oid, s := range map[uint64][]string(sets) {
		if err := bssf.Insert(oid, s); err != nil {
			t.Fatal(err)
		}
	}
	bssf2, err := NewBSSF(scheme, sets, store)
	if err != nil {
		t.Fatal(err)
	}
	if bssf2.Count() != 2 {
		t.Fatalf("reopened Count = %d", bssf2.Count())
	}
	res, err := bssf2.Search(signature.Superset, []string{"b"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !sameOIDs(res.OIDs, []uint64{1, 2}) {
		t.Fatalf("reopened search: %v", res.OIDs)
	}
	sets[3] = []string{"b", "d"}
	if err := bssf2.Insert(3, sets[3]); err != nil {
		t.Fatal(err)
	}
	res, _ = bssf2.Search(signature.Superset, []string{"b"}, nil)
	if !sameOIDs(res.OIDs, []uint64{1, 2, 3}) {
		t.Fatalf("post-reopen insert: %v", res.OIDs)
	}
}

func TestResolverErrorPropagates(t *testing.T) {
	// A source missing an OID must surface as an error, not a wrong
	// answer.
	sets := MapSource{1: {"a"}}
	scheme := signature.MustNew(64, 2)
	ssf, _ := NewSSF(scheme, sets, nil)
	if err := ssf.Insert(1, []string{"a"}); err != nil {
		t.Fatal(err)
	}
	delete(sets, 1)
	if _, err := ssf.Search(signature.Superset, []string{"a"}, nil); err == nil {
		t.Fatal("missing OID in source did not error")
	}
}

// Property: all three methods agree with brute force on random workloads
// with mixed predicates and random mutations.
func TestPropertyMethodsAgree(t *testing.T) {
	if testing.Short() {
		t.Skip("property workload skipped in -short mode")
	}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		universe := make([]string, 30)
		for i := range universe {
			universe[i] = fmt.Sprintf("e%02d", i)
		}
		sets := MapSource{}
		scheme := signature.MustNew(96, 2)
		ssf, _ := NewSSF(scheme, sets, nil)
		bssf, _ := NewBSSF(scheme, sets, nil)
		nix, _ := NewNIX(sets, nil)
		fssf, _ := NewFSSF(signature.MustFrameScheme(6, 16, 2), sets, nil)
		ams := []AccessMethod{ssf, bssf, nix, fssf}
		next := uint64(1)
		for step := 0; step < 60; step++ {
			switch rng.Intn(4) {
			case 0, 1: // insert
				card := rng.Intn(6)
				set := make([]string, 0, card)
				for _, j := range rng.Perm(len(universe))[:card] {
					set = append(set, universe[j])
				}
				sets[next] = set
				for _, am := range ams {
					if err := am.Insert(next, set); err != nil {
						return false
					}
				}
				next++
			case 2: // delete
				if len(sets) == 0 {
					continue
				}
				var victim uint64
				for oid := range sets {
					victim = oid
					break
				}
				set := sets[victim]
				for _, am := range ams {
					if err := am.Delete(victim, set); err != nil {
						return false
					}
				}
				delete(sets, victim)
			case 3: // query
				pred := allPredicates[rng.Intn(len(allPredicates))]
				qcard := 1 + rng.Intn(8)
				query := make([]string, 0, qcard)
				for _, j := range rng.Perm(len(universe))[:qcard] {
					query = append(query, universe[j])
				}
				if pred == signature.Contains {
					query = query[:1]
				}
				want := bruteForce(sets, pred, query)
				for _, am := range ams {
					res, err := am.Search(pred, query, nil)
					if err != nil {
						return false
					}
					if !sameOIDs(res.OIDs, want) {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 12}); err != nil {
		t.Fatal(err)
	}
}

// Property: measured false-drop counts are never negative and candidates
// always include all true results (no false dismissals at system level).
func TestPropertyNoFalseDismissalsEndToEnd(t *testing.T) {
	f := func(seed int64) bool {
		fixturesList := newFixtures(t, 120, 4, 25, seed)
		rng := rand.New(rand.NewSource(seed ^ 0x5eed))
		for trial := 0; trial < 5; trial++ {
			query := []string{}
			for _, j := range rng.Perm(25)[:1+rng.Intn(6)] {
				query = append(query, fmt.Sprintf("elem-%05d", j))
			}
			for _, pred := range allPredicates {
				q := query
				if pred == signature.Contains {
					q = query[:1]
				}
				want := bruteForce(fixturesList[0].sets, pred, q)
				for _, fx := range fixturesList {
					res, err := fx.am.Search(pred, q, nil)
					if err != nil {
						return false
					}
					if !sameOIDs(res.OIDs, want) {
						return false
					}
					if res.Stats.FalseDrops < 0 || res.Stats.Candidates < res.Stats.Results {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5}); err != nil {
		t.Fatal(err)
	}
}
