package core

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"sigfile/internal/pagestore"
	"sigfile/internal/signature"
)

// This file is the differential proof of the LSM write path (ISSUE 7's
// tentpole contract): every randomized insert/delete/search schedule is
// executed against the legacy in-place facility, the LSM form of the
// same kind, and a brute-force model, asserting byte-identical OID sets
// everywhere and internally consistent SearchStats. 500+ seeded
// schedules × 4 facility kinds run under -race in CI (the race job runs
// the whole package).

// diffSchedulesPerKind × 4 kinds = 500 schedules total.
const diffSchedulesPerKind = 125

// diffElems is the element universe of the differential schedules —
// small enough that predicates hit often, large enough that signatures
// collide and false drops occur.
var diffElems = []string{"a", "b", "c", "d", "e", "f", "g", "h", "i", "j", "k", "l"}

// diffPreds covers every predicate.
var diffPreds = []signature.Predicate{
	signature.Superset, signature.Subset, signature.Overlap,
	signature.Equals, signature.Contains,
}

// diffHarness holds one schedule's three executions plus the shared
// SetSource both facilities verify against.
type diffHarness struct {
	src    MapSource
	legacy AccessMethod
	lsm    *LSM
	// model is the ground truth: the live set values.
	model map[uint64][]string
	// freed holds deleted OIDs eligible for re-insertion (the
	// tombstone-then-reinsert path).
	freed []uint64
	next  uint64
}

func newDiffHarness(t *testing.T, kind Kind, rng *rand.Rand) *diffHarness {
	t.Helper()
	src := MapSource{}
	cfg := Config{Kind: kind, Scheme: signature.MustNew(32, 3), Source: src}
	if kind == KindFSSF {
		// F=32 split into 4 frames of S=8 bits keeps m=3 valid per frame.
		cfg.FrameScheme = signature.MustFrameScheme(4, 8, 3)
	}
	legacyCfg := cfg
	legacyCfg.Store = pagestore.NewMemStore()
	legacy, err := Open(legacyCfg)
	if err != nil {
		t.Fatalf("open legacy %v: %v", kind, err)
	}
	lsmCfg := cfg
	lsmCfg.Store = pagestore.NewMemStore()
	lsm, err := Open(lsmCfg,
		WithLSMMemtableSize(2+rng.Intn(7)), WithLSMCompactAfter(2+rng.Intn(3)))
	if err != nil {
		t.Fatalf("open lsm %v: %v", kind, err)
	}
	return &diffHarness{
		src: src, legacy: legacy, lsm: lsm.(*LSM),
		model: make(map[uint64][]string), next: 1,
	}
}

// randSet draws a set value: usually 1–6 elements, sometimes empty.
func randSet(rng *rand.Rand) []string {
	if rng.Intn(10) == 0 {
		return nil
	}
	n := 1 + rng.Intn(6)
	out := make([]string, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, diffElems[rng.Intn(len(diffElems))])
	}
	return out
}

// liveOID picks a random live OID, 0 when none exist.
func (h *diffHarness) liveOID(rng *rand.Rand) uint64 {
	if len(h.model) == 0 {
		return 0
	}
	oids := make([]uint64, 0, len(h.model))
	for oid := range h.model {
		oids = append(oids, oid)
	}
	sort.Slice(oids, func(i, j int) bool { return oids[i] < oids[j] })
	return oids[rng.Intn(len(oids))]
}

func (h *diffHarness) doInsert(t *testing.T, rng *rand.Rand) {
	t.Helper()
	var oid uint64
	// Half the time reuse a freed OID — the delete-then-reinsert path
	// the tombstone discipline must get right.
	if len(h.freed) > 0 && rng.Intn(2) == 0 {
		i := rng.Intn(len(h.freed))
		oid = h.freed[i]
		h.freed = append(h.freed[:i], h.freed[i+1:]...)
	} else {
		oid = h.next
		h.next++
	}
	elems := randSet(rng)
	h.src[oid] = elems
	if err := h.legacy.Insert(oid, elems); err != nil {
		t.Fatalf("legacy insert %d: %v", oid, err)
	}
	if err := h.lsm.Insert(oid, elems); err != nil {
		t.Fatalf("lsm insert %d: %v", oid, err)
	}
	h.model[oid] = dedup(elems)
}

func (h *diffHarness) doDelete(t *testing.T, rng *rand.Rand) {
	t.Helper()
	oid := h.liveOID(rng)
	if oid == 0 {
		return
	}
	elems := h.src[oid]
	if err := h.legacy.Delete(oid, elems); err != nil {
		t.Fatalf("legacy delete %d: %v", oid, err)
	}
	if err := h.lsm.Delete(oid, elems); err != nil {
		t.Fatalf("lsm delete %d: %v", oid, err)
	}
	delete(h.model, oid)
	delete(h.src, oid)
	h.freed = append(h.freed, oid)
}

// modelSearch answers pred/query by brute force over the live sets.
func (h *diffHarness) modelSearch(t *testing.T, pred signature.Predicate, query []string) []uint64 {
	t.Helper()
	var out []uint64
	for oid, elems := range h.model {
		ok, err := signature.EvaluateSets(pred, elems, dedup(query))
		if err != nil {
			t.Fatalf("model search: %v", err)
		}
		if ok {
			out = append(out, oid)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// checkStats asserts the internal-consistency (monotonicity) invariants
// every SearchStats must satisfy.
func checkStats(t *testing.T, label string, res *Result) {
	t.Helper()
	s := res.Stats
	if s.IndexPages < 0 || s.OIDPages < 0 || s.ObjectFetches < 0 || s.SlicesRead < 0 {
		t.Fatalf("%s: negative stats: %+v", label, s)
	}
	if s.Candidates < s.Results {
		t.Fatalf("%s: candidates %d < results %d", label, s.Candidates, s.Results)
	}
	if s.FalseDrops != s.Candidates-s.Results {
		t.Fatalf("%s: false drops %d != candidates %d - results %d", label, s.FalseDrops, s.Candidates, s.Results)
	}
	if int(s.ObjectFetches) != s.Candidates {
		t.Fatalf("%s: object fetches %d != candidates %d", label, s.ObjectFetches, s.Candidates)
	}
	if s.Results != len(res.OIDs) {
		t.Fatalf("%s: stats results %d != %d returned OIDs", label, s.Results, len(res.OIDs))
	}
}

func (h *diffHarness) doSearch(t *testing.T, rng *rand.Rand) {
	t.Helper()
	pred := diffPreds[rng.Intn(len(diffPreds))]
	query := make([]string, rng.Intn(5))
	for i := range query {
		query[i] = diffElems[rng.Intn(len(diffElems))]
	}
	if pred == signature.Contains {
		// q ∈ T needs exactly one element; an empty query is invalid.
		query = []string{diffElems[rng.Intn(len(diffElems))]}
	}
	var opts []SearchOption
	switch rng.Intn(3) {
	case 1:
		opts = append(opts, WithSmartRetrieval())
	case 2:
		opts = append(opts, WithMaxProbeElements(1+rng.Intn(2)))
	}
	want := h.modelSearch(t, pred, query)
	legacyRes, err := h.legacy.Search(pred, query, opts...)
	if err != nil {
		t.Fatalf("legacy search %v %v: %v", pred, query, err)
	}
	lsmRes, err := h.lsm.Search(pred, query, opts...)
	if err != nil {
		t.Fatalf("lsm search %v %v: %v", pred, query, err)
	}
	if !equalOIDs(legacyRes.OIDs, want) {
		t.Fatalf("legacy %v %v: got %v, model says %v", pred, query, legacyRes.OIDs, want)
	}
	if !equalOIDs(lsmRes.OIDs, want) {
		t.Fatalf("lsm %v %v: got %v, model says %v (segments=%d memops=%d)",
			pred, query, lsmRes.OIDs, want, h.lsm.Segments(), h.lsm.MemtableOps())
	}
	checkStats(t, "legacy", legacyRes)
	checkStats(t, "lsm", lsmRes)
}

// TestDifferentialLSM runs diffSchedulesPerKind seeded schedules against
// each facility kind: every schedule executes ~40 randomized operations
// on the legacy and LSM paths in lockstep, and every search must agree
// with both the other path and the brute-force model.
func TestDifferentialLSM(t *testing.T) {
	for _, kind := range []Kind{KindSSF, KindBSSF, KindFSSF, KindNIX} {
		kind := kind
		t.Run(kind.String(), func(t *testing.T) {
			t.Parallel()
			for seed := 0; seed < diffSchedulesPerKind; seed++ {
				seed := seed
				t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
					rng := rand.New(rand.NewSource(int64(seed)*4 + int64(kind)))
					h := newDiffHarness(t, kind, rng)
					nops := 30 + rng.Intn(20)
					for op := 0; op < nops; op++ {
						switch r := rng.Intn(20); {
						case r < 12:
							h.doInsert(t, rng)
						case r < 15:
							h.doDelete(t, rng)
						default:
							h.doSearch(t, rng)
						}
					}
					// Final sweep: every predicate against a fixed query,
					// plus an explicit flush+compact and a re-check — the
					// sealed state must answer identically.
					for _, pred := range diffPreds {
						q := []string{"a", "b"}
						if pred == signature.Contains {
							q = []string{"a"}
						}
						h.doSearchFixed(t, pred, q)
					}
					if err := h.lsm.Flush(); err != nil {
						t.Fatalf("flush: %v", err)
					}
					if err := h.lsm.Compact(); err != nil {
						t.Fatalf("compact: %v", err)
					}
					for _, pred := range diffPreds {
						q := []string{"a", "b"}
						if pred == signature.Contains {
							q = []string{"a"}
						}
						h.doSearchFixed(t, pred, q)
					}
				})
			}
		})
	}
}

// doSearchFixed is doSearch with a fixed predicate and query.
func (h *diffHarness) doSearchFixed(t *testing.T, pred signature.Predicate, query []string) {
	t.Helper()
	want := h.modelSearch(t, pred, query)
	legacyRes, err := h.legacy.Search(pred, query, nil)
	if err != nil {
		t.Fatalf("legacy search %v %v: %v", pred, query, err)
	}
	lsmRes, err := h.lsm.Search(pred, query, nil)
	if err != nil {
		t.Fatalf("lsm search %v %v: %v", pred, query, err)
	}
	if !equalOIDs(legacyRes.OIDs, want) {
		t.Fatalf("legacy %v %v: got %v, model says %v", pred, query, legacyRes.OIDs, want)
	}
	if !equalOIDs(lsmRes.OIDs, want) {
		t.Fatalf("lsm %v %v: got %v, model says %v", pred, query, lsmRes.OIDs, want)
	}
	checkStats(t, "legacy", legacyRes)
	checkStats(t, "lsm", lsmRes)
}

// TestDifferentialLSMReopen proves recovery: a schedule executed, the
// store reopened cold, and every predicate re-answered identically —
// committed inserts survive, tombstoned OIDs stay dead.
func TestDifferentialLSMReopen(t *testing.T) {
	for _, kind := range []Kind{KindSSF, KindBSSF, KindFSSF, KindNIX} {
		kind := kind
		t.Run(kind.String(), func(t *testing.T) {
			t.Parallel()
			for seed := 0; seed < 10; seed++ {
				rng := rand.New(rand.NewSource(int64(1000 + seed)))
				src := MapSource{}
				store := pagestore.NewMemStore()
				cfg := Config{Kind: kind, Scheme: signature.MustNew(32, 3), Source: src, Store: store}
				if kind == KindFSSF {
					cfg.FrameScheme = signature.MustFrameScheme(4, 8, 3)
				}
				open := func() *LSM {
					am, err := Open(cfg,
						WithLSMMemtableSize(3), WithLSMCompactAfter(3))
					if err != nil {
						t.Fatalf("open: %v", err)
					}
					return am.(*LSM)
				}
				l := open()
				model := make(map[uint64][]string)
				for oid := uint64(1); oid <= 25; oid++ {
					elems := randSet(rng)
					src[oid] = elems
					if err := l.Insert(oid, elems); err != nil {
						t.Fatalf("insert: %v", err)
					}
					model[oid] = dedup(elems)
					if oid%5 == 0 {
						victim := oid - uint64(rng.Intn(3))
						if _, live := model[victim]; live {
							if err := l.Delete(victim, src[victim]); err != nil {
								t.Fatalf("delete: %v", err)
							}
							delete(model, victim)
							delete(src, victim)
						}
					}
				}
				reopened := open()
				if got, want := reopened.Count(), len(model); got != want {
					t.Fatalf("reopened count %d, want %d", got, want)
				}
				for _, pred := range diffPreds {
					q := []string{"a", "c"}
					if pred == signature.Contains {
						q = []string{"a"}
					}
					var want []uint64
					for oid, elems := range model {
						ok, err := signature.EvaluateSets(pred, elems, q)
						if err != nil {
							t.Fatal(err)
						}
						if ok {
							want = append(want, oid)
						}
					}
					sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
					before, err := l.Search(pred, q, nil)
					if err != nil {
						t.Fatalf("search before reopen: %v", err)
					}
					after, err := reopened.Search(pred, q, nil)
					if err != nil {
						t.Fatalf("search after reopen: %v", err)
					}
					if !equalOIDs(before.OIDs, want) || !equalOIDs(after.OIDs, want) {
						t.Fatalf("%v %v: before=%v after=%v model=%v", pred, q, before.OIDs, after.OIDs, want)
					}
				}
			}
		})
	}
}
