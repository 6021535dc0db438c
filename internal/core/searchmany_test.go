package core

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"sigfile/internal/signature"
)

// randomQueries draws n query sets of mixed cardinality (1..maxDq) from
// the same universe the fixtures index, plus one query that equals a
// stored set (so Equals has a non-empty answer sometimes).
func randomQueries(sets map[uint64][]string, v, n, maxDq int, seed int64) [][]string {
	rng := rand.New(rand.NewSource(seed))
	universe := make([]string, v)
	for i := range universe {
		universe[i] = fmt.Sprintf("elem-%05d", i)
	}
	out := make([][]string, 0, n+1)
	for i := 0; i < n; i++ {
		dq := 1 + rng.Intn(maxDq)
		perm := rng.Perm(v)[:dq]
		q := make([]string, dq)
		for j, k := range perm {
			q[j] = universe[k]
		}
		out = append(out, q)
	}
	out = append(out, sets[uint64(1+rng.Intn(len(sets)))])
	return out
}

// TestSearchMatchesBruteForce pins every facility and predicate to
// ground truth directly.
func TestSearchMatchesBruteForce(t *testing.T) {
	const n, dt, v = 250, 5, 40
	fixtures := newFixtures(t, n, dt, v, 41)
	queries := randomQueries(fixtures[0].sets, v, 8, 6, 42)
	for _, f := range fixtures {
		for _, pred := range allPredicates {
			for qi, q := range queries {
				want := bruteForce(f.sets, pred, q)
				got, err := f.am.Search(pred, q)
				if err != nil {
					t.Fatalf("%s %v q%d: %v", f.am.Name(), pred, qi, err)
				}
				if !sameOIDs(want, got.OIDs) {
					t.Errorf("%s %v q%d: got %v want %v", f.am.Name(), pred, qi, got.OIDs, want)
				}
			}
		}
	}
}

// TestSearchMany checks the batched entry point: per-request results
// identical to individual calls, order preserved.
func TestSearchMany(t *testing.T) {
	const n, dt, v = 200, 5, 40
	fixtures := newFixtures(t, n, dt, v, 51)
	queries := randomQueries(fixtures[0].sets, v, 10, 6, 52)
	for _, f := range fixtures {
		reqs := make([]SearchRequest, 0, len(queries)*len(allPredicates))
		for _, pred := range allPredicates {
			for _, q := range queries {
				reqs = append(reqs, SearchRequest{Pred: pred, Query: q})
			}
		}
		want := make([]*Result, len(reqs))
		for i, r := range reqs {
			res, err := f.am.Search(r.Pred, r.Query, nil)
			if err != nil {
				t.Fatalf("%s request %d: %v", f.am.Name(), i, err)
			}
			want[i] = res
		}
		got, err := SearchMany(f.am, reqs)
		if err != nil {
			t.Fatalf("%s SearchMany: %v", f.am.Name(), err)
		}
		for i := range reqs {
			if !sameOIDs(want[i].OIDs, got[i].OIDs) || got[i].Stats != want[i].Stats {
				t.Errorf("%s SearchMany request %d diverges from Search", f.am.Name(), i)
			}
		}
	}
}

// TestSearchManyPartialFailure: failed requests yield nil slots and a
// joined error; the rest stay valid.
func TestSearchManyPartialFailure(t *testing.T) {
	fixtures := newFixtures(t, 50, 4, 30, 61)
	am := fixtures[0].am
	reqs := []SearchRequest{
		{Pred: signature.Superset, Query: []string{"elem-00001"}},
		{Pred: signature.Predicate(99), Query: []string{"elem-00002"}}, // invalid
		{Pred: signature.Overlap, Query: []string{"elem-00003"}},
	}
	got, err := SearchMany(am, reqs)
	if err == nil {
		t.Fatal("invalid predicate not reported")
	}
	if got[0] == nil || got[2] == nil {
		t.Error("valid requests lost alongside the failed one")
	}
	if got[1] != nil {
		t.Error("failed request produced a result")
	}
}

// TestSearchManyContextCancel: a cancellation that fires inside one
// request of a batch fails that request, leaves every unstarted slot
// nil, keeps the results finished before it, and surfaces ctx.Err().
func TestSearchManyContextCancel(t *testing.T) {
	const n = 100
	sets := newFixtures(t, n, 5, 30, 62)[0].sets
	src := &cancelSource{src: MapSource(sets)}
	am, err := NewBSSF(signature.MustNew(120, 3), src, nil)
	if err != nil {
		t.Fatal(err)
	}
	for oid := uint64(1); oid <= n; oid++ {
		if err := am.Insert(oid, sets[oid]); err != nil {
			t.Fatal(err)
		}
	}
	req := SearchRequest{Pred: signature.Overlap, Query: []string{"elem-00001", "elem-00002"}}
	src.left.Store(-1 << 20)
	one, err := am.Search(req.Pred, req.Query)
	if err != nil || one.Stats.ObjectFetches == 0 {
		t.Fatalf("probe search: %d fetches, err %v", one.Stats.ObjectFetches, err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	src.cancel = cancel
	// The first fetch of the second request cancels.
	src.left.Store(int32(one.Stats.ObjectFetches) + 1)
	got, err := SearchManyContext(ctx, am, []SearchRequest{req, req, req})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if got[0] == nil || !sameOIDs(got[0].OIDs, one.OIDs) {
		t.Errorf("request 0 finished before the cancellation but its result is %v", got[0])
	}
	if got[1] != nil || got[2] != nil {
		t.Errorf("canceled and unstarted requests produced results: %v, %v", got[1], got[2])
	}
}
