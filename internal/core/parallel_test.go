package core

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
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

// TestParallelSearchDeterministic is the concurrency-correctness property:
// for every facility, every predicate and a corpus of random queries, a
// parallel Search must return the identical OID set AND the identical
// page-access Stats as the sequential one — parallelism may only change
// wall-clock, never the paper's measured costs.
func TestParallelSearchDeterministic(t *testing.T) {
	const n, dt, v = 400, 5, 50
	fixtures := newFixtures(t, n, dt, v, 31)
	fssf, fsets := newFSSFFixture(t, n, dt, v, 31)
	fixtures = append(fixtures, &fixture{fssf, fsets})

	queries := randomQueries(fixtures[0].sets, v, 12, 8, 32)
	for _, f := range fixtures {
		// Tombstone a few objects so stale entries are in play too.
		for oid := uint64(2); oid <= 10; oid += 4 {
			if err := f.am.Delete(oid, f.sets[oid]); err != nil {
				t.Fatalf("%s delete %d: %v", f.am.Name(), oid, err)
			}
		}
		for _, pred := range allPredicates {
			for qi, q := range queries {
				base, err := f.am.Search(pred, q, WithParallelism(1))
				if err != nil {
					t.Fatalf("%s %v q%d sequential: %v", f.am.Name(), pred, qi, err)
				}
				for _, p := range []int{2, 8} {
					got, err := f.am.Search(pred, q, WithParallelism(p))
					if err != nil {
						t.Fatalf("%s %v q%d P=%d: %v", f.am.Name(), pred, qi, p, err)
					}
					if !sameOIDs(base.OIDs, got.OIDs) {
						t.Errorf("%s %v q%d: P=%d OIDs %v != sequential %v",
							f.am.Name(), pred, qi, p, got.OIDs, base.OIDs)
					}
					if got.Stats != base.Stats {
						t.Errorf("%s %v q%d: P=%d stats %+v != sequential %+v",
							f.am.Name(), pred, qi, p, got.Stats, base.Stats)
					}
				}
				// nil opts (the default path of existing callers) must
				// equal Parallelism: 1 exactly as well.
				def, err := f.am.Search(pred, q, nil)
				if err != nil {
					t.Fatalf("%s %v q%d default: %v", f.am.Name(), pred, qi, err)
				}
				if !sameOIDs(base.OIDs, def.OIDs) || def.Stats != base.Stats {
					t.Errorf("%s %v q%d: default opts diverge from P=1", f.am.Name(), pred, qi)
				}
			}
		}
	}
}

// TestParallelSearchMatchesBruteForce pins the parallel path to ground
// truth directly, independent of the sequential implementation.
func TestParallelSearchMatchesBruteForce(t *testing.T) {
	const n, dt, v = 250, 5, 40
	fixtures := newFixtures(t, n, dt, v, 41)
	queries := randomQueries(fixtures[0].sets, v, 8, 6, 42)
	for _, f := range fixtures {
		for _, pred := range allPredicates {
			for qi, q := range queries {
				want := bruteForce(f.sets, pred, q)
				got, err := f.am.Search(pred, q, WithParallelism(8))
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

// TestSearchWorkers pins the Parallelism-to-worker-count mapping.
func TestSearchWorkers(t *testing.T) {
	cases := []struct {
		opts SearchOptions
		want int
	}{
		{SearchOptions{}, 1},
		{SearchOptions{Parallelism: 1}, 1},
		{SearchOptions{Parallelism: 7}, 7},
		{SearchOptions{Parallelism: -1}, runtime.NumCPU()},
	}
	for _, c := range cases {
		if got := searchWorkers(c.opts); got != c.want {
			t.Errorf("searchWorkers(%+v) = %d, want %d", c.opts, got, c.want)
		}
	}
}

// TestForEachTaskErrors checks that a failing task neither masks other
// tasks' completion nor loses its error.
func TestForEachTaskErrors(t *testing.T) {
	for _, workers := range []int{1, 4} {
		ran := make([]bool, 10)
		err := forEachTask(context.Background(), workers, len(ran), func(i int) error {
			ran[i] = true
			if i == 3 || i == 7 {
				return fmt.Errorf("task %d failed", i)
			}
			return nil
		})
		if err == nil {
			t.Fatalf("workers=%d: error swallowed", workers)
		}
		for i, r := range ran {
			if !r {
				t.Errorf("workers=%d: task %d never ran", workers, i)
			}
		}
	}
}

// TestSearchMany checks the batched entry point: per-request results
// identical to individual calls, order preserved, at several batch
// parallelism levels.
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
		for _, par := range []int{1, 4, 16} {
			got, err := SearchMany(f.am, reqs, par)
			if err != nil {
				t.Fatalf("%s SearchMany(par=%d): %v", f.am.Name(), par, err)
			}
			for i := range reqs {
				if !sameOIDs(want[i].OIDs, got[i].OIDs) || got[i].Stats != want[i].Stats {
					t.Errorf("%s SearchMany(par=%d) request %d diverges from Search", f.am.Name(), par, i)
				}
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
	got, err := SearchMany(am, reqs, 2)
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
