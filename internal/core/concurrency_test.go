package core

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"sigfile/internal/signature"
)

// The stress tests below are written for the race detector: N reader
// goroutines search while one writer inserts and deletes. They assert
// only invariants that hold at any interleaving — every returned OID
// was inserted at some point, stats are internally consistent — because
// the answer set legitimately depends on when a search runs relative to
// the writer.

// stressSource is a SetSource covering both the initially-loaded OIDs
// and every OID the writer will insert, so resolution never fails no
// matter when a search observes a freshly inserted signature. It is
// immutable after construction and therefore trivially concurrent-safe.
func stressData(nInitial, nExtra, dt, v int, seed int64) (MapSource, [][]string) {
	rng := rand.New(rand.NewSource(seed))
	universe := make([]string, v)
	for i := range universe {
		universe[i] = fmt.Sprintf("elem-%05d", i)
	}
	sets := make(MapSource, nInitial+nExtra)
	for oid := uint64(1); oid <= uint64(nInitial+nExtra); oid++ {
		perm := rng.Perm(v)[:dt]
		set := make([]string, dt)
		for i, j := range perm {
			set[i] = universe[j]
		}
		sets[oid] = set
	}
	queries := make([][]string, 8)
	for i := range queries {
		dq := 1 + rng.Intn(4)
		perm := rng.Perm(v)[:dq]
		q := make([]string, dq)
		for j, k := range perm {
			q[j] = universe[k]
		}
		queries[i] = q
	}
	return sets, queries
}

// stressFacility runs nReaders search goroutines against am while one
// writer inserts OIDs (nInitial, nInitial+nExtra] and deletes a prefix
// of the initial load.
func stressFacility(t *testing.T, am AccessMethod, sets MapSource, queries [][]string, nInitial, nExtra int) {
	t.Helper()
	const nReaders = 4
	const searchesPerReader = 25
	var wg sync.WaitGroup

	// Writer: interleave inserts of new OIDs with deletes of old ones.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < nExtra; i++ {
			oid := uint64(nInitial + i + 1)
			if err := am.Insert(oid, sets[oid]); err != nil {
				t.Errorf("%s insert %d: %v", am.Name(), oid, err)
				return
			}
			if i%2 == 0 {
				victim := uint64(i/2 + 1)
				if err := am.Delete(victim, sets[victim]); err != nil {
					t.Errorf("%s delete %d: %v", am.Name(), victim, err)
					return
				}
			}
		}
	}()

	for r := 0; r < nReaders; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			preds := allPredicates
			for i := 0; i < searchesPerReader; i++ {
				pred := preds[(r+i)%len(preds)]
				q := queries[(r*searchesPerReader+i)%len(queries)]
				res, err := am.Search(pred, q)
				if err != nil {
					t.Errorf("%s reader %d search: %v", am.Name(), r, err)
					return
				}
				for _, oid := range res.OIDs {
					if _, ok := sets[oid]; !ok {
						t.Errorf("%s returned OID %d that never existed", am.Name(), oid)
					}
				}
				st := res.Stats
				if st.FalseDrops != st.Candidates-st.Results || st.Results != len(res.OIDs) {
					t.Errorf("%s inconsistent stats: %+v with %d OIDs", am.Name(), st, len(res.OIDs))
				}
				// Concurrent metadata reads ride along with the searches.
				_ = am.Count()
				_ = am.StoragePages()
			}
		}(r)
	}
	wg.Wait()
}

// TestConcurrentSearchWhileWriting is the -race stress: run it for each
// facility with readers searching while one writer mutates.
func TestConcurrentSearchWhileWriting(t *testing.T) {
	const nInitial, nExtra, dt, v = 300, 60, 5, 50
	sets, queries := stressData(nInitial, nExtra, dt, v, 71)
	scheme := signature.MustNew(120, 3)

	build := map[string]func() (AccessMethod, error){
		"SSF":  func() (AccessMethod, error) { return NewSSF(scheme, sets, nil) },
		"BSSF": func() (AccessMethod, error) { return NewBSSF(scheme, sets, nil) },
		"NIX":  func() (AccessMethod, error) { return NewNIX(sets, nil) },
		"FSSF": func() (AccessMethod, error) {
			return NewFSSF(signature.MustFrameScheme(8, 16, 3), sets, nil)
		},
	}
	for name, mk := range build {
		t.Run(name, func(t *testing.T) {
			am, err := mk()
			if err != nil {
				t.Fatal(err)
			}
			for oid := uint64(1); oid <= uint64(nInitial); oid++ {
				if err := am.Insert(oid, sets[oid]); err != nil {
					t.Fatal(err)
				}
			}
			stressFacility(t, am, sets, queries, nInitial, nExtra)
		})
	}
}

// TestConcurrentSearchMany exercises the batch path under the race
// detector: many SearchMany batches run concurrently against one
// facility while a writer inserts.
func TestConcurrentSearchMany(t *testing.T) {
	const nInitial, nExtra, dt, v = 200, 40, 5, 40
	sets, queries := stressData(nInitial, nExtra, dt, v, 81)
	scheme := signature.MustNew(120, 3)
	am, err := NewBSSF(scheme, sets, nil)
	if err != nil {
		t.Fatal(err)
	}
	for oid := uint64(1); oid <= uint64(nInitial); oid++ {
		if err := am.Insert(oid, sets[oid]); err != nil {
			t.Fatal(err)
		}
	}
	var reqs []SearchRequest
	for _, pred := range allPredicates {
		for _, q := range queries {
			reqs = append(reqs, SearchRequest{Pred: pred, Query: q})
		}
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < nExtra; i++ {
			oid := uint64(nInitial + i + 1)
			if err := am.Insert(oid, sets[oid]); err != nil {
				t.Errorf("insert %d: %v", oid, err)
				return
			}
		}
	}()
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := SearchMany(am, reqs); err != nil {
				t.Errorf("SearchMany: %v", err)
			}
		}()
	}
	wg.Wait()
}
