package core

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync/atomic"
	"testing"

	"sigfile/internal/pagestore"
	"sigfile/internal/signature"
)

// cancelStore wraps a pagestore.Store so that the n-th page read after
// arming fires a context cancellation — cancellation arrives inside the
// frame scan itself (FSSF.scanFrame), not during drop resolution, which
// TestSearchContextCancelMidSearch already covers.
type cancelStore struct {
	inner  pagestore.Store
	cancel atomic.Value // context.CancelFunc
	left   atomic.Int32
}

func (s *cancelStore) Open(name string) (pagestore.File, error) {
	f, err := s.inner.Open(name)
	if err != nil {
		return nil, err
	}
	return &cancelFile{File: f, s: s}, nil
}

func (s *cancelStore) Close() error { return s.inner.Close() }

// arm schedules cancel to fire on the n-th subsequent page read.
func (s *cancelStore) arm(cancel context.CancelFunc, n int32) {
	s.cancel.Store(cancel)
	s.left.Store(n)
}

func (s *cancelStore) disarm() {
	s.left.Store(-1 << 30)
}

type cancelFile struct {
	pagestore.File
	s *cancelStore
}

func (f *cancelFile) ReadPage(id pagestore.PageID, buf []byte) error {
	if f.s.left.Add(-1) == 0 {
		f.s.cancel.Load().(context.CancelFunc)()
	}
	return f.File.ReadPage(id, buf)
}

// TestFSSFScanFrameCancel: a cancellation that lands mid-frame-scan
// stops the search with an error matching ctx.Err(), and the facility
// stays fully usable afterward.
func TestFSSFScanFrameCancel(t *testing.T) {
	const n, dt, v = 300, 5, 40
	rng := rand.New(rand.NewSource(77))
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
	query := []string{universe[1], universe[2]}
	want := bruteForce(sets, signature.Overlap, query)

	store := &cancelStore{inner: pagestore.NewMemStore()}
	// S=1024 bits = 128 bytes per record = 32 records per page, so
	// each frame file spans ~10 pages and the cancellation lands
	// inside scanFrame's page loop, not between frames.
	fssf, err := NewFSSF(signature.MustFrameScheme(8, 1024, 3), MapSource(sets), store)
	if err != nil {
		t.Fatal(err)
	}
	store.disarm() // inserts read pages too; only the search may trip
	for oid := uint64(1); oid <= uint64(n); oid++ {
		if err := fssf.Insert(oid, sets[oid]); err != nil {
			t.Fatalf("insert %d: %v", oid, err)
		}
	}

	ctx, cancel := context.WithCancel(context.Background())
	store.arm(cancel, 2)
	_, err = fssf.SearchContext(ctx, signature.Overlap, query)
	cancel()
	if !errors.Is(err, ctx.Err()) {
		t.Errorf("scan-frame cancel: err = %v, want errors.Is(err, %v)", err, ctx.Err())
	}

	// Disarm and search again: the aborted scan must not have left
	// partial state behind.
	store.disarm()
	res, err := fssf.SearchContext(context.Background(), signature.Overlap, query)
	if err != nil {
		t.Fatalf("after cancel: %v", err)
	}
	if !sameOIDs(want, res.OIDs) {
		t.Errorf("after cancel: got %v want %v", res.OIDs, want)
	}
}
