package pagestore

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
	"testing/quick"
	"unsafe"
)

// fileFactories enumerates the File implementations under test so every
// conformance test runs against each.
func fileFactories(t *testing.T) map[string]func() File {
	t.Helper()
	var diskN int
	return map[string]func() File{
		"mem": func() File { return NewMemFile() },
		"disk": func() File {
			diskN++
			f, err := OpenDiskFile(filepath.Join(t.TempDir(), fmt.Sprintf("pages%d.pag", diskN)))
			if err != nil {
				t.Fatal(err)
			}
			return f
		},
		"pooled": func() File {
			p, err := NewBufferPool(NewMemFile(), 4)
			if err != nil {
				t.Fatal(err)
			}
			return p
		},
	}
}

func page(fill byte) []byte {
	b := make([]byte, PageSize)
	for i := range b {
		b[i] = fill
	}
	return b
}

func TestFileConformance(t *testing.T) {
	for name, mk := range fileFactories(t) {
		t.Run(name, func(t *testing.T) {
			f := mk()
			defer f.Close()

			if f.NumPages() != 0 {
				t.Fatalf("fresh file has %d pages", f.NumPages())
			}
			id0, err := f.Allocate()
			if err != nil {
				t.Fatal(err)
			}
			id1, err := f.Allocate()
			if err != nil {
				t.Fatal(err)
			}
			if id0 != 0 || id1 != 1 || f.NumPages() != 2 {
				t.Fatalf("allocation ids %d,%d numpages %d", id0, id1, f.NumPages())
			}

			// Fresh pages read back zeroed.
			buf := page(0xff)
			if err := f.ReadPage(id0, buf); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(buf, page(0)) {
				t.Fatal("fresh page is not zeroed")
			}

			// Round trip.
			if err := f.WritePage(id1, page(0xab)); err != nil {
				t.Fatal(err)
			}
			if err := f.ReadPage(id1, buf); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(buf, page(0xab)) {
				t.Fatal("page contents did not round trip")
			}

			// Out of range.
			if err := f.ReadPage(7, buf); !errors.Is(err, ErrPageOutOfRange) {
				t.Fatalf("read OOR: %v", err)
			}
			if err := f.WritePage(7, buf); !errors.Is(err, ErrPageOutOfRange) {
				t.Fatalf("write OOR: %v", err)
			}

			// Short buffers.
			if err := f.ReadPage(id0, make([]byte, 10)); err == nil {
				t.Fatal("short read buffer accepted")
			}
			if err := f.WritePage(id0, make([]byte, 10)); err == nil {
				t.Fatal("short write buffer accepted")
			}
			if err := f.Sync(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestMemFileClosed(t *testing.T) {
	f := NewMemFile()
	id, _ := f.Allocate()
	f.Close()
	buf := page(0)
	if err := f.ReadPage(id, buf); !errors.Is(err, ErrClosed) {
		t.Fatalf("read after close: %v", err)
	}
	if err := f.WritePage(id, buf); !errors.Is(err, ErrClosed) {
		t.Fatalf("write after close: %v", err)
	}
	if _, err := f.Allocate(); !errors.Is(err, ErrClosed) {
		t.Fatalf("alloc after close: %v", err)
	}
}

func TestStatsCounting(t *testing.T) {
	f := NewMemFile()
	id, _ := f.Allocate()
	buf := page(1)
	for i := 0; i < 5; i++ {
		if err := f.WritePage(id, buf); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 3; i++ {
		if err := f.ReadPage(id, buf); err != nil {
			t.Fatal(err)
		}
	}
	r, w, a := f.Stats().Snapshot()
	if r != 3 || w != 5 || a != 1 {
		t.Fatalf("stats r=%d w=%d a=%d, want 3,5,1", r, w, a)
	}
	if f.Stats().Accesses() != 8 {
		t.Fatalf("Accesses = %d, want 8", f.Stats().Accesses())
	}
	f.Stats().Reset()
	if f.Stats().Accesses() != 0 {
		t.Fatal("Reset did not zero counters")
	}
}

func TestStatsAdd(t *testing.T) {
	var a, b Stats
	a.reads.Store(2)
	b.reads.Store(3)
	b.writes.Store(4)
	a.Add(&b)
	if a.Reads() != 5 || a.Writes() != 4 {
		t.Fatalf("Add: %s", a.String())
	}
}

func TestDiskFilePersistence(t *testing.T) {
	path := filepath.Join(t.TempDir(), "persist.pag")
	f, err := OpenDiskFile(path)
	if err != nil {
		t.Fatal(err)
	}
	id, _ := f.Allocate()
	if err := f.WritePage(id, page(0x5a)); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	// Reopen and verify the page survived.
	f2, err := OpenDiskFile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f2.Close()
	if f2.NumPages() != 1 {
		t.Fatalf("reopened NumPages = %d, want 1", f2.NumPages())
	}
	buf := page(0)
	if err := f2.ReadPage(0, buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, page(0x5a)) {
		t.Fatal("page contents lost across reopen")
	}
}

func TestDiskFileTruncatesTornTail(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "torn.pag")
	f, err := OpenDiskFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if _, err := f.Allocate(); err != nil {
			t.Fatal(err)
		}
	}
	if err := f.WritePage(1, page(0x77)); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	// Simulate an append torn by a crash: a partial frame at the tail.
	osf, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := osf.Write(make([]byte, diskFrameSize/3)); err != nil {
		t.Fatal(err)
	}
	if err := osf.Close(); err != nil {
		t.Fatal(err)
	}

	f2, err := OpenDiskFile(path)
	if err != nil {
		t.Fatalf("OpenDiskFile rejected torn tail: %v", err)
	}
	defer f2.Close()
	if f2.NumPages() != 2 {
		t.Fatalf("NumPages = %d after torn-tail truncation, want 2", f2.NumPages())
	}
	buf := make([]byte, PageSize)
	if err := f2.ReadPage(1, buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, page(0x77)) {
		t.Fatal("surviving page corrupted by torn-tail truncation")
	}
}

func TestBufferPoolHitAccounting(t *testing.T) {
	inner := NewMemFile()
	pool, err := NewBufferPool(inner, 2)
	if err != nil {
		t.Fatal(err)
	}
	ids := make([]PageID, 3)
	for i := range ids {
		ids[i], _ = pool.Allocate()
	}
	buf := page(0)
	// First touch of each page is a miss; re-reading a cached page is a hit.
	if err := pool.ReadPage(ids[0], buf); err != nil {
		t.Fatal(err)
	}
	if err := pool.ReadPage(ids[0], buf); err != nil {
		t.Fatal(err)
	}
	if pool.Hits() != 1 || pool.Misses() != 1 {
		t.Fatalf("hits=%d misses=%d, want 1,1", pool.Hits(), pool.Misses())
	}
	// Physical reads: only the miss.
	if inner.Stats().Reads() != 1 {
		t.Fatalf("physical reads = %d, want 1", inner.Stats().Reads())
	}
	// Fill past capacity to force eviction of ids[0], then re-read it: miss.
	pool.ReadPage(ids[1], buf)
	pool.ReadPage(ids[2], buf)
	pool.ReadPage(ids[0], buf)
	if pool.Misses() != 4 {
		t.Fatalf("misses = %d, want 4 after eviction", pool.Misses())
	}
}

func TestBufferPoolWriteBack(t *testing.T) {
	inner := NewMemFile()
	pool, err := NewBufferPool(inner, 1)
	if err != nil {
		t.Fatal(err)
	}
	a, _ := pool.Allocate()
	b, _ := pool.Allocate()
	if err := pool.WritePage(a, page(0x11)); err != nil {
		t.Fatal(err)
	}
	// Writing b evicts a, which must be written back to inner.
	if err := pool.WritePage(b, page(0x22)); err != nil {
		t.Fatal(err)
	}
	buf := page(0)
	if err := inner.ReadPage(a, buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, page(0x11)) {
		t.Fatal("evicted dirty page not written back")
	}
	// b is still only in the cache.
	inner.ReadPage(b, buf)
	if bytes.Equal(buf, page(0x22)) {
		t.Fatal("dirty page reached inner before eviction or sync")
	}
	if err := pool.Sync(); err != nil {
		t.Fatal(err)
	}
	inner.ReadPage(b, buf)
	if !bytes.Equal(buf, page(0x22)) {
		t.Fatal("Sync did not flush dirty page")
	}
}

func TestBufferPoolInvalidCapacity(t *testing.T) {
	if _, err := NewBufferPool(NewMemFile(), 0); err == nil {
		t.Fatal("capacity 0 accepted")
	}
}

func TestMemStoreSharing(t *testing.T) {
	s := NewMemStore()
	a, err := s.Open("slices/0")
	if err != nil {
		t.Fatal(err)
	}
	b, err := s.Open("slices/0")
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatal("Open returned distinct files for the same name")
	}
	c, _ := s.Open("slices/1")
	if a == c {
		t.Fatal("distinct names share a file")
	}
	s.Close()
}

func TestDiskStore(t *testing.T) {
	s, err := NewDiskStore(filepath.Join(t.TempDir(), "store"))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	f, err := s.Open("oid")
	if err != nil {
		t.Fatal(err)
	}
	id, _ := f.Allocate()
	if err := f.WritePage(id, page(9)); err != nil {
		t.Fatal(err)
	}
	again, _ := s.Open("oid")
	if again != f {
		t.Fatal("DiskStore.Open not idempotent")
	}
}

func TestFaultFile(t *testing.T) {
	inner := NewMemFile()
	ff := NewFaultFile(inner)
	id, _ := ff.Allocate()
	buf := page(0)

	ff.FailReadAfter(1)
	if err := ff.ReadPage(id, buf); err != nil {
		t.Fatalf("read 0 should pass: %v", err)
	}
	if err := ff.ReadPage(id, buf); !errors.Is(err, ErrInjected) {
		t.Fatalf("read 1 should fail: %v", err)
	}
	if err := ff.ReadPage(id, buf); err != nil {
		t.Fatalf("fault should disarm after firing: %v", err)
	}

	ff.FailWriteAfter(0)
	if err := ff.WritePage(id, buf); !errors.Is(err, ErrInjected) {
		t.Fatalf("write should fail: %v", err)
	}
	ff.FailAllocAfter(0)
	if _, err := ff.Allocate(); !errors.Is(err, ErrInjected) {
		t.Fatalf("alloc should fail: %v", err)
	}
}

func TestFaultStore(t *testing.T) {
	fs := NewFaultStore(NewMemStore())
	f, err := fs.Open("x")
	if err != nil {
		t.Fatal(err)
	}
	if fs.File("x") == nil {
		t.Fatal("File did not return opened wrapper")
	}
	if fs.File("missing") != nil {
		t.Fatal("File invented a wrapper")
	}
	again, _ := fs.Open("x")
	if f != again {
		t.Fatal("FaultStore.Open not idempotent")
	}
}

// Property: a random sequence of writes followed by reads behaves like a
// map from page id to last written content, on every implementation.
func TestPropertyFileActsLikeMap(t *testing.T) {
	for name, mk := range fileFactories(t) {
		t.Run(name, func(t *testing.T) {
			check := func(seed int64) bool {
				f := mk()
				defer f.Close()
				rng := rand.New(rand.NewSource(seed))
				model := make(map[PageID]byte)
				for i := 0; i < 50; i++ {
					switch rng.Intn(3) {
					case 0:
						id, err := f.Allocate()
						if err != nil {
							return false
						}
						model[id] = 0
					case 1:
						if len(model) == 0 {
							continue
						}
						id := PageID(rng.Intn(f.NumPages()))
						fill := byte(rng.Intn(256))
						if err := f.WritePage(id, page(fill)); err != nil {
							return false
						}
						model[id] = fill
					case 2:
						if len(model) == 0 {
							continue
						}
						id := PageID(rng.Intn(f.NumPages()))
						buf := page(0xee)
						if err := f.ReadPage(id, buf); err != nil {
							return false
						}
						if !bytes.Equal(buf, page(model[id])) {
							return false
						}
					}
				}
				return true
			}
			if err := quick.Check(check, &quick.Config{MaxCount: 20}); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func writeFile(path string, data []byte) error {
	return os.WriteFile(path, data, 0o644)
}

func TestPrefixedStore(t *testing.T) {
	inner := NewMemStore()
	a := Prefixed(inner, "idx1")
	b := Prefixed(inner, "idx2")
	fa, err := a.Open("oid")
	if err != nil {
		t.Fatal(err)
	}
	fb, err := b.Open("oid")
	if err != nil {
		t.Fatal(err)
	}
	if fa == fb {
		t.Fatal("prefixed stores share a file for the same inner name")
	}
	// The view maps onto namespaced names in the inner store.
	direct, _ := inner.Open("idx1/oid")
	if direct != fa {
		t.Fatal("prefix mapping wrong")
	}
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	// Closing the view must not close the inner store's files.
	if _, err := fa.Allocate(); err != nil {
		t.Fatalf("inner file closed by view: %v", err)
	}
}

func TestDiskStoreNameValidation(t *testing.T) {
	s, err := NewDiskStore(filepath.Join(t.TempDir(), "store"))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for _, bad := range []string{"", "../escape", "a/../../b", "/abs"} {
		if _, err := s.Open(bad); err == nil {
			t.Errorf("Open(%q) accepted", bad)
		}
	}
	// Nested names create subdirectories.
	f, err := s.Open("objects/Student")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Allocate(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(s.dir, "objects", "Student.pag")); err != nil {
		t.Fatalf("nested file not created: %v", err)
	}
}

// TestDiskFileOwnsNoPageBuffer: a store keeps one DiskFile per file it
// has opened (an LSM tenant: 501 per segment), so the struct must stay
// small — page-sized scratch comes from framePool per operation.
func TestDiskFileOwnsNoPageBuffer(t *testing.T) {
	if size := unsafe.Sizeof(DiskFile{}); size > 256 {
		t.Fatalf("DiskFile is %d bytes; it must not own page-sized buffers", size)
	}
}
