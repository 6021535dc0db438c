package pagestore

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"
)

// TestDiskFileDetectsTornPage is the no-WAL half of the durability
// contract: a page torn behind DiskFile's back is detected by its
// checksum, never silently read.
func TestDiskFileDetectsTornPage(t *testing.T) {
	path := filepath.Join(t.TempDir(), "pages.pag")
	f, err := OpenDiskFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Allocate(); err != nil {
		t.Fatal(err)
	}
	if err := f.WritePage(0, page(0x3c)); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[100] ^= 0xff // corrupt one data byte, leaving the trailer intact
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	f2, err := OpenDiskFile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f2.Close()
	buf := make([]byte, PageSize)
	err = f2.ReadPage(0, buf)
	if !errors.Is(err, ErrChecksum) {
		t.Fatalf("ReadPage on corrupt page: got %v, want ErrChecksum", err)
	}

	// A mangled trailer magic is likewise detected.
	raw[100] ^= 0xff
	raw[PageSize+5] ^= 0xff
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	f3, err := OpenDiskFile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f3.Close()
	if err := f3.ReadPage(0, buf); !errors.Is(err, ErrChecksum) {
		t.Fatalf("ReadPage on bad magic: got %v, want ErrChecksum", err)
	}
}

// crashDev returns an in-memory BlockFile that never crashes.
func crashDev() *CrashFile {
	return &CrashFile{clock: NewCrashClock(-1)}
}

func TestWALRoundTrip(t *testing.T) {
	dev := crashDev()
	w, err := openWAL(dev, "test.wal")
	if err != nil {
		t.Fatal(err)
	}
	if err := w.appendExtend("a", 3); err != nil {
		t.Fatal(err)
	}
	if err := w.appendPage("a", 2, page(0x11)); err != nil {
		t.Fatal(err)
	}
	if err := w.appendPage("b", 0, page(0x22)); err != nil {
		t.Fatal(err)
	}
	if err := w.commit(); err != nil {
		t.Fatal(err)
	}
	// A second transaction that never commits must not replay.
	if err := w.appendPage("a", 0, page(0x33)); err != nil {
		t.Fatal(err)
	}

	w2, err := openWAL(dev, "test.wal")
	if err != nil {
		t.Fatal(err)
	}
	images, extents, err := w2.replay()
	if err != nil {
		t.Fatal(err)
	}
	if len(images) != 2 {
		t.Fatalf("replayed %d images, want 2", len(images))
	}
	if images[0].tag != "a" || images[0].id != 2 || !bytes.Equal(images[0].data, page(0x11)) {
		t.Fatalf("image 0 = %s/%d", images[0].tag, images[0].id)
	}
	if images[1].tag != "b" || images[1].id != 0 || !bytes.Equal(images[1].data, page(0x22)) {
		t.Fatalf("image 1 = %s/%d", images[1].tag, images[1].id)
	}
	if extents["a"] != 3 || len(extents) != 1 {
		t.Fatalf("extents = %v, want a:3", extents)
	}
}

func TestWALTornTailIgnored(t *testing.T) {
	dev := crashDev()
	w, err := openWAL(dev, "test.wal")
	if err != nil {
		t.Fatal(err)
	}
	if err := w.appendPage("a", 0, page(0x44)); err != nil {
		t.Fatal(err)
	}
	if err := w.commit(); err != nil {
		t.Fatal(err)
	}
	if err := w.appendPage("a", 1, page(0x55)); err != nil {
		t.Fatal(err)
	}
	if err := w.commit(); err != nil {
		t.Fatal(err)
	}

	// Cut the log mid-way through the second transaction's page record:
	// only the first transaction survives replay.
	cut := int64(len(walMagic)) + int64(1+2+4+1+PageSize+4) + int64(1+8+4) + 37
	if err := dev.Truncate(cut); err != nil {
		t.Fatal(err)
	}
	w2, err := openWAL(dev, "test.wal")
	if err != nil {
		t.Fatal(err)
	}
	images, _, err := w2.replay()
	if err != nil {
		t.Fatal(err)
	}
	if len(images) != 1 || images[0].id != 0 || !bytes.Equal(images[0].data, page(0x44)) {
		t.Fatalf("torn replay returned %d images", len(images))
	}
}

func TestDurableFileCommitRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "pages.pag")
	f, err := OpenDurableFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := f.Allocate(); err != nil {
			t.Fatal(err)
		}
	}
	if err := f.WritePage(1, page(0x66)); err != nil {
		t.Fatal(err)
	}

	// Uncommitted writes are visible to the transaction itself...
	buf := make([]byte, PageSize)
	if err := f.ReadPage(1, buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, page(0x66)) {
		t.Fatal("transaction does not see its own write")
	}
	// ...including reads of allocated-but-unwritten pages.
	if err := f.ReadPage(2, buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, page(0)) {
		t.Fatal("allocated page is not zeroed before commit")
	}

	if err := f.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	f2, err := OpenDurableFile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f2.Close()
	if f2.NumPages() != 3 {
		t.Fatalf("NumPages = %d after reopen, want 3", f2.NumPages())
	}
	if err := f2.ReadPage(1, buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, page(0x66)) {
		t.Fatal("committed page lost across reopen")
	}
}

// TestOpenDiskFileReplaysSidecar builds a WAL sidecar holding a committed
// transaction that was never applied — the state a crash between commit
// and apply leaves — and checks OpenDiskFile replays it.
func TestOpenDiskFileReplaysSidecar(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "pages.pag")

	f, err := OpenDiskFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Allocate(); err != nil {
		t.Fatal(err)
	}
	if err := f.WritePage(0, page(0x10)); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	wf, err := os.OpenFile(path+walSuffix, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	w, err := openWAL(osBlockFile{wf}, path+walSuffix)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.appendExtend("", 2); err != nil {
		t.Fatal(err)
	}
	if err := w.appendPage("", 0, page(0x20)); err != nil {
		t.Fatal(err)
	}
	if err := w.appendPage("", 1, page(0x21)); err != nil {
		t.Fatal(err)
	}
	if err := w.commit(); err != nil {
		t.Fatal(err)
	}
	if err := wf.Close(); err != nil {
		t.Fatal(err)
	}

	f2, err := OpenDiskFile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f2.Close()
	if f2.NumPages() != 2 {
		t.Fatalf("NumPages = %d after sidecar replay, want 2", f2.NumPages())
	}
	buf := make([]byte, PageSize)
	for i, want := range []byte{0x20, 0x21} {
		if err := f2.ReadPage(PageID(i), buf); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf, page(want)) {
			t.Fatalf("page %d not replayed from sidecar", i)
		}
	}
	fi, err := os.Stat(path + walSuffix)
	if err != nil {
		t.Fatal(err)
	}
	if fi.Size() != 0 {
		t.Fatalf("sidecar not truncated after replay: size %d", fi.Size())
	}
}

func TestDurableStoreSpansFiles(t *testing.T) {
	fs := NewCrashFS(NewCrashClock(-1))
	s, err := OpenDurableStoreFS(fs)
	if err != nil {
		t.Fatal(err)
	}
	names := []string{"bssf.oid", "bssf.slice.0001", "nested/a"}
	for i, name := range names {
		f, err := s.Open(name)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.Allocate(); err != nil {
			t.Fatal(err)
		}
		if err := f.WritePage(0, page(byte(i+1))); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := OpenDurableStoreFS(fs)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	buf := make([]byte, PageSize)
	for i, name := range names {
		f, err := s2.Open(name)
		if err != nil {
			t.Fatal(err)
		}
		if f.NumPages() != 1 {
			t.Fatalf("%s: NumPages = %d, want 1", name, f.NumPages())
		}
		if err := f.ReadPage(0, buf); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf, page(byte(i+1))) {
			t.Fatalf("%s: page lost across reopen", name)
		}
	}
}

// TestDurableStoreConcurrentReaders drives one writer committing batches
// while readers scan committed pages — the single-writer model the store
// documents — and is primarily meaningful under -race.
func TestDurableStoreConcurrentReaders(t *testing.T) {
	fs := NewCrashFS(NewCrashClock(-1))
	s, err := OpenDurableStoreFS(fs)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	f, err := s.Open("shared")
	if err != nil {
		t.Fatal(err)
	}
	const npages = 8
	for i := 0; i < npages; i++ {
		if _, err := f.Allocate(); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Commit(); err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	stop := make(chan struct{})
	errc := make(chan error, 4)
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			buf := make([]byte, PageSize)
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				if err := f.ReadPage(PageID(i%npages), buf); err != nil {
					errc <- fmt.Errorf("reader: %w", err)
					return
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(stop)
		for round := 0; round < 50; round++ {
			if err := f.WritePage(PageID(round%npages), page(byte(round))); err != nil {
				errc <- fmt.Errorf("writer: %w", err)
				return
			}
			if round%5 == 4 {
				if err := s.Commit(); err != nil {
					errc <- fmt.Errorf("commit: %w", err)
					return
				}
			}
		}
	}()
	wg.Wait()
	select {
	case err := <-errc:
		t.Fatal(err)
	default:
	}
}

// stallSyncFS is a BlockFS whose log device parks in Sync until released,
// so a test can stand inside a commit's fsync.
type stallSyncFS struct {
	BlockFS
	entered, release chan struct{}
}

func (fs stallSyncFS) Open(name string) (BlockFile, error) {
	dev, err := fs.BlockFS.Open(name)
	if err != nil || name != storeWALName {
		return dev, err
	}
	return stallSyncFile{dev, fs}, nil
}

type stallSyncFile struct {
	BlockFile
	fs stallSyncFS
}

func (f stallSyncFile) Sync() error {
	f.fs.entered <- struct{}{}
	<-f.fs.release
	return f.BlockFile.Sync()
}

// TestReadersDoNotWaitForLogSync: while a commit sits in the log's fsync,
// a reader of a file in that commit is served — from the overlay, the
// transaction's own image — instead of queueing behind the sync, and a
// writer of that file waits until the commit is over.
func TestReadersDoNotWaitForLogSync(t *testing.T) {
	fs := stallSyncFS{NewCrashFS(nil), make(chan struct{}), make(chan struct{})}
	store, err := OpenDurableStoreFS(fs)
	if err != nil {
		t.Fatal(err)
	}
	f, err := store.Open("data")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Allocate(); err != nil {
		t.Fatal(err)
	}
	if err := f.WritePage(0, page(0x71)); err != nil {
		t.Fatal(err)
	}
	committed := make(chan error, 1)
	go func() { committed <- store.Commit() }()
	<-fs.entered // the commit is inside the log's fsync

	buf := make([]byte, PageSize)
	if err := f.ReadPage(0, buf); err != nil || !bytes.Equal(buf, page(0x71)) {
		t.Fatalf("read during the log sync: err %v, first byte %#x", err, buf[0])
	}
	wrote := make(chan error, 1)
	go func() { wrote <- f.WritePage(0, page(0x72)) }()
	select {
	case err := <-wrote:
		t.Fatalf("a write slipped into the commit between its log and its apply: %v", err)
	case <-time.After(20 * time.Millisecond):
	}
	fs.release <- struct{}{}
	if err := <-committed; err != nil {
		t.Fatalf("commit: %v", err)
	}
	if err := <-wrote; err != nil {
		t.Fatalf("write after the commit: %v", err)
	}
}
