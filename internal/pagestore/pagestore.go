// Package pagestore provides the paged storage substrate on which every
// access facility in this library is built.
//
// The cost model of Ishikawa, Kitagawa and Ohbo (SIGMOD 1993) measures
// every facility in *page accesses*: the number of disk pages read or
// written while answering a query or applying an update. To let the running
// system be compared against the analytical model, every page file in this
// package counts its accesses in a Stats structure that experiments can
// snapshot and reset.
//
// Two implementations of File are provided: MemFile, an in-memory page
// vector used by the experiments (the paper's "disk" is hypothetical, so an
// in-memory store with exact accounting reproduces the metric without the
// noise of a real device), and DiskFile, an os.File-backed implementation
// for durability demos. A write-back LRU BufferPool can be layered over any
// File for the buffering ablation study.
package pagestore

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"

	"sigfile/internal/obs"
)

// PageSize is the size of every page in bytes, the paper's parameter
// P = 4096.
const PageSize = 4096

// PageID identifies a page within a File. Pages are numbered from 0 in
// allocation order.
type PageID uint32

// ErrPageOutOfRange is returned when reading or writing a page that has
// not been allocated.
var ErrPageOutOfRange = errors.New("pagestore: page out of range")

// ErrClosed is returned by operations on a closed file.
var ErrClosed = errors.New("pagestore: file is closed")

// ErrChecksum is returned by DiskFile.ReadPage when a page's stored
// CRC32C does not match its contents — the signature of a torn or
// corrupted write. A page protected by the WAL is repaired on recovery;
// an unprotected torn page is detected, never silently read.
var ErrChecksum = errors.New("pagestore: page checksum mismatch")

// Process-wide page-access instruments: every Stats increment also feeds
// these obs counters, so the metrics export sees the total page traffic
// of all files — memory, disk, buffered — without per-file registry
// lookups on the hot path.
var (
	obsReads  = obs.Default().Counter("sigfile_pagestore_reads_total")
	obsWrites = obs.Default().Counter("sigfile_pagestore_writes_total")
	obsAllocs = obs.Default().Counter("sigfile_pagestore_allocs_total")
)

// Stats counts physical page accesses. All counters are cumulative; use
// Snapshot/Reset around a measured operation. Counters are updated
// atomically so a File may be shared across goroutines.
type Stats struct {
	reads  atomic.Int64
	writes atomic.Int64
	allocs atomic.Int64
}

// countRead records one page read in this file's counters and the
// process-wide metrics. countWrite and countAlloc mirror it. Every File
// implementation accounts through these, so the obs registry's totals
// cover exactly what Stats covers.
func (s *Stats) countRead() {
	s.reads.Add(1)
	obsReads.Inc()
}

func (s *Stats) countWrite() {
	s.writes.Add(1)
	obsWrites.Inc()
}

func (s *Stats) countAlloc() {
	s.allocs.Add(1)
	obsAllocs.Inc()
}

// Reads returns the cumulative number of page reads.
func (s *Stats) Reads() int64 { return s.reads.Load() }

// Writes returns the cumulative number of page writes (including the
// write that initializes a newly allocated page).
func (s *Stats) Writes() int64 { return s.writes.Load() }

// Allocs returns the cumulative number of page allocations.
func (s *Stats) Allocs() int64 { return s.allocs.Load() }

// Accesses returns reads + writes, the paper's page-access metric.
func (s *Stats) Accesses() int64 { return s.Reads() + s.Writes() }

// Reset zeroes all counters.
func (s *Stats) Reset() {
	s.reads.Store(0)
	s.writes.Store(0)
	s.allocs.Store(0)
}

// Snapshot returns the current counter values as plain integers.
func (s *Stats) Snapshot() (reads, writes, allocs int64) {
	return s.Reads(), s.Writes(), s.Allocs()
}

// Add accumulates the counters of o into s. Useful to aggregate the stats
// of the many slice files of a bit-sliced signature file.
func (s *Stats) Add(o *Stats) {
	s.reads.Add(o.Reads())
	s.writes.Add(o.Writes())
	s.allocs.Add(o.Allocs())
}

func (s *Stats) String() string {
	return fmt.Sprintf("reads=%d writes=%d allocs=%d", s.Reads(), s.Writes(), s.Allocs())
}

// File is a sequence of fixed-size pages with access accounting.
//
// Implementations must be safe for concurrent use by multiple goroutines.
type File interface {
	// ReadPage copies page id into buf, which must be at least PageSize
	// bytes, and counts one read.
	ReadPage(id PageID, buf []byte) error
	// WritePage overwrites page id from buf, which must be at least
	// PageSize bytes, and counts one write.
	WritePage(id PageID, buf []byte) error
	// Allocate appends a zeroed page and returns its id. Allocation by
	// itself counts as an allocation, not a read or write; the caller's
	// subsequent WritePage is the accounted access, mirroring the paper's
	// "one page access to append".
	Allocate() (PageID, error)
	// NumPages returns the number of allocated pages.
	NumPages() int
	// Stats returns the access counters of this file. The returned pointer
	// stays valid for the life of the file.
	Stats() *Stats
	// Sync flushes buffered state to the underlying medium, if any.
	Sync() error
	// Close releases resources. Further operations return ErrClosed.
	Close() error
}

// MemFile is an in-memory File. The zero value is not usable; call
// NewMemFile.
type MemFile struct {
	mu     sync.RWMutex
	pages  [][]byte
	closed bool
	stats  Stats
}

// NewMemFile returns an empty in-memory page file.
func NewMemFile() *MemFile { return &MemFile{} }

// ReadPage implements File.
func (f *MemFile) ReadPage(id PageID, buf []byte) error {
	if len(buf) < PageSize {
		return fmt.Errorf("pagestore: read buffer %d bytes, need %d", len(buf), PageSize)
	}
	f.mu.RLock()
	defer f.mu.RUnlock()
	if f.closed {
		return ErrClosed
	}
	if int(id) >= len(f.pages) {
		return fmt.Errorf("%w: read page %d of %d", ErrPageOutOfRange, id, len(f.pages))
	}
	copy(buf[:PageSize], f.pages[id])
	f.stats.countRead()
	return nil
}

// WritePage implements File.
func (f *MemFile) WritePage(id PageID, buf []byte) error {
	if len(buf) < PageSize {
		return fmt.Errorf("pagestore: write buffer %d bytes, need %d", len(buf), PageSize)
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		return ErrClosed
	}
	if int(id) >= len(f.pages) {
		return fmt.Errorf("%w: write page %d of %d", ErrPageOutOfRange, id, len(f.pages))
	}
	copy(f.pages[id], buf[:PageSize])
	f.stats.countWrite()
	return nil
}

// Allocate implements File.
func (f *MemFile) Allocate() (PageID, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		return 0, ErrClosed
	}
	f.pages = append(f.pages, make([]byte, PageSize))
	f.stats.countAlloc()
	return PageID(len(f.pages) - 1), nil
}

// NumPages implements File.
func (f *MemFile) NumPages() int {
	f.mu.RLock()
	defer f.mu.RUnlock()
	return len(f.pages)
}

// Stats implements File.
func (f *MemFile) Stats() *Stats { return &f.stats }

// Sync implements File; it is a no-op for an in-memory file.
func (f *MemFile) Sync() error { return nil }

// Close implements File.
func (f *MemFile) Close() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.closed = true
	return nil
}

// Page frames on disk carry an 8-byte trailer after the PageSize data
// bytes: a CRC32C (Castagnoli) of the data followed by a format magic.
// ReadPage recomputes the CRC and fails with ErrChecksum on mismatch, so
// a write torn by a crash (or bit rot) is detected instead of silently
// returned to the facility above.
const (
	pageTrailerSize = 8
	diskFrameSize   = PageSize + pageTrailerSize
	pageMagic       = 0x53504731 // "SPG1", page-frame format version 1
)

// castagnoli is the CRC32C polynomial table shared by page trailers and
// WAL records.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// DiskFile is a File backed by a BlockFile (usually an operating-system
// file). Page i's frame lives at byte offset i*diskFrameSize: PageSize
// data bytes followed by the checksum trailer.
type DiskFile struct {
	mu     sync.Mutex
	f      BlockFile
	name   string
	npages int
	closed bool
	stats  Stats
}

// framePool holds the page-frame scratch of DiskFile operations. A file
// borrows a frame per operation instead of owning one: a store keeps a
// DiskFile for every file it has opened — an LSM tenant opens 501 per BSSF
// segment and a DurableStore never forgets one — so a frame per file is
// memory that grows with every flush.
var framePool = sync.Pool{New: func() any { return new([diskFrameSize]byte) }}

// OpenDiskFile opens (creating if necessary) the page file at path. An
// existing file must have a size that is a multiple of the page frame
// size. If a WAL sidecar (path + ".wal") from a crashed durable session
// exists, its committed records are replayed into the file and the log
// is truncated before the file is returned — see DurableFile.
func OpenDiskFile(path string) (*DiskFile, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("pagestore: open %s: %w", path, err)
	}
	d, err := newDiskFile(osBlockFile{f}, path)
	if err != nil {
		f.Close()
		return nil, err
	}
	if fi, err := os.Stat(path + walSuffix); err == nil && fi.Size() > 0 {
		if err := recoverSidecar(path, d); err != nil {
			d.Close()
			return nil, err
		}
	}
	return d, nil
}

// newDiskFile wraps an already-open device. name is used in errors only.
// A trailing partial frame — the remnant of an append torn by a crash —
// is truncated away; the page it belonged to was never committed without
// a WAL record, so recovery re-creates it if it matters.
func newDiskFile(bf BlockFile, name string) (*DiskFile, error) {
	size, err := bf.Size()
	if err != nil {
		return nil, fmt.Errorf("pagestore: size of %s: %w", name, err)
	}
	if rem := size % diskFrameSize; rem != 0 {
		size -= rem
		if err := bf.Truncate(size); err != nil {
			return nil, fmt.Errorf("pagestore: truncate torn tail of %s: %w", name, err)
		}
	}
	return &DiskFile{f: bf, name: name, npages: int(size / diskFrameSize)}, nil
}

// writeFrame writes data plus its checksum trailer as page id's frame.
// Caller holds d.mu.
func (d *DiskFile) writeFrame(id int, data []byte) error {
	frame := framePool.Get().(*[diskFrameSize]byte)
	defer framePool.Put(frame)
	copy(frame[:PageSize], data[:PageSize])
	binary.LittleEndian.PutUint32(frame[PageSize:], crc32.Checksum(frame[:PageSize], castagnoli))
	binary.LittleEndian.PutUint32(frame[PageSize+4:], pageMagic)
	_, err := d.f.WriteAt(frame[:], int64(id)*diskFrameSize)
	return err
}

// ReadPage implements File. It verifies the page checksum and returns an
// error wrapping ErrChecksum for a torn or corrupt page.
func (d *DiskFile) ReadPage(id PageID, buf []byte) error {
	if len(buf) < PageSize {
		return fmt.Errorf("pagestore: read buffer %d bytes, need %d", len(buf), PageSize)
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return ErrClosed
	}
	if int(id) >= d.npages {
		return fmt.Errorf("%w: read page %d of %d", ErrPageOutOfRange, id, d.npages)
	}
	frame := framePool.Get().(*[diskFrameSize]byte)
	defer framePool.Put(frame)
	if _, err := d.f.ReadAt(frame[:], int64(id)*diskFrameSize); err != nil {
		return fmt.Errorf("pagestore: read page %d: %w", id, err)
	}
	if magic := binary.LittleEndian.Uint32(frame[PageSize+4:]); magic != pageMagic {
		return fmt.Errorf("%w: %s page %d has bad frame magic %#x", ErrChecksum, d.name, id, magic)
	}
	want := binary.LittleEndian.Uint32(frame[PageSize:])
	if got := crc32.Checksum(frame[:PageSize], castagnoli); got != want {
		return fmt.Errorf("%w: %s page %d crc %#x, stored %#x", ErrChecksum, d.name, id, got, want)
	}
	copy(buf[:PageSize], frame[:PageSize])
	d.stats.countRead()
	return nil
}

// WritePage implements File. The data and its checksum trailer are
// written as one frame; a crash mid-write leaves a checksum mismatch
// that ReadPage detects.
func (d *DiskFile) WritePage(id PageID, buf []byte) error {
	if len(buf) < PageSize {
		return fmt.Errorf("pagestore: write buffer %d bytes, need %d", len(buf), PageSize)
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return ErrClosed
	}
	if int(id) >= d.npages {
		return fmt.Errorf("%w: write page %d of %d", ErrPageOutOfRange, id, d.npages)
	}
	if err := d.writeFrame(int(id), buf); err != nil {
		return fmt.Errorf("pagestore: write page %d: %w", id, err)
	}
	d.stats.countWrite()
	return nil
}

// Allocate implements File.
func (d *DiskFile) Allocate() (PageID, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return 0, ErrClosed
	}
	var zero [PageSize]byte
	if err := d.writeFrame(d.npages, zero[:]); err != nil {
		return 0, fmt.Errorf("pagestore: extend to page %d: %w", d.npages, err)
	}
	d.npages++
	d.stats.countAlloc()
	return PageID(d.npages - 1), nil
}

// extendTo grows the file to at least n pages with zeroed frames; WAL
// recovery uses it to re-create allocations of a committed transaction.
func (d *DiskFile) extendTo(n int) error {
	for d.NumPages() < n {
		if _, err := d.Allocate(); err != nil {
			return err
		}
	}
	return nil
}

// NumPages implements File.
func (d *DiskFile) NumPages() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.npages
}

// Stats implements File.
func (d *DiskFile) Stats() *Stats { return &d.stats }

// Sync implements File.
func (d *DiskFile) Sync() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return ErrClosed
	}
	return d.f.Sync()
}

// Close implements File.
func (d *DiskFile) Close() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return nil
	}
	d.closed = true
	return d.f.Close()
}

// Store creates and opens named page files. It abstracts "a directory of
// files" so that a bit-sliced signature file can manage its F slice files
// plus an OID file uniformly in memory or on disk.
type Store interface {
	// Open returns the page file with the given name, creating it empty if
	// it does not exist.
	Open(name string) (File, error)
	// Close closes every file opened through this store.
	Close() error
}

// MemStore is an in-memory Store.
type MemStore struct {
	mu    sync.Mutex
	files map[string]*MemFile
}

// NewMemStore returns an empty in-memory store.
func NewMemStore() *MemStore {
	return &MemStore{files: make(map[string]*MemFile)}
}

// Open implements Store.
func (s *MemStore) Open(name string) (File, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	f, ok := s.files[name]
	if !ok {
		f = NewMemFile()
		s.files[name] = f
	}
	return f, nil
}

// Close implements Store.
func (s *MemStore) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, f := range s.files {
		f.Close()
	}
	return nil
}

// EachFile calls fn for every file opened through the store. Experiments
// use it to aggregate page-access statistics across a facility's files.
func (s *MemStore) EachFile(fn func(name string, f File)) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for name, f := range s.files {
		fn(name, f)
	}
}

// TotalStats sums the access counters of every opened file.
func (s *MemStore) TotalStats() (reads, writes int64) {
	s.EachFile(func(_ string, f File) {
		reads += f.Stats().Reads()
		writes += f.Stats().Writes()
	})
	return reads, writes
}

// DiskStore is a Store mapping names to page files inside a directory.
type DiskStore struct {
	dir   string
	mu    sync.Mutex
	files map[string]*DiskFile
}

// NewDiskStore returns a store rooted at dir, creating the directory if
// needed.
func NewDiskStore(dir string) (*DiskStore, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("pagestore: mkdir %s: %w", dir, err)
	}
	return &DiskStore{dir: dir, files: make(map[string]*DiskFile)}, nil
}

// Open implements Store. Slashes in the name map to subdirectories
// under the store's root; names may not escape it.
func (s *DiskStore) Open(name string) (File, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if f, ok := s.files[name]; ok {
		return f, nil
	}
	if name == "" || strings.Contains(name, "..") || filepath.IsAbs(name) {
		return nil, fmt.Errorf("pagestore: invalid file name %q", name)
	}
	path := filepath.Join(s.dir, filepath.FromSlash(name)+".pag")
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return nil, fmt.Errorf("pagestore: mkdir for %s: %w", name, err)
	}
	f, err := OpenDiskFile(path)
	if err != nil {
		return nil, err
	}
	s.files[name] = f
	return f, nil
}

// Close implements Store.
func (s *DiskStore) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	var firstErr error
	for _, f := range s.files {
		if err := f.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// prefixStore namespaces every file name under a prefix so multiple
// facilities (which use fixed internal file names like "bssf.oid") can
// share one Store without colliding.
type prefixStore struct {
	inner  Store
	prefix string
}

// Prefixed returns a view of store in which every name is prefixed with
// "<prefix>/". Closing the view is a no-op; close the underlying store.
func Prefixed(store Store, prefix string) Store {
	return prefixStore{inner: store, prefix: prefix}
}

// Open implements Store.
func (s prefixStore) Open(name string) (File, error) {
	return s.inner.Open(s.prefix + "/" + name)
}

// Close implements Store: a no-op, because the view does not own the
// underlying store.
func (s prefixStore) Close() error { return nil }

var _ Store = prefixStore{}
