package pagestore

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"

	"sigfile/internal/obs"
)

// Corruption metrics: pages fenced off after an unrepairable checksum
// mismatch, and pages rewritten from the log's last committed image.
var (
	obsQuarantined = obs.Default().Counter("sigfile_pagestore_quarantined_total")
	obsRepaired    = obs.Default().Counter("sigfile_pagestore_repaired_total")
)

// Committer is implemented by the durable files and stores: their writes
// accumulate in a write-ahead log transaction until Commit makes them
// durable and atomic. Layers above (oodb.Database, cmd/sigdb) detect the
// interface to expose save points without depending on the concrete
// store.
type Committer interface {
	// Commit appends the pending page writes to the WAL, fsyncs it, and
	// applies them in place. After Commit returns, the batch survives a
	// crash; if the process dies before, recovery restores the previous
	// committed state — never a mix.
	Commit() error
	// Checkpoint commits pending writes, fsyncs the page files, and
	// truncates the WAL.
	Checkpoint() error
}

// DurableFile is a crash-safe page file: a DiskFile plus a sidecar
// write-ahead log (path + ".wal"). WritePage and Allocate buffer in
// memory; Commit writes the batch to the log, fsyncs, and applies it in
// place. Opening the file replays any committed log records a crash left
// behind (see OpenDiskFile), so a multi-page update is always observed
// fully applied or not at all.
type DurableFile struct {
	// wmu serialises the file's writers — WritePage, Allocate and the
	// store commit that logs and applies their work — and is taken before
	// mu. A store commit holds it from logging to applying, so the images
	// it logged are the images it applies, while mu, which readers share,
	// is held exclusively only while the file is written in place: a
	// reader never waits for the log's fsync.
	wmu   sync.Mutex
	mu    sync.RWMutex
	inner *DiskFile
	tag   string
	// Exactly one of wal (standalone file) and store (member of a
	// DurableStore sharing its log) is non-nil.
	wal     *wal
	store   *DurableStore
	pending map[PageID][]byte
	// quarantined fences off pages whose on-disk image failed its
	// checksum and could not be repaired from the log. Reads return
	// ErrQuarantined instead of garbage; a committed write or a scrub
	// pass that finds the page healthy releases it.
	quarantined map[PageID]struct{}
	npages      int
	closed      bool
	stats       Stats
}

// OpenDurableFile opens (creating if necessary) a crash-safe page file
// at path with its WAL at path + ".wal", recovering any committed but
// unapplied writes first.
func OpenDurableFile(path string) (*DurableFile, error) {
	inner, err := OpenDiskFile(path) // replays the sidecar if present
	if err != nil {
		return nil, err
	}
	wf, err := os.OpenFile(path+walSuffix, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		inner.Close()
		return nil, fmt.Errorf("pagestore: open wal %s: %w", path+walSuffix, err)
	}
	w, err := openWAL(osBlockFile{wf}, path+walSuffix)
	if err != nil {
		inner.Close()
		wf.Close()
		return nil, err
	}
	return &DurableFile{inner: inner, wal: w, pending: make(map[PageID][]byte), npages: inner.NumPages()}, nil
}

// recoverSidecar replays the committed records of path's WAL sidecar
// into d and truncates the log.
func recoverSidecar(path string, d *DiskFile) error {
	wf, err := os.OpenFile(path+walSuffix, os.O_RDWR, 0o644)
	if err != nil {
		return fmt.Errorf("pagestore: open wal %s: %w", path+walSuffix, err)
	}
	defer wf.Close()
	w, err := openWAL(osBlockFile{wf}, path+walSuffix)
	if err != nil {
		return err
	}
	return w.replayInto(func(string) (*DiskFile, error) { return d, nil })
}

// newStoreFile wraps inner as a member of store.
func newStoreFile(inner *DiskFile, tag string, store *DurableStore) *DurableFile {
	return &DurableFile{inner: inner, tag: tag, store: store,
		pending: make(map[PageID][]byte), npages: inner.NumPages()}
}

// ReadPage implements File, serving pending writes from the overlay so a
// transaction reads its own uncommitted data. A checksum mismatch from
// the disk triggers a repair attempt from the log's last committed image
// of the page; if no image survives (the log was truncated at a
// checkpoint) the page is quarantined and the read fails with
// ErrQuarantined rather than ever returning corrupt bytes.
func (f *DurableFile) ReadPage(id PageID, buf []byte) error {
	if len(buf) < PageSize {
		return fmt.Errorf("pagestore: read buffer %d bytes, need %d", len(buf), PageSize)
	}
	err := f.readPageOnce(id, buf)
	if err == nil || !errors.Is(err, ErrChecksum) {
		return err
	}
	if rerr := f.repair(id); rerr != nil {
		return rerr
	}
	return f.readPageOnce(id, buf)
}

// readPageOnce is one read attempt through the overlay and the disk,
// without the repair path.
func (f *DurableFile) readPageOnce(id PageID, buf []byte) error {
	f.mu.RLock()
	defer f.mu.RUnlock()
	if f.closed {
		return ErrClosed
	}
	if int(id) >= f.npages {
		return fmt.Errorf("%w: read page %d of %d", ErrPageOutOfRange, id, f.npages)
	}
	if img, ok := f.pending[id]; ok {
		// The overlay wins even over a quarantined page: the transaction
		// reads its own write, and its commit will repair the disk.
		copy(buf[:PageSize], img)
		f.stats.countRead()
		return nil
	}
	if _, bad := f.quarantined[id]; bad {
		return fmt.Errorf("pagestore: %s page %d: %w", f.label(), id, ErrQuarantined)
	}
	if int(id) >= f.inner.NumPages() {
		// Allocated in this transaction, never written: all zero.
		for i := range buf[:PageSize] {
			buf[i] = 0
		}
		f.stats.countRead()
		return nil
	}
	if err := f.inner.ReadPage(id, buf); err != nil {
		return fmt.Errorf("pagestore: %s page %d: %w", f.label(), id, err)
	}
	f.stats.countRead()
	return nil
}

// label names the file in errors: its store tag, or "durable file" for a
// standalone file (whose WAL tag is the empty string).
func (f *DurableFile) label() string {
	if f.tag != "" {
		return f.tag
	}
	return "durable file"
}

// repair rewrites page id from the log's last committed image,
// quarantining the page when none survives. Store members route through
// the store so the shared log is accessed under the commit path's
// store→file lock order.
func (f *DurableFile) repair(id PageID) error {
	if f.store != nil {
		return f.store.repairPage(f, id)
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.repairLocked(f.wal, id)
}

// repairLocked is the repair step itself. Caller holds f.mu (and, for a
// store member, the store mutex owning w).
func (f *DurableFile) repairLocked(w *wal, id PageID) error {
	img, err := w.latestImage(f.tag, id)
	if err != nil {
		return fmt.Errorf("pagestore: repair %s page %d: %w", f.label(), id, err)
	}
	if img == nil {
		f.quarantineLocked(id)
		return fmt.Errorf("pagestore: %s page %d: no committed image in log: %w", f.label(), id, ErrQuarantined)
	}
	if werr := f.inner.WritePage(id, img); werr != nil {
		f.quarantineLocked(id)
		return fmt.Errorf("pagestore: repair %s page %d: %w: %w", f.label(), id, ErrQuarantined, werr)
	}
	if _, ok := f.quarantined[id]; ok {
		delete(f.quarantined, id)
	}
	obsRepaired.Inc()
	return nil
}

// quarantineLocked fences off page id. Caller holds f.mu.
func (f *DurableFile) quarantineLocked(id PageID) {
	if f.quarantined == nil {
		f.quarantined = make(map[PageID]struct{})
	}
	if _, ok := f.quarantined[id]; !ok {
		f.quarantined[id] = struct{}{}
		obsQuarantined.Inc()
	}
}

// QuarantinedPages returns the ids currently fenced off, sorted.
func (f *DurableFile) QuarantinedPages() []PageID {
	f.mu.RLock()
	defer f.mu.RUnlock()
	ids := make([]PageID, 0, len(f.quarantined))
	for id := range f.quarantined {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// WritePage implements File: the write lands in the pending overlay and
// reaches the page file at Commit, after the WAL holds its image.
func (f *DurableFile) WritePage(id PageID, buf []byte) error {
	if len(buf) < PageSize {
		return fmt.Errorf("pagestore: write buffer %d bytes, need %d", len(buf), PageSize)
	}
	f.wmu.Lock()
	defer f.wmu.Unlock()
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		return ErrClosed
	}
	if int(id) >= f.npages {
		return fmt.Errorf("%w: write page %d of %d", ErrPageOutOfRange, id, f.npages)
	}
	img, ok := f.pending[id]
	if !ok {
		img = make([]byte, PageSize)
		f.pending[id] = img
	}
	copy(img, buf[:PageSize])
	f.stats.countWrite()
	f.noteDirtyLocked()
	return nil
}

// Allocate implements File. The extension is logical until Commit, when
// an extend record persists it.
func (f *DurableFile) Allocate() (PageID, error) {
	f.wmu.Lock()
	defer f.wmu.Unlock()
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		return 0, ErrClosed
	}
	f.npages++
	f.stats.countAlloc()
	f.noteDirtyLocked()
	return PageID(f.npages - 1), nil
}

// NumPages implements File.
func (f *DurableFile) NumPages() int {
	f.mu.RLock()
	defer f.mu.RUnlock()
	return f.npages
}

// Stats implements File, returning the file's logical access counters
// (overlay hits included); physical accesses are on the inner DiskFile.
func (f *DurableFile) Stats() *Stats { return &f.stats }

// noteDirtyLocked registers a store member for the store's next commit,
// so Commit visits the files written since the last one instead of
// scanning every member. Caller holds f.wmu, which makes registration
// atomic with the write it records (a commit removes the file under the
// same mutex); the set's own mutex is a leaf, so the order is only ever
// file → set and store → set.
func (f *DurableFile) noteDirtyLocked() {
	if f.store != nil {
		f.store.dirty.add(f)
	}
}

// dirtyLocked reports whether the file has uncommitted writes or
// allocations. Caller holds f.mu.
func (f *DurableFile) dirtyLocked() bool {
	return len(f.pending) > 0 || f.npages > f.inner.NumPages()
}

// logPendingLocked appends the file's extent and page images to w.
// Caller holds f.mu, shared or exclusive, and keeps writers out.
func (f *DurableFile) logPendingLocked(w *wal) error {
	if f.npages > f.inner.NumPages() {
		if err := w.appendExtend(f.tag, f.npages); err != nil {
			return err
		}
	}
	ids := make([]PageID, 0, len(f.pending))
	for id := range f.pending {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		if err := w.appendPage(f.tag, id, f.pending[id]); err != nil {
			return err
		}
	}
	return nil
}

// applyPendingLocked writes the committed batch through to the inner
// file and clears the overlay. Caller holds f.mu; the WAL already holds
// the commit record.
func (f *DurableFile) applyPendingLocked() error {
	if err := f.inner.extendTo(f.npages); err != nil {
		return fmt.Errorf("pagestore: extend %s to %d pages: %w", f.label(), f.npages, err)
	}
	ids := make([]PageID, 0, len(f.pending))
	for id := range f.pending {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		if err := f.inner.WritePage(id, f.pending[id]); err != nil {
			return fmt.Errorf("pagestore: apply %s page %d: %w", f.label(), id, err)
		}
		// The committed image just replaced whatever was on disk, so a
		// quarantined page is healthy again.
		delete(f.quarantined, id)
	}
	f.pending = make(map[PageID][]byte)
	return nil
}

// Commit implements Committer. For a store-owned file it commits the
// whole store (the WAL is shared, so transactions span files).
func (f *DurableFile) Commit() error {
	if f.store != nil {
		return f.store.Commit()
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.commitLocked()
}

// commitLocked runs the log-sync-apply sequence for a standalone file.
func (f *DurableFile) commitLocked() error {
	if f.closed {
		return ErrClosed
	}
	if !f.dirtyLocked() {
		return nil
	}
	if err := f.logPendingLocked(f.wal); err != nil {
		return err
	}
	if err := f.wal.commit(); err != nil {
		return err
	}
	return f.applyPendingLocked()
}

// Checkpoint implements Committer: commit, fsync the page file, truncate
// the log.
func (f *DurableFile) Checkpoint() error {
	if f.store != nil {
		return f.store.Checkpoint()
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if err := f.commitLocked(); err != nil {
		return err
	}
	if err := f.inner.Sync(); err != nil {
		return fmt.Errorf("pagestore: checkpoint sync %s: %w", f.label(), err)
	}
	return f.wal.reset()
}

// Sync implements File as Commit: after Sync returns the preceding
// writes are atomic and durable.
func (f *DurableFile) Sync() error { return f.Commit() }

// Close implements File. A standalone file checkpoints (clean shutdown
// leaves an empty log) and closes both devices. A store-owned file defers
// to the store's lifecycle: closing the store commits and closes every
// member.
func (f *DurableFile) Close() error {
	if f.store != nil {
		return nil
	}
	f.mu.Lock()
	if f.closed {
		f.mu.Unlock()
		return nil
	}
	err := f.commitLocked()
	if err == nil {
		if serr := f.inner.Sync(); serr == nil {
			err = f.wal.reset()
		} else {
			err = serr
		}
	}
	f.closed = true
	f.mu.Unlock()
	if cerr := f.inner.Close(); err == nil {
		err = cerr
	}
	if cerr := f.wal.dev.Close(); err == nil {
		err = cerr
	}
	return err
}

// DurableStore is a crash-safe Store: a directory of checksummed page
// files sharing one write-ahead log ("store.wal"), so a Commit covers
// every file — a BSSF insert touching F slice files plus the OID file is
// one atomic transaction. Opening the store recovers committed state
// from the log.
//
// The store follows the paper's single-writer model: any number of
// concurrent readers, one writer driving WritePage/Allocate/Commit.
type DurableStore struct {
	mu    sync.Mutex
	fs    BlockFS
	wal   *wal
	files map[string]*DurableFile
	// dirty holds the members with uncommitted writes or allocations;
	// files add themselves as they are written (noteDirtyLocked) and leave
	// once a commit has applied their images, so a failed commit keeps
	// them. unsynced holds the members written in place since the last
	// checkpoint, the only ones it has to fsync.
	dirty, unsynced fileSet
}

// fileSet is a set of a store's member files behind its own mutex — a
// leaf: it is taken with a file's or the store's mutex held, and nothing
// is acquired under it.
type fileSet struct {
	mu sync.Mutex
	m  map[*DurableFile]struct{}
}

func (s *fileSet) add(f *DurableFile) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.m == nil {
		s.m = make(map[*DurableFile]struct{})
	}
	s.m[f] = struct{}{}
}

func (s *fileSet) remove(f *DurableFile) {
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.m, f)
}

// sorted returns the members in tag order, the order commits log and
// apply in and checkpoints fsync in.
func (s *fileSet) sorted() []*DurableFile {
	s.mu.Lock()
	out := make([]*DurableFile, 0, len(s.m))
	for f := range s.m {
		out = append(out, f)
	}
	s.mu.Unlock()
	sortByTag(out)
	return out
}

func sortByTag(files []*DurableFile) {
	sort.Slice(files, func(i, j int) bool { return files[i].tag < files[j].tag })
}

// storeWALName is the shared log's name inside the store's BlockFS.
const storeWALName = "store" + walSuffix

// pageFileSuffix distinguishes page files from the log.
const pageFileSuffix = ".pag"

// OpenDurableStore opens (creating if necessary) a durable store rooted
// at dir and runs crash recovery.
func OpenDurableStore(dir string) (*DurableStore, error) {
	fs, err := NewOSBlockFS(dir)
	if err != nil {
		return nil, err
	}
	return OpenDurableStoreFS(fs)
}

// OpenDurableStoreFS is OpenDurableStore over an explicit filesystem;
// the crash-consistency harness passes a CrashFS.
func OpenDurableStoreFS(fs BlockFS) (*DurableStore, error) {
	dev, err := fs.Open(storeWALName)
	if err != nil {
		return nil, fmt.Errorf("pagestore: open %s: %w", storeWALName, err)
	}
	w, err := openWAL(dev, storeWALName)
	if err != nil {
		dev.Close()
		return nil, err
	}
	s := &DurableStore{fs: fs, wal: w, files: make(map[string]*DurableFile)}
	if err := s.recover(); err != nil {
		dev.Close()
		return nil, fmt.Errorf("pagestore: recover durable store: %w", err)
	}
	return s, nil
}

// recover replays committed WAL records into their page files. It runs
// before any Open call, so the files are opened directly and closed
// again after being repaired.
func (s *DurableStore) recover() error {
	opened := make(map[string]*DiskFile)
	err := s.wal.replayInto(func(tag string) (*DiskFile, error) {
		dev, err := s.fs.Open(tag + pageFileSuffix)
		if err != nil {
			return nil, err
		}
		f, err := newDiskFile(dev, tag)
		if err != nil {
			dev.Close()
			return nil, err
		}
		opened[tag] = f
		return f, nil
	})
	for _, f := range opened {
		f.Close()
	}
	return err
}

// Open implements Store. Slashes in the name map to subdirectories;
// names may not escape the store.
func (s *DurableStore) Open(name string) (File, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if f, ok := s.files[name]; ok {
		return f, nil
	}
	if name == "" || strings.Contains(name, "..") || filepath.IsAbs(name) {
		return nil, fmt.Errorf("pagestore: invalid file name %q", name)
	}
	dev, err := s.fs.Open(name + pageFileSuffix)
	if err != nil {
		return nil, fmt.Errorf("pagestore: open %s: %w", name+pageFileSuffix, err)
	}
	inner, err := newDiskFile(dev, name)
	if err != nil {
		dev.Close()
		return nil, err
	}
	f := newStoreFile(inner, name, s)
	s.files[name] = f
	return f, nil
}

// repairPage rewrites one member page from the shared log. It takes the
// store mutex then the file mutex — the same order as the commit path —
// so a read-triggered repair cannot deadlock against a commit.
func (s *DurableStore) repairPage(f *DurableFile, id PageID) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	f.mu.Lock()
	defer f.mu.Unlock()
	s.unsynced.add(f) // a repair writes in place
	return f.repairLocked(s.wal, id)
}

// Quarantined returns the currently fenced-off pages of every member
// file, keyed by tag; files with none are omitted.
func (s *DurableStore) Quarantined() map[string][]PageID {
	s.mu.Lock()
	files := make([]*DurableFile, 0, len(s.files))
	for _, f := range s.files {
		files = append(files, f)
	}
	s.mu.Unlock()
	sortByTag(files)
	out := make(map[string][]PageID)
	for _, f := range files {
		if ids := f.QuarantinedPages(); len(ids) > 0 {
			out[f.tag] = ids
		}
	}
	return out
}

// Commit implements Committer: one transaction covering every member
// file's pending writes.
func (s *DurableStore) Commit() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.commitLocked()
}

// commitLocked logs, syncs and applies the dirty members in tag order.
// Their writers are held off for the whole commit; their readers only
// while a file is written in place, not while the log is synced — a
// search beside a stream of commits waits for page writes, never for an
// fsync. Caller holds s.mu.
func (s *DurableStore) commitLocked() error {
	dirty := s.dirty.sorted()
	if len(dirty) == 0 {
		return nil
	}
	for _, f := range dirty {
		f.wmu.Lock()
	}
	defer func() {
		for _, f := range dirty {
			f.wmu.Unlock()
		}
	}()
	for _, f := range dirty {
		f.mu.RLock()
		err := f.logPendingLocked(s.wal)
		f.mu.RUnlock()
		if err != nil {
			return err
		}
	}
	if err := s.wal.commit(); err != nil {
		return err
	}
	for _, f := range dirty {
		s.unsynced.add(f)
		f.mu.Lock()
		err := f.applyPendingLocked()
		f.mu.Unlock()
		if err != nil {
			return err
		}
		s.dirty.remove(f)
	}
	return nil
}

// checkpointLocked commits, fsyncs the members written in place since the
// last checkpoint, and truncates the shared log. Caller holds s.mu.
func (s *DurableStore) checkpointLocked() error {
	if err := s.commitLocked(); err != nil {
		return err
	}
	for _, f := range s.unsynced.sorted() {
		if err := f.inner.Sync(); err != nil {
			return fmt.Errorf("pagestore: checkpoint sync %s: %w", f.label(), err)
		}
		s.unsynced.remove(f)
	}
	return s.wal.reset()
}

// Checkpoint implements Committer: commit, fsync the page files, truncate
// the shared log.
func (s *DurableStore) Checkpoint() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.checkpointLocked()
}

// Close implements Store: checkpoint (clean shutdown leaves an empty
// log) and close every member file and the log device.
func (s *DurableStore) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	err := s.checkpointLocked()
	for _, f := range s.files {
		f.mu.Lock()
		f.closed = true
		f.mu.Unlock()
		if cerr := f.inner.Close(); err == nil {
			err = cerr
		}
	}
	if cerr := s.wal.dev.Close(); err == nil {
		err = cerr
	}
	return err
}

var (
	_ File      = (*DurableFile)(nil)
	_ Committer = (*DurableFile)(nil)
	_ Store     = (*DurableStore)(nil)
	_ Committer = (*DurableStore)(nil)
)
