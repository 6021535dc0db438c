package pagestore

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"syscall"
	"testing"
)

// openStoreFile opens a DurableStore over fs with one member file and
// returns both.
func openStoreFile(t *testing.T, fs BlockFS, name string) (*DurableStore, File) {
	t.Helper()
	store, err := OpenDurableStoreFS(fs)
	if err != nil {
		t.Fatalf("open store: %v", err)
	}
	f, err := store.Open(name)
	if err != nil {
		t.Fatalf("open %s: %v", name, err)
	}
	return store, f
}

// fillPage returns a page stamped with b.
func fillPage(b byte) []byte {
	p := make([]byte, PageSize)
	for i := range p {
		p[i] = b
	}
	return p
}

func TestFaultFSArmAfter(t *testing.T) {
	fs := NewFaultFS()
	dev, err := fs.Open("x")
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	fs.ArmAfter(FaultWrite, 1, FaultSpec{Err: syscall.EIO, Transient: true})
	if _, err := dev.WriteAt([]byte("aa"), 0); err != nil {
		t.Fatalf("first write: %v", err)
	}
	_, err = dev.WriteAt([]byte("bb"), 2)
	if !errors.Is(err, syscall.EIO) || !errors.Is(err, ErrInjected) {
		t.Fatalf("second write = %v, want injected EIO", err)
	}
	if Classify(err) != ClassTransient {
		t.Fatalf("Classify = %v, want transient", Classify(err))
	}
	// The arm fired once; writes work again.
	if _, err := dev.WriteAt([]byte("cc"), 2); err != nil {
		t.Fatalf("third write: %v", err)
	}
}

func TestFaultFSShortWrite(t *testing.T) {
	fs := NewFaultFS()
	dev, err := fs.Open("x")
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	fs.ArmAfter(FaultWrite, 0, FaultSpec{Err: syscall.EIO, KeepBytes: 3})
	n, err := dev.WriteAt([]byte("abcdef"), 0)
	if err == nil {
		t.Fatal("short write did not error")
	}
	if n != 3 {
		t.Fatalf("short write landed %d bytes, want 3", n)
	}
	if got := fs.Size("x"); got != 3 {
		t.Fatalf("file size %d, want 3", got)
	}
	buf := make([]byte, 3)
	if _, err := dev.ReadAt(buf, 0); err != nil {
		t.Fatalf("read back: %v", err)
	}
	if string(buf) != "abc" {
		t.Fatalf("surviving bytes %q, want %q", buf, "abc")
	}
}

func TestFaultFSPersistentAndHeal(t *testing.T) {
	fs := NewFaultFS()
	dev, err := fs.Open("x")
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	fs.FailPersistently(FaultWrite, FaultSpec{Err: syscall.ENOSPC})
	for i := 0; i < 3; i++ {
		if _, err := dev.WriteAt([]byte("a"), 0); !errors.Is(err, syscall.ENOSPC) {
			t.Fatalf("write %d = %v, want ENOSPC", i, err)
		}
	}
	fs.Heal()
	if _, err := dev.WriteAt([]byte("a"), 0); err != nil {
		t.Fatalf("write after heal: %v", err)
	}
}

func TestFaultFSProbabilisticIsDeterministic(t *testing.T) {
	run := func() []int {
		fs := NewFaultFS()
		dev, _ := fs.Open("x")
		fs.SeedProbabilistic(7, map[FaultOp]float64{FaultWrite: 0.5}, FaultSpec{Err: syscall.EIO, Transient: true})
		var failed []int
		for i := 0; i < 40; i++ {
			if _, err := dev.WriteAt([]byte{byte(i)}, int64(i)); err != nil {
				failed = append(failed, i)
			}
		}
		return failed
	}
	a, b := run(), run()
	if len(a) == 0 || len(a) == 40 {
		t.Fatalf("schedule fired %d/40 times; want a mix", len(a))
	}
	if fmt.Sprint(a) != fmt.Sprint(b) {
		t.Fatalf("same seed produced different schedules:\n%v\n%v", a, b)
	}
}

// TestCheckpointENOSPCRecovery is the satellite coverage for a WAL
// checkpoint hitting ENOSPC mid-write: the page files are being
// rewritten in place when the device fills, the store reports the
// error, and reopening the surviving bytes replays the log so no
// committed write is lost.
func TestCheckpointENOSPCRecovery(t *testing.T) {
	fs := NewFaultFS()
	store, f := openStoreFile(t, fs, "data")

	// Commit two pages; the commit lands images in the WAL and applies
	// them in place. Then dirty them again and checkpoint into a full
	// disk partway through the apply.
	for i := 0; i < 2; i++ {
		if _, err := f.Allocate(); err != nil {
			t.Fatalf("allocate: %v", err)
		}
		if err := f.WritePage(PageID(i), fillPage(byte('A'+i))); err != nil {
			t.Fatalf("write: %v", err)
		}
	}
	if err := store.Commit(); err != nil {
		t.Fatalf("commit: %v", err)
	}

	if err := f.WritePage(0, fillPage('X')); err != nil {
		t.Fatalf("rewrite: %v", err)
	}
	if err := f.WritePage(1, fillPage('Y')); err != nil {
		t.Fatalf("rewrite: %v", err)
	}
	// The checkpoint sequence is: one WAL write holding both page images
	// and the commit record, sync, then write the pages in place. Fail the
	// 2nd write after that point — the WAL append succeeds, page 0 is
	// applied, the apply of page 1 tears — with half the bytes landing (a
	// torn page at ENOSPC).
	fs.ArmAfter(FaultWrite, 2, FaultSpec{Err: syscall.ENOSPC, KeepBytes: -1})
	err := store.Checkpoint()
	if !errors.Is(err, syscall.ENOSPC) {
		t.Fatalf("checkpoint = %v, want ENOSPC", err)
	}
	if !strings.Contains(err.Error(), "apply data page 1") {
		t.Fatalf("checkpoint = %v, want the fault in the in-place apply of page 1", err)
	}

	// The process would now degrade or die; model a restart. Recovery
	// must replay the committed images over the torn page.
	reopened, err := OpenDurableStoreFS(fs)
	if err != nil {
		t.Fatalf("reopen after ENOSPC: %v", err)
	}
	rf, err := reopened.Open("data")
	if err != nil {
		t.Fatalf("reopen data: %v", err)
	}
	buf := make([]byte, PageSize)
	for i, want := range []byte{'X', 'Y'} {
		if err := rf.ReadPage(PageID(i), buf); err != nil {
			t.Fatalf("read page %d after recovery: %v", i, err)
		}
		if !bytes.Equal(buf, fillPage(want)) {
			t.Fatalf("page %d byte[0] = %#x, want %q", i, buf[0], want)
		}
	}
	// And the page files pass a full checksum walk.
	if err := VerifyChecksums(fs, "data"+pageFileSuffix); err != nil {
		t.Fatalf("checksums after recovery: %v", err)
	}
	if err := reopened.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
}

// TestCheckpointENOSPCEveryPoint sweeps the fault over every write the
// checkpoint makes, reopening after each: wherever the disk fills, a
// committed transaction survives recovery intact.
func TestCheckpointENOSPCEveryPoint(t *testing.T) {
	for point := 0; ; point++ {
		fs := NewFaultFS()
		store, f := openStoreFile(t, fs, "data")
		for i := 0; i < 3; i++ {
			if _, err := f.Allocate(); err != nil {
				t.Fatalf("allocate: %v", err)
			}
			if err := f.WritePage(PageID(i), fillPage(byte('a'+i))); err != nil {
				t.Fatalf("write: %v", err)
			}
		}
		fs.ArmAfter(FaultWrite, point, FaultSpec{Err: syscall.ENOSPC, KeepBytes: -1})
		err := store.Checkpoint()
		if err == nil {
			// The arm never fired: the schedule is longer than the
			// checkpoint. The sweep is done.
			if point == 0 {
				t.Fatal("checkpoint made no writes")
			}
			return
		}
		if !errors.Is(err, syscall.ENOSPC) {
			t.Fatalf("point %d: checkpoint = %v, want ENOSPC", point, err)
		}

		reopened, rerr := OpenDurableStoreFS(fs)
		if rerr != nil {
			t.Fatalf("point %d: reopen: %v", point, rerr)
		}
		rf, rerr := reopened.Open("data")
		if rerr != nil {
			t.Fatalf("point %d: reopen data: %v", point, rerr)
		}
		buf := make([]byte, PageSize)
		// The transaction either committed (WAL sync happened before the
		// fault) and must be fully visible, or it did not and the file
		// must be empty — never a mix.
		n := rf.NumPages()
		switch n {
		case 0:
			// Nothing committed; fine.
		case 3:
			for i := 0; i < 3; i++ {
				if err := rf.ReadPage(PageID(i), buf); err != nil {
					t.Fatalf("point %d: read %d: %v", point, i, err)
				}
				if buf[0] != byte('a'+i) {
					t.Fatalf("point %d: page %d = %#x, want %#x", point, i, buf[0], byte('a'+i))
				}
			}
		default:
			t.Fatalf("point %d: %d pages visible, want 0 or 3", point, n)
		}
		if err := reopened.Close(); err != nil {
			t.Fatalf("point %d: close: %v", point, err)
		}
	}
}

// TestCommitRetryKeepsUnappliedFilesDirty: the store commits from a dirty
// set instead of scanning its members, so a commit that fails while
// applying must leave the files it did not finish in that set — the retry
// has nothing else to find them by.
func TestCommitRetryKeepsUnappliedFilesDirty(t *testing.T) {
	fs := NewFaultFS()
	store, a := openStoreFile(t, fs, "a")
	b, err := store.Open("b")
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range []File{a, b} {
		if _, err := f.Allocate(); err != nil {
			t.Fatal(err)
		}
	}
	if err := store.Commit(); err != nil {
		t.Fatal(err)
	}
	for i, f := range []File{a, b} {
		if err := f.WritePage(0, fillPage(byte('a'+i))); err != nil {
			t.Fatal(err)
		}
	}
	// Writes of the commit: the log (one write), then a's page, then b's.
	fs.ArmAfter(FaultWrite, 2, FaultSpec{Err: syscall.ENOSPC, KeepBytes: -1})
	if err := store.Commit(); !errors.Is(err, syscall.ENOSPC) {
		t.Fatalf("commit = %v, want ENOSPC", err)
	}
	if d := store.dirty.sorted(); len(d) != 1 || d[0].tag != "b" {
		t.Fatalf("after the failed commit %d files are dirty, want only b", len(d))
	}
	if err := store.Checkpoint(); err != nil {
		t.Fatalf("retry: %v", err)
	}
	if d, u := store.dirty.sorted(), store.unsynced.sorted(); len(d)+len(u) != 0 {
		t.Fatalf("after the checkpoint %d files dirty, %d unsynced, want none", len(d), len(u))
	}
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}
	reopened, err := OpenDurableStoreFS(fs)
	if err != nil {
		t.Fatal(err)
	}
	defer reopened.Close()
	buf := make([]byte, PageSize)
	for i, name := range []string{"a", "b"} {
		f, err := reopened.Open(name)
		if err != nil {
			t.Fatal(err)
		}
		if err := f.ReadPage(0, buf); err != nil || !bytes.Equal(buf, fillPage(byte('a'+i))) {
			t.Fatalf("%s page 0 after reopen: err %v, first byte %#x", name, err, buf[0])
		}
	}
}

// TestCommitIsOneLogWrite counts device writes: a transaction reaches the
// log in one write whatever its page count, until its staged records pass
// walStageLimit and are written out early.
func TestCommitIsOneLogWrite(t *testing.T) {
	clock := NewCrashClock(-1) // counts, never crashes
	store, f := openStoreFile(t, NewCrashFS(clock), "data")
	const big = walStageLimit/PageSize + 8 // images of this many pages pass the limit once
	for i := 0; i < big; i++ {
		if _, err := f.Allocate(); err != nil {
			t.Fatal(err)
		}
	}
	if err := store.Commit(); err != nil { // the extension only
		t.Fatal(err)
	}
	for _, c := range []struct{ pages, logWrites int }{{1, 1}, {21, 1}, {big, 2}} {
		for i := 0; i < c.pages; i++ {
			if err := f.WritePage(PageID(i), fillPage(byte(i))); err != nil {
				t.Fatal(err)
			}
		}
		before := clock.Ops()
		if err := store.Commit(); err != nil {
			t.Fatal(err)
		}
		// Every other write of a commit is one in-place page write.
		if got := clock.Ops() - before - c.pages; got != c.logWrites {
			t.Errorf("commit of %d pages: %d log writes, want %d", c.pages, got, c.logWrites)
		}
	}
}
