package core

import (
	"encoding/binary"
	"fmt"
	"sort"

	"sigfile/internal/pagestore"
)

// oidFile is the OID file shared by the two signature-file organizations
// (Figure 3 of the paper): entry i holds the OID of the object whose
// signature sits at position i of the signature file. Entries are 8 bytes,
// so a page holds O_P = PageSize/8 = 512 of them — the paper's parameter.
//
// Deletion follows the paper's model: the entry is overwritten with the
// zero OID as a delete flag; finding the entry scans the file from the
// start, costing SC_OID/2 page reads on average (the paper's UC_D).
type oidFile struct {
	file pagestore.File
	// n is the number of entries ever appended (live + tombstoned); it
	// equals the number of signatures in the paired signature file.
	n int
	// live is the number of non-tombstoned entries.
	live int
	// tail caches the page being filled so appends cost one page write
	// (the paper's single page access per file on insertion).
	tail     []byte
	tailPage pagestore.PageID
}

// oidsPerPage is O_P in the paper's cost model.
const oidsPerPage = pagestore.PageSize / 8

func newOIDFile(file pagestore.File) (*oidFile, error) {
	f := &oidFile{file: file, tail: make([]byte, pagestore.PageSize)}
	// Recover entry counts from an existing file: the last page may be
	// partially filled; trailing zero entries on it are free slots.
	np := file.NumPages()
	if np == 0 {
		return f, nil
	}
	buf := make([]byte, pagestore.PageSize)
	for p := 0; p < np; p++ {
		if err := file.ReadPage(pagestore.PageID(p), buf); err != nil {
			return nil, fmt.Errorf("core: oid file recovery: %w", err)
		}
		limit := oidsPerPage
		if p == np-1 {
			// Find the last nonzero entry on the final page.
			limit = 0
			for i := oidsPerPage - 1; i >= 0; i-- {
				if binary.LittleEndian.Uint64(buf[i*8:]) != 0 {
					limit = i + 1
					break
				}
			}
			copy(f.tail, buf)
			f.tailPage = pagestore.PageID(p)
			f.n = p*oidsPerPage + limit
		}
		for i := 0; i < limit; i++ {
			if binary.LittleEndian.Uint64(buf[i*8:]) != 0 {
				f.live++
			}
		}
	}
	return f, nil
}

// append adds an OID (nonzero) and returns its entry index. Cost: one
// page write (plus an allocation when a page boundary is crossed).
func (f *oidFile) append(oid uint64) (int, error) {
	if oid == 0 {
		return 0, fmt.Errorf("core: OID 0 is reserved as the delete flag")
	}
	idx := f.n
	slot := idx % oidsPerPage
	if slot == 0 {
		id, err := f.file.Allocate()
		if err != nil {
			return 0, fmt.Errorf("core: oid file: %w", err)
		}
		f.tailPage = id
		for i := range f.tail {
			f.tail[i] = 0
		}
	}
	binary.LittleEndian.PutUint64(f.tail[slot*8:], oid)
	if err := f.file.WritePage(f.tailPage, f.tail); err != nil {
		return 0, fmt.Errorf("core: oid file: %w", err)
	}
	f.n++
	f.live++
	return idx, nil
}

// appendBatch adds a run of OIDs (all nonzero), writing each touched tail
// page once instead of once per entry — the OID-file half of a batch
// load's page-write amortization.
func (f *oidFile) appendBatch(oids []uint64) error {
	dirty := false
	flush := func() error {
		if !dirty {
			return nil
		}
		if err := f.file.WritePage(f.tailPage, f.tail); err != nil {
			return fmt.Errorf("core: oid file: %w", err)
		}
		dirty = false
		return nil
	}
	for _, oid := range oids {
		if oid == 0 {
			return fmt.Errorf("core: OID 0 is reserved as the delete flag")
		}
		slot := f.n % oidsPerPage
		if slot == 0 {
			if err := flush(); err != nil {
				return err
			}
			id, err := f.file.Allocate()
			if err != nil {
				return fmt.Errorf("core: oid file: %w", err)
			}
			f.tailPage = id
			for i := range f.tail {
				f.tail[i] = 0
			}
		}
		binary.LittleEndian.PutUint64(f.tail[slot*8:], oid)
		dirty = true
		f.n++
		f.live++
	}
	return flush()
}

// get reads the OID at entry idx (0 = tombstoned/absent) straight from
// the file, costing one page read.
func (f *oidFile) get(idx int) (uint64, error) {
	if idx < 0 || idx >= f.n {
		return 0, fmt.Errorf("core: oid entry %d out of range [0,%d)", idx, f.n)
	}
	buf := make([]byte, pagestore.PageSize)
	if err := f.file.ReadPage(pagestore.PageID(idx/oidsPerPage), buf); err != nil {
		return 0, fmt.Errorf("core: oid file: %w", err)
	}
	return binary.LittleEndian.Uint64(buf[(idx%oidsPerPage)*8:]), nil
}

// getMany maps sorted candidate entry indexes to their OIDs, skipping
// tombstones. It reads each distinct page once — the measured counterpart
// of the paper's LC_OID term — and reports how many pages it touched.
func (f *oidFile) getMany(indexes []int) ([]uint64, int64, error) {
	if !sort.IntsAreSorted(indexes) {
		indexes = append([]int(nil), indexes...)
		sort.Ints(indexes)
	}
	oids := make([]uint64, 0, len(indexes))
	buf := make([]byte, pagestore.PageSize)
	curPage := -1
	var pages int64
	for _, idx := range indexes {
		if idx < 0 || idx >= f.n {
			return nil, pages, fmt.Errorf("core: oid entry %d out of range [0,%d)", idx, f.n)
		}
		p := idx / oidsPerPage
		if p != curPage {
			if err := f.file.ReadPage(pagestore.PageID(p), buf); err != nil {
				return nil, pages, fmt.Errorf("core: oid file: %w", err)
			}
			curPage = p
			pages++
		}
		oid := binary.LittleEndian.Uint64(buf[(idx%oidsPerPage)*8:])
		if oid != 0 {
			oids = append(oids, oid)
		}
	}
	return oids, pages, nil
}

// delete tombstones the entry holding oid. Per the paper's update model it
// scans the file from the beginning (SC_OID/2 page reads on average) and
// sets the delete flag with one page write. An OID the file does not hold
// is an error.
func (f *oidFile) delete(oid uint64) error {
	if oid == 0 {
		return fmt.Errorf("core: OID 0 is reserved")
	}
	buf := make([]byte, pagestore.PageSize)
	for p := 0; p*oidsPerPage < f.n; p++ {
		if err := f.file.ReadPage(pagestore.PageID(p), buf); err != nil {
			return fmt.Errorf("core: oid file: %w", err)
		}
		limit := f.n - p*oidsPerPage
		if limit > oidsPerPage {
			limit = oidsPerPage
		}
		for i := 0; i < limit; i++ {
			if binary.LittleEndian.Uint64(buf[i*8:]) == oid {
				binary.LittleEndian.PutUint64(buf[i*8:], 0)
				if err := f.file.WritePage(pagestore.PageID(p), buf); err != nil {
					return fmt.Errorf("core: oid file: %w", err)
				}
				if pagestore.PageID(p) == f.tailPage {
					copy(f.tail, buf)
				}
				f.live--
				return nil
			}
		}
	}
	return fmt.Errorf("core: delete: OID %d not present", oid)
}

// scan calls fn(index, oid) for every live entry in index order, reading
// each page once.
func (f *oidFile) scan(fn func(idx int, oid uint64) error) error {
	buf := make([]byte, pagestore.PageSize)
	for p := 0; p*oidsPerPage < f.n; p++ {
		if err := f.file.ReadPage(pagestore.PageID(p), buf); err != nil {
			return fmt.Errorf("core: oid file: %w", err)
		}
		limit := f.n - p*oidsPerPage
		if limit > oidsPerPage {
			limit = oidsPerPage
		}
		for i := 0; i < limit; i++ {
			oid := binary.LittleEndian.Uint64(buf[i*8:])
			if oid == 0 {
				continue
			}
			if err := fn(p*oidsPerPage+i, oid); err != nil {
				return err
			}
		}
	}
	return nil
}

// liveOIDs returns every non-tombstoned OID in storage order.
func (f *oidFile) liveOIDs() ([]uint64, error) {
	out := make([]uint64, 0, f.live)
	err := f.scan(func(_ int, oid uint64) error {
		out = append(out, oid)
		return nil
	})
	return out, err
}

// pages returns SC_OID, the storage cost of the OID file in pages.
func (f *oidFile) pages() int { return f.file.NumPages() }

// ensureCount raises the entry count to n. Recovery infers the count from
// the last nonzero entry, which undercounts when the most recent appends
// were all tombstoned; the paired signature file knows the true count and
// corrects it here. n must not exceed the allocated capacity.
func (f *oidFile) ensureCount(n int) error {
	if n <= f.n {
		return nil
	}
	if n > f.file.NumPages()*oidsPerPage {
		return fmt.Errorf("core: oid file count %d exceeds capacity %d", n, f.file.NumPages()*oidsPerPage)
	}
	f.n = n
	return nil
}
