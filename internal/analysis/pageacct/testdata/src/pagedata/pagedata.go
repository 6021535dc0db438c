// Package pagedata exercises the pageacct analyzer: page accounting on
// search paths, the read-only rule, and trace-span sourcing.
package pagedata

import (
	"obs"
	"pagestore"
)

// SearchStats mirrors the real core.SearchStats shape (matched by type
// name).
type SearchStats struct {
	IndexPages int64
	OIDPages   int64
}

// Facility is a minimal SSF-shaped type.
type Facility struct {
	sig pagestore.File
	oid pagestore.File
}

// Search is a search entry point; everything it calls is on the search
// path.
func (f *Facility) Search(n int) (*SearchStats, error) {
	stats := &SearchStats{}
	tr := &obs.Trace{}
	phase := tr.Begin()
	if err := f.scanAccounted(n, stats); err != nil {
		return nil, err
	}
	tr.End(obs.PhaseIndexScan, phase, stats.IndexPages)
	if err := f.scanUnaccounted(n); err != nil {
		return nil, err
	}
	pages, err := f.countedHelper(n)
	if err != nil {
		return nil, err
	}
	stats.OIDPages = pages
	return stats, nil
}

// scanAccounted counts every page it reads — the scanRange contract.
func (f *Facility) scanAccounted(n int, stats *SearchStats) error {
	buf := make([]byte, pagestore.PageSize)
	for p := 0; p < n; p++ {
		if err := f.sig.ReadPage(pagestore.PageID(p), buf); err != nil {
			return err
		}
		stats.IndexPages++
	}
	return nil
}

// scanUnaccounted reads pages on the search path without counting them.
func (f *Facility) scanUnaccounted(n int) error { // want `search path scanUnaccounted reads pages but never counts them`
	buf := make([]byte, pagestore.PageSize)
	for p := 0; p < n; p++ {
		if err := f.sig.ReadPage(pagestore.PageID(p), buf); err != nil {
			return err
		}
	}
	return nil
}

// countedHelper follows the getMany protocol: count locally, return the
// count for the caller to fold into stats.
func (f *Facility) countedHelper(n int) (int64, error) {
	buf := make([]byte, pagestore.PageSize)
	var oidPages int64
	for p := 0; p < n; p++ {
		if err := f.oid.ReadPage(pagestore.PageID(p), buf); err != nil {
			return 0, err
		}
		oidPages++
	}
	return oidPages, nil
}

// searchMutating writes a page on the search path — a race under the
// shared search lock.
func (f *Facility) searchMutating(buf []byte) error {
	var stats SearchStats
	if err := f.sig.ReadPage(0, buf); err != nil {
		return err
	}
	stats.IndexPages++
	if err := f.sig.WritePage(0, buf); err != nil { // want `search path searchMutating writes or allocates pages`
		return err
	}
	_ = stats
	return nil
}

// searchBadSpan feeds a trace span from a local, not from SearchStats.
func (f *Facility) searchBadSpan(n int64) {
	tr := &obs.Trace{}
	phase := tr.Begin()
	tr.End(obs.PhaseIndexScan, phase, n) // want `trace span page count must be a SearchStats field`
}

// searchThenMaintain is a search entry point that triggers LSM
// maintenance: the reachability sweep must stop at flush*/compact*
// callees, whose page writes are update-path writes made under the
// facility's write lock — not search-path writes.
func (f *Facility) searchThenMaintain(n int) error {
	var stats SearchStats
	buf := make([]byte, pagestore.PageSize)
	if err := f.sig.ReadPage(0, buf); err != nil {
		return err
	}
	stats.IndexPages++
	if err := f.flushMemtable(n); err != nil {
		return err
	}
	return f.compactSegments(n)
}

// flushMemtable seals pages — carved out of the search sweep by name.
func (f *Facility) flushMemtable(n int) error {
	buf := make([]byte, pagestore.PageSize)
	for p := 0; p < n; p++ {
		if err := f.sig.WritePage(pagestore.PageID(p), buf); err != nil {
			return err
		}
	}
	return nil
}

// compactSegments merges pages — also carved out by name; its reads
// need no SearchStats accounting either.
func (f *Facility) compactSegments(n int) error {
	buf := make([]byte, pagestore.PageSize)
	for p := 0; p < n; p++ {
		if err := f.sig.ReadPage(pagestore.PageID(p), buf); err != nil {
			return err
		}
		if err := f.sig.WritePage(pagestore.PageID(p), buf); err != nil {
			return err
		}
	}
	return nil
}

// Rebuild reads and writes pages but is not reachable from any search
// entry point: update paths are exempt from all three rules.
func (f *Facility) Rebuild(n int) error {
	buf := make([]byte, pagestore.PageSize)
	for p := 0; p < n; p++ {
		if err := f.sig.ReadPage(pagestore.PageID(p), buf); err != nil {
			return err
		}
		if err := f.sig.WritePage(pagestore.PageID(p), buf); err != nil {
			return err
		}
	}
	return nil
}

// index is what a shell dispatches a search through; the static call
// graph stops at the interface, so candidates is an entry point by name.
type index interface {
	candidates(n int, stats *SearchStats) error
}

type shell struct{ idx index }

// Search reaches candidates only dynamically.
func (sh *shell) Search(n int, stats *SearchStats) error { return sh.idx.candidates(n, stats) }

// candidates is on the search path although no static edge leads to it.
func (f *Facility) candidates(n int, stats *SearchStats) error {
	if err := f.scanAccounted(n, stats); err != nil {
		return err
	}
	return f.probeUnaccounted()
}

// probeUnaccounted is reachable from candidates alone.
func (f *Facility) probeUnaccounted() error { // want `search path probeUnaccounted reads pages but never counts them`
	return f.oid.ReadPage(0, make([]byte, pagestore.PageSize))
}
