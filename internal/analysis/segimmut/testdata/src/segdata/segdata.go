// Package segdata exercises the three segimmut rules against the mock
// pagestore.
package segdata

import "pagestore"

type segment struct {
	file  pagestore.File
	store pagestore.Store
}

// segmentCandidates is a reader entry point; reading is fine.
func (s *segment) segmentCandidates(buf []byte) error {
	return s.readPages(buf)
}

func (s *segment) readPages(buf []byte) error {
	return s.file.ReadPage(0, buf)
}

// liveOIDs reaches helpers that mutate: rule 1 fires in both.
func (s *segment) liveOIDs(buf []byte) error {
	if err := s.repair(buf); err != nil {
		return s.reclaimFromReader()
	}
	return nil
}

func (s *segment) repair(buf []byte) error {
	return s.file.WritePage(0, buf) // want `segment-reader path repair calls WritePage`
}

func (s *segment) reclaimFromReader() error {
	return pagestore.RemoveIfSupported(s.store, "seg-0001") // want `segment-reader path reclaimFromReader calls RemoveIfSupported`
}

// index is the interface a shell dispatches through; the static call
// graph stops at it, so candidates is an entry point by name.
type index interface {
	candidates(buf []byte) error
}

type shell struct{ idx index }

func (sh *shell) segmentCandidates(buf []byte) error { return sh.idx.candidates(buf) }

// candidates mutates a sealed segment and reaches maintenance: rules 1
// and 2 both fire although no static edge leads here.
func (s *segment) candidates(buf []byte) error {
	if err := s.file.WritePage(0, buf); err != nil { // want `segment-reader path candidates calls WritePage`
		return err
	}
	return s.compactNothing() // want `maintenance function compactNothing is reachable from a search path`
}

func (s *segment) compactNothing() error { return nil }

// SearchBad reaches maintenance: rule 2.
func (s *segment) SearchBad(buf []byte) error {
	return s.flushNow(buf) // want `maintenance function flushNow is reachable from a search path`
}

// SearchGood only reads.
func (s *segment) SearchGood(buf []byte) error {
	return s.readPages(buf)
}

// Insert may flush; the update path keeps the carve-out.
func (s *segment) Insert(buf []byte) error {
	return s.flushNow(buf)
}

// flushNow writes by design, under the write lock.
func (s *segment) flushNow(buf []byte) error {
	return s.file.WritePage(0, buf)
}

// rebuildSeg writes through a ReadOnly view: rule 3.
func rebuildSeg(store pagestore.Store, buf []byte) error {
	ro := pagestore.ReadOnly(store)
	f, err := ro.Open("seg")
	if err != nil {
		return err
	}
	return f.WritePage(0, buf) // want `write through a ReadOnly store view`
}

// rebuildOK writes through the writable store; fine.
func rebuildOK(store pagestore.Store, buf []byte) error {
	f, err := store.Open("seg")
	if err != nil {
		return err
	}
	return f.WritePage(0, buf)
}

// reopenRO reads through a ReadOnly view; fine.
func reopenRO(store pagestore.Store, buf []byte) error {
	ro := pagestore.ReadOnly(store)
	f, err := ro.Open("seg")
	if err != nil {
		return err
	}
	return f.ReadPage(0, buf)
}
