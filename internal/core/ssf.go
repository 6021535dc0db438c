package core

import (
	"context"
	"encoding/binary"
	"fmt"

	"sigfile/internal/bitset"
	"sigfile/internal/obs"
	"sigfile/internal/pagestore"
	"sigfile/internal/signature"
)

// SSF is the sequential signature file organization (§4.1): target
// signatures stored row-wise in insertion order in a signature file, with
// a parallel OID file mapping signature positions to OIDs.
//
// Retrieval scans the entire signature file — its storage cost SC_SIG is
// the dominant term of its retrieval cost, the dilemma §5.1.1 describes.
// Insertion appends to both files (UC_I = 2 page writes); deletion
// tombstones the OID-file entry (UC_D ≈ SC_OID/2 reads + 1 write),
// leaving the stale signature in place exactly as the paper assumes.
//
// An SSF is safe for concurrent use: any number of Search calls may run
// in parallel with each other, and updates (Insert, Delete, Compact)
// exclude searches and one another through the shell's readers-writer
// lock. The tail cache and count make even Insert a reader-visible
// mutation, so updates cannot overlap any search.
type SSF struct {
	*shell
	ix *ssfIndex
}

// ssfIndex is SSF's index: the signature file, the OID file and the scan.
type ssfIndex struct {
	scheme *signature.Scheme
	sig    pagestore.File
	oid    *oidFile

	sigBytes    int // bytes per signature record
	sigsPerPage int
	n           int // signatures appended (live + stale)
	// tail caches the signature page being filled so appends cost one
	// write.
	tail     []byte
	tailPage pagestore.PageID

	// card accumulates inserted set cardinalities for describe.
	card cardStats
}

// NewSSF creates (or reopens) a sequential signature file in store using
// the files "ssf.sig" and "ssf.oid". src resolves OIDs during false-drop
// resolution.
func NewSSF(scheme *signature.Scheme, src SetSource, store pagestore.Store) (*SSF, error) {
	if scheme == nil {
		return nil, fmt.Errorf("core: SSF needs a signature scheme")
	}
	if src == nil {
		return nil, fmt.Errorf("core: SSF needs a SetSource for drop resolution")
	}
	if store == nil {
		store = pagestore.NewMemStore()
	}
	sigFile, err := store.Open("ssf.sig")
	if err != nil {
		return nil, fmt.Errorf("core: open signature file: %w", err)
	}
	oidF, err := store.Open("ssf.oid")
	if err != nil {
		return nil, fmt.Errorf("core: open oid file: %w", err)
	}
	o, err := newOIDFile(oidF)
	if err != nil {
		return nil, err
	}
	sigBytes := bitset.ByteLen(scheme.F())
	s := &ssfIndex{
		scheme:      scheme,
		sig:         sigFile,
		oid:         o,
		sigBytes:    sigBytes,
		sigsPerPage: pagestore.PageSize / sigBytes,
		tail:        make([]byte, pagestore.PageSize),
	}
	if s.sigsPerPage == 0 {
		return nil, fmt.Errorf("core: signature width F=%d (%d bytes) exceeds page size", scheme.F(), sigBytes)
	}
	// Recover the signature count from the OID file (authoritative: both
	// files are appended in lockstep) and reload the tail page.
	s.n = o.n
	if np := sigFile.NumPages(); np > 0 {
		s.tailPage = pagestore.PageID(np - 1)
		if err := sigFile.ReadPage(s.tailPage, s.tail); err != nil {
			return nil, fmt.Errorf("core: recover SSF tail: %w", err)
		}
	}
	return &SSF{shell: newShell(KindSSF, scheme.M(), src, s), ix: s}, nil
}

// Scheme returns the signature scheme in use.
func (s *SSF) Scheme() *signature.Scheme { return s.ix.scheme }

// SignaturePages returns SC_SIG, the storage cost of the signature file.
func (s *SSF) SignaturePages() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.ix.sig.NumPages()
}

// OIDPages returns SC_OID.
func (s *SSF) OIDPages() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.ix.oid.pages()
}

// Compact rebuilds the signature and OID files without tombstoned
// entries, reclaiming the space deletions leave behind (an extension the
// paper's update model leaves open). The store must be the one the SSF
// was created with; compaction rewrites in place.
func (s *SSF) Compact() error { return s.update(s.ix.compact) }

func (s *ssfIndex) count() int { return s.oid.live }

// describe implements index: SC = SC_SIG + SC_OID.
func (s *ssfIndex) describe() FacilityStats {
	return FacilityStats{
		Count:        s.oid.live,
		AvgSetCard:   s.card.avg(),
		F:            s.scheme.F(),
		M:            s.scheme.M(),
		StoragePages: s.sig.NumPages() + s.oid.pages(),
	}
}

// insert implements index. Cost: one write to the signature file and one
// to the OID file — the paper's UC_I = 2.
func (s *ssfIndex) insert(oid uint64, elems []string) error {
	deduped := dedup(elems)
	sig := s.scheme.SetSignatureStrings(deduped)
	slot := s.n % s.sigsPerPage
	if slot == 0 {
		id, err := s.sig.Allocate()
		if err != nil {
			return fmt.Errorf("core: SSF insert: %w", err)
		}
		s.tailPage = id
		for i := range s.tail {
			s.tail[i] = 0
		}
	}
	sig.MarshalBinaryTo(s.tail[slot*s.sigBytes:])
	if err := s.sig.WritePage(s.tailPage, s.tail); err != nil {
		return fmt.Errorf("core: SSF insert: %w", err)
	}
	s.n++
	if _, err := s.oid.append(oid); err != nil {
		// Keep the two files aligned: undo the signature append logically
		// by rolling the count back (the stale slot is overwritten by the
		// next insert).
		s.n--
		return err
	}
	s.card.add(len(deduped))
	return nil
}

// delete implements index: tombstones the OID entry; the stale signature
// remains and any future match on it resolves to nothing.
func (s *ssfIndex) delete(oid uint64, _ []string) error {
	return s.oid.delete(oid)
}

// candidates implements index following §4.1: form the query signature,
// scan the signature file collecting drops, then map drops through the
// OID file.
func (s *ssfIndex) candidates(ctx context.Context, pred signature.Predicate, query []string, opts SearchOptions, stats *SearchStats, tr *obs.Trace) ([]uint64, error) {
	qsig := s.scheme.SetSignatureStrings(probeElements(query, opts, pred))

	// Full scan of the signature file (SC_SIG page reads).
	phase := tr.Begin()
	matchIdx, err := s.scan(ctx, pred, qsig, stats)
	if err != nil {
		return nil, err
	}
	tr.End(obs.PhaseIndexScan, phase, stats.IndexPages)

	// OID look-up (LC_OID): indexes are produced in ascending order, so
	// each OID page is read at most once.
	phase = tr.Begin()
	candidates, oidPages, err := s.oid.getMany(matchIdx)
	if err != nil {
		return nil, err
	}
	stats.OIDPages += oidPages
	tr.End(obs.PhaseOIDMap, phase, stats.OIDPages)
	return candidates, nil
}

// liveOIDs implements index: every non-tombstoned OID in storage order.
func (s *ssfIndex) liveOIDs() ([]uint64, error) { return s.oid.liveOIDs() }

// scan reads every signature page, returning the matching signature
// indexes in ascending order and counting the page reads into stats.
// Cancellation is checked before each page read.
func (s *ssfIndex) scan(ctx context.Context, pred signature.Predicate, qsig *bitset.BitSet, stats *SearchStats) ([]int, error) {
	var matchIdx []int
	buf := make([]byte, pagestore.PageSize)
	tsig := bitset.New(s.scheme.F())
	for p := 0; p*s.sigsPerPage < s.n; p++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if err := s.sig.ReadPage(pagestore.PageID(p), buf); err != nil {
			return nil, fmt.Errorf("core: SSF scan: %w", err)
		}
		stats.IndexPages++
		limit := s.n - p*s.sigsPerPage
		if limit > s.sigsPerPage {
			limit = s.sigsPerPage
		}
		for i := 0; i < limit; i++ {
			if err := tsig.LoadBinary(buf[i*s.sigBytes : (i+1)*s.sigBytes]); err != nil {
				return nil, fmt.Errorf("core: SSF scan page %d slot %d: %w", p, i, err)
			}
			hit, err := signature.Matches(pred, tsig, qsig)
			if err != nil {
				return nil, fmt.Errorf("core: SSF scan: %w", err)
			}
			if hit {
				matchIdx = append(matchIdx, p*s.sigsPerPage+i)
			}
		}
	}
	return matchIdx, nil
}

// compact rewrites both files in place without the tombstoned entries.
func (s *ssfIndex) compact() error {
	type rec struct {
		oid uint64
		sig []byte
	}
	var live []rec
	buf := make([]byte, pagestore.PageSize)
	err := s.oid.scan(func(idx int, oid uint64) error {
		p := idx / s.sigsPerPage
		if err := s.sig.ReadPage(pagestore.PageID(p), buf); err != nil {
			return err
		}
		slot := idx % s.sigsPerPage
		sig := make([]byte, s.sigBytes)
		copy(sig, buf[slot*s.sigBytes:])
		live = append(live, rec{oid: oid, sig: sig})
		return nil
	})
	if err != nil {
		return fmt.Errorf("core: SSF compact: %w", err)
	}
	// Rewrite both files from scratch. Page files cannot shrink, so we
	// rewrite the prefix and track the logical count; the paper's storage
	// metric uses ceil(count/sigsPerPage) which Pages() reflects only for
	// fresh builds — Compact is for reclaiming scan cost, which depends on
	// s.n.
	s.n = 0
	s.oid.n = 0
	s.oid.live = 0
	for i := range s.tail {
		s.tail[i] = 0
	}
	// Reuse existing pages in order.
	s.tailPage = 0
	nextSig := 0
	for _, r := range live {
		slot := s.n % s.sigsPerPage
		if slot == 0 {
			if nextSig < s.sig.NumPages() {
				s.tailPage = pagestore.PageID(nextSig)
			} else {
				id, err := s.sig.Allocate()
				if err != nil {
					return err
				}
				s.tailPage = id
			}
			nextSig++
			for i := range s.tail {
				s.tail[i] = 0
			}
		}
		copy(s.tail[slot*s.sigBytes:], r.sig)
		if err := s.sig.WritePage(s.tailPage, s.tail); err != nil {
			return err
		}
		s.n++
	}
	// Rebuild the OID file the same way.
	s.oid.tailPage = 0
	nextOID := 0
	for i := range s.oid.tail {
		s.oid.tail[i] = 0
	}
	for _, r := range live {
		slot := s.oid.n % oidsPerPage
		if slot == 0 {
			if nextOID < s.oid.file.NumPages() {
				s.oid.tailPage = pagestore.PageID(nextOID)
			} else {
				id, err := s.oid.file.Allocate()
				if err != nil {
					return err
				}
				s.oid.tailPage = id
			}
			nextOID++
			for i := range s.oid.tail {
				s.oid.tail[i] = 0
			}
		}
		putOID(s.oid.tail, slot, r.oid)
		if err := s.oid.file.WritePage(s.oid.tailPage, s.oid.tail); err != nil {
			return err
		}
		s.oid.n++
		s.oid.live++
	}
	// Zero any now-unused trailing OID pages so recovery sees the right
	// count.
	zero := make([]byte, pagestore.PageSize)
	for p := nextOID; p < s.oid.file.NumPages(); p++ {
		if err := s.oid.file.WritePage(pagestore.PageID(p), zero); err != nil {
			return err
		}
	}
	return nil
}

func putOID(page []byte, slot int, oid uint64) {
	binary.LittleEndian.PutUint64(page[slot*8:], oid)
}

var _ subFacility = (*SSF)(nil)
