package core

import (
	"context"
	"fmt"
	"sort"

	"sigfile/internal/bitset"
	"sigfile/internal/obs"
	"sigfile/internal/pagestore"
	"sigfile/internal/signature"
)

// FSSF is the frame-sliced signature file, an extension beyond the
// paper's two organizations (§3.1 notes "a number of choices in physical
// signature file organizations"; frame slicing is the classical third
// point in that design space). The F = K·S signature bits are split into
// K frames of S bits; each element hashes into one frame; frame j of
// every signature is stored row-wise in frame file j.
//
// Costs sit between SSF and BSSF:
//
//	T ⊇ Q reads only the frames the query elements hash to
//	  (≈ K·(1−(1−1/K)^Dq) frame files, each ⌈N·S/(P·b)⌉ pages);
//	T ⊆ Q must read every frame (like SSF's full scan);
//	insertion writes one page per frame touched by the object
//	  (≤ min(Dt, K) + 1, far below BSSF's m_t + 1).
//
// An FSSF is safe for concurrent use: searches run in parallel with each
// other; updates exclude searches and one another through the shell's
// readers-writer lock (the tail caches and count are mutated on every
// insert).
type FSSF struct {
	*shell
	ix *fssfIndex
}

// fssfIndex is FSSF's index: the frame files, the OID file and the
// per-predicate frame selection.
type fssfIndex struct {
	scheme *signature.FrameScheme
	frames []pagestore.File
	oid    *oidFile
	n      int // frame records appended (live + stale)

	recBytes    int // bytes per frame record (⌈S/8⌉)
	recsPerPage int
	tails       [][]byte

	// card accumulates inserted set cardinalities for describe.
	card cardStats
}

// NewFSSF creates (or reopens) a frame-sliced signature file in store
// using files "fssf.frame.<j>" and "fssf.oid".
func NewFSSF(scheme *signature.FrameScheme, src SetSource, store pagestore.Store) (*FSSF, error) {
	if scheme == nil {
		return nil, fmt.Errorf("core: FSSF needs a frame scheme")
	}
	if src == nil {
		return nil, fmt.Errorf("core: FSSF needs a SetSource for drop resolution")
	}
	if store == nil {
		store = pagestore.NewMemStore()
	}
	recBytes := bitset.ByteLen(scheme.S())
	f := &fssfIndex{
		scheme:      scheme,
		recBytes:    recBytes,
		recsPerPage: pagestore.PageSize / recBytes,
	}
	if f.recsPerPage == 0 {
		return nil, fmt.Errorf("core: frame size S=%d (%d bytes) exceeds page size", scheme.S(), recBytes)
	}
	f.frames = make([]pagestore.File, scheme.K())
	f.tails = make([][]byte, scheme.K())
	for j := range f.frames {
		file, err := store.Open(fmt.Sprintf("fssf.frame.%04d", j))
		if err != nil {
			return nil, fmt.Errorf("core: open frame %d: %w", j, err)
		}
		f.frames[j] = file
		f.tails[j] = make([]byte, pagestore.PageSize)
		if np := file.NumPages(); np > 0 {
			if err := file.ReadPage(pagestore.PageID(np-1), f.tails[j]); err != nil {
				return nil, fmt.Errorf("core: recover frame %d tail: %w", j, err)
			}
		}
	}
	oidF, err := store.Open("fssf.oid")
	if err != nil {
		return nil, fmt.Errorf("core: open oid file: %w", err)
	}
	if f.oid, err = newOIDFile(oidF); err != nil {
		return nil, err
	}
	f.n = f.oid.n
	return &FSSF{shell: newShell(KindFSSF, scheme.M(), src, f), ix: f}, nil
}

// Scheme returns the frame scheme in use.
func (f *FSSF) Scheme() *signature.FrameScheme { return f.ix.scheme }

// FramePages returns the storage cost of one frame file in pages.
func (f *FSSF) FramePages() int {
	f.mu.RLock()
	defer f.mu.RUnlock()
	if len(f.ix.frames) == 0 {
		return 0
	}
	return f.ix.frames[0].NumPages()
}

// OIDPages returns SC_OID.
func (f *FSSF) OIDPages() int {
	f.mu.RLock()
	defer f.mu.RUnlock()
	return f.ix.oid.pages()
}

func (f *fssfIndex) count() int { return f.oid.live }

// describe implements index.
func (f *fssfIndex) describe() FacilityStats {
	n := f.oid.pages()
	for _, file := range f.frames {
		n += file.NumPages()
	}
	return FacilityStats{
		Count:        f.oid.live,
		AvgSetCard:   f.card.avg(),
		F:            f.scheme.F(),
		M:            f.scheme.M(),
		Frames:       f.scheme.K(),
		StoragePages: n,
	}
}

// insert implements index. Cost: one page write per frame the object's
// elements hash to, plus one OID-file write.
func (f *fssfIndex) insert(oid uint64, elems []string) error {
	deduped := dedup(elems)
	sig := f.scheme.SetSignature(deduped)
	idx := f.n
	slot := idx % f.recsPerPage
	if slot == 0 {
		for j, file := range f.frames {
			if _, err := file.Allocate(); err != nil {
				return fmt.Errorf("core: extend frame %d: %w", j, err)
			}
			for i := range f.tails[j] {
				f.tails[j][i] = 0
			}
		}
	}
	page := pagestore.PageID(idx / f.recsPerPage)
	for _, j := range sig.TouchedFrames() {
		sig.Frame(j).MarshalBinaryTo(f.tails[j][slot*f.recBytes:])
		if err := f.frames[j].WritePage(page, f.tails[j]); err != nil {
			return fmt.Errorf("core: write frame %d: %w", j, err)
		}
	}
	if _, err := f.oid.append(oid); err != nil {
		return err
	}
	f.n++
	f.card.add(len(deduped))
	return nil
}

// delete implements index: tombstones the OID entry, like the other
// signature files.
func (f *fssfIndex) delete(oid uint64, _ []string) error { return f.oid.delete(oid) }

// scanFrame reads frame file j over all count records, invoking fn with
// each record's index and content. buf (one page) and rec (S bits) are the
// caller's scratch, reused between calls; fn must not retain rec.
func (f *fssfIndex) scanFrame(ctx context.Context, j int, buf []byte, rec *bitset.BitSet, stats *SearchStats, fn func(idx int, rec *bitset.BitSet)) error {
	stats.SlicesRead++
	for p := 0; p*f.recsPerPage < f.n; p++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		if err := f.frames[j].ReadPage(pagestore.PageID(p), buf); err != nil {
			return fmt.Errorf("core: read frame %d page %d: %w", j, p, err)
		}
		stats.IndexPages++
		limit := f.n - p*f.recsPerPage
		if limit > f.recsPerPage {
			limit = f.recsPerPage
		}
		for i := 0; i < limit; i++ {
			if err := rec.LoadBinary(buf[i*f.recBytes : (i+1)*f.recBytes]); err != nil {
				return fmt.Errorf("core: frame %d page %d slot %d: %w", j, p, i, err)
			}
			fn(p*f.recsPerPage+i, rec)
		}
	}
	return nil
}

// frameMask scans every frame in js and returns the positions whose record
// pass reported qualifying in every scanned frame (and) or in at least one
// (or). It scans the frames with one page buffer and one scratch record,
// clearing (and) or setting (or) bits of one mask as records fail or
// qualify.
func (f *fssfIndex) frameMask(ctx context.Context, js []int, and bool, stats *SearchStats, pass func(j int, rec *bitset.BitSet) bool) (*bitset.BitSet, error) {
	mask := newFoldAcc(f.n, and)
	buf := make([]byte, pagestore.PageSize)
	scratch := bitset.New(f.scheme.S())
	for _, j := range js {
		err := f.scanFrame(ctx, j, buf, scratch, stats, func(idx int, rec *bitset.BitSet) {
			switch ok := pass(j, rec); {
			case and && !ok:
				mask.Clear(idx)
			case !and && ok:
				mask.Set(idx)
			}
		})
		if err != nil {
			return nil, err
		}
	}
	return mask, nil
}

// candidates implements index: each predicate folds its frames into one
// qualifying mask (frameMask). A probe cap reads fewer frame files on
// T ⊇ Q à la §5.1.3.
func (f *fssfIndex) candidates(ctx context.Context, pred signature.Predicate, query []string, opts SearchOptions, stats *SearchStats, tr *obs.Trace) ([]uint64, error) {
	probe := probeElements(query, opts, pred)

	phase := tr.Begin()
	var candidateBits *bitset.BitSet
	var err error
	switch pred {
	case signature.Superset, signature.Contains:
		candidateBits, err = f.supersetCandidates(ctx, probe, stats)
	case signature.Subset:
		candidateBits, err = f.subsetCandidates(ctx, query, stats)
	case signature.Overlap:
		candidateBits, err = f.overlapCandidates(ctx, query, stats)
	case signature.Equals:
		candidateBits, err = f.equalsCandidates(ctx, query, stats)
	}
	if err != nil {
		return nil, err
	}
	tr.End(obs.PhaseIndexScan, phase, stats.IndexPages)

	phase = tr.Begin()
	candidates, oidPages, err := f.oid.getMany(candidateBits.Ones())
	if err != nil {
		return nil, err
	}
	stats.OIDPages += oidPages
	tr.End(obs.PhaseOIDMap, phase, stats.OIDPages)
	return candidates, nil
}

// liveOIDs implements index: every non-tombstoned OID in storage order.
func (f *fssfIndex) liveOIDs() ([]uint64, error) { return f.oid.liveOIDs() }

// supersetCandidates reads only the frames the probe elements hash to:
// a target qualifies if, in every touched frame, its frame content
// covers the union of the probe elements' bits there.
func (f *fssfIndex) supersetCandidates(ctx context.Context, probe []string, stats *SearchStats) (*bitset.BitSet, error) {
	need := make(map[int]*bitset.BitSet)
	for _, e := range probe {
		frame, bits := f.scheme.ElementFrame([]byte(e))
		if need[frame] == nil {
			need[frame] = bitset.New(f.scheme.S())
		}
		for _, b := range bits {
			need[frame].Set(b)
		}
	}
	return f.frameMask(ctx, sortedKeys(need), true, stats, func(j int, rec *bitset.BitSet) bool {
		return rec.ContainsAll(need[j])
	})
}

// subsetCandidates reads every frame: a target qualifies if each of its
// frame contents is contained in the query's.
func (f *fssfIndex) subsetCandidates(ctx context.Context, query []string, stats *SearchStats) (*bitset.BitSet, error) {
	qsig := f.scheme.SetSignature(query)
	empty := bitset.New(f.scheme.S())
	qframe := func(j int) *bitset.BitSet {
		if qf := qsig.Frame(j); qf != nil {
			return qf
		}
		return empty
	}
	return f.frameMask(ctx, allFrames(f.scheme.K()), true, stats, func(j int, rec *bitset.BitSet) bool {
		return rec.SubsetOf(qframe(j))
	})
}

// overlapCandidates marks targets whose frame contains all bits of at
// least one query element — a finer filter than bit-level intersection.
func (f *fssfIndex) overlapCandidates(ctx context.Context, query []string, stats *SearchStats) (*bitset.BitSet, error) {
	perFrame := make(map[int][]*bitset.BitSet)
	for _, e := range query {
		frame, bits := f.scheme.ElementFrame([]byte(e))
		eb := bitset.New(f.scheme.S())
		for _, b := range bits {
			eb.Set(b)
		}
		perFrame[frame] = append(perFrame[frame], eb)
	}
	return f.frameMask(ctx, sortedKeys(perFrame), false, stats, func(j int, rec *bitset.BitSet) bool {
		for _, eb := range perFrame[j] {
			if rec.ContainsAll(eb) {
				return true
			}
		}
		return false
	})
}

// equalsCandidates reads every frame: the target's frame content must
// equal the query signature's in each frame.
func (f *fssfIndex) equalsCandidates(ctx context.Context, query []string, stats *SearchStats) (*bitset.BitSet, error) {
	qsig := f.scheme.SetSignature(query)
	empty := bitset.New(f.scheme.S())
	qframe := func(j int) *bitset.BitSet {
		if qf := qsig.Frame(j); qf != nil {
			return qf
		}
		return empty
	}
	return f.frameMask(ctx, allFrames(f.scheme.K()), true, stats, func(j int, rec *bitset.BitSet) bool {
		return rec.Equal(qframe(j))
	})
}

func sortedKeys[V any](m map[int]V) []int {
	out := make([]int, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Ints(out)
	return out
}

// allFrames returns [0, k) — the frame list of the full-scan predicates.
func allFrames(k int) []int {
	out := make([]int, k)
	for i := range out {
		out[i] = i
	}
	return out
}

var _ subFacility = (*FSSF)(nil)
