package core

import (
	"context"
	"fmt"

	"sigfile/internal/bitset"
	"sigfile/internal/obs"
	"sigfile/internal/pagestore"
	"sigfile/internal/signature"
)

// BSSF is the bit-sliced signature file organization (§4.2): the
// signature matrix is stored column-wise in F bit-slice files, one per
// signature bit position, plus the OID file. Bit i of slice j is bit j of
// object i's set signature.
//
// Retrieval reads only the slices the query needs: the m_q one-positions
// of the query signature for T ⊇ Q, the F − m_q zero-positions for
// T ⊆ Q. That asymmetry is what makes BSSF the paper's recommended
// facility. Insertion touches one page in every slice file whose bit is
// set (the paper's worst case writes all F; see WorstCaseInsert).
//
// A BSSF is safe for concurrent use: searches run in parallel with each
// other; updates exclude searches and one another through the shell's
// readers-writer lock (the tail caches and count are mutated on every
// insert).
type BSSF struct {
	*shell
	ix *bssfIndex
}

// bssfIndex is BSSF's index: the slice files, the OID file and the
// per-predicate slice selection.
type bssfIndex struct {
	scheme *signature.Scheme
	slices []pagestore.File
	oid    *oidFile
	n      int // signatures appended (live + stale)

	// tails cache the page currently being appended to in each slice so
	// an insert costs one write per touched slice.
	tails [][]byte

	// worstCaseInsert, when set, writes every slice file on every insert,
	// reproducing the paper's worst-case UC_I = F + 1; when clear only
	// slices whose bit is 1 are written (the improvement §6 anticipates).
	worstCaseInsert bool

	// card accumulates inserted set cardinalities for describe.
	card cardStats
}

// bitsPerSlicePage is the number of objects one slice page covers
// (P·b in the paper's notation).
const bitsPerSlicePage = pagestore.PageSize * 8

// BSSFOption configures a BSSF.
type BSSFOption func(*bssfIndex)

// WithWorstCaseInsert makes Insert write all F slice files, matching the
// paper's worst-case update-cost assumption (Table 7). The default writes
// only the ~m_t slices whose bit is set.
func WithWorstCaseInsert() BSSFOption {
	return func(b *bssfIndex) { b.worstCaseInsert = true }
}

// NewBSSF creates (or reopens) a bit-sliced signature file in store using
// files "bssf.slice.<j>" and "bssf.oid".
func NewBSSF(scheme *signature.Scheme, src SetSource, store pagestore.Store, opts ...BSSFOption) (*BSSF, error) {
	if scheme == nil {
		return nil, fmt.Errorf("core: BSSF needs a signature scheme")
	}
	if src == nil {
		return nil, fmt.Errorf("core: BSSF needs a SetSource for drop resolution")
	}
	if store == nil {
		store = pagestore.NewMemStore()
	}
	b := &bssfIndex{scheme: scheme}
	for _, opt := range opts {
		opt(b)
	}
	b.slices = make([]pagestore.File, scheme.F())
	b.tails = make([][]byte, scheme.F())
	for j := range b.slices {
		f, err := store.Open(fmt.Sprintf("bssf.slice.%04d", j))
		if err != nil {
			return nil, fmt.Errorf("core: open slice %d: %w", j, err)
		}
		b.slices[j] = f
		b.tails[j] = make([]byte, pagestore.PageSize)
		if np := f.NumPages(); np > 0 {
			if err := f.ReadPage(pagestore.PageID(np-1), b.tails[j]); err != nil {
				return nil, fmt.Errorf("core: recover slice %d tail: %w", j, err)
			}
		}
	}
	oidF, err := store.Open("bssf.oid")
	if err != nil {
		return nil, fmt.Errorf("core: open oid file: %w", err)
	}
	b.oid, err = newOIDFile(oidF)
	if err != nil {
		return nil, err
	}
	b.n = b.oid.n
	return &BSSF{shell: newShell(KindBSSF, scheme.M(), src, b), ix: b}, nil
}

// Scheme returns the signature scheme in use.
func (b *BSSF) Scheme() *signature.Scheme { return b.ix.scheme }

// SlicePages returns the storage cost of one bit-slice file,
// ⌈N/(P·b)⌉ in the paper's model.
func (b *BSSF) SlicePages() int {
	b.mu.RLock()
	defer b.mu.RUnlock()
	if len(b.ix.slices) == 0 {
		return 0
	}
	return b.ix.slices[0].NumPages()
}

// OIDPages returns SC_OID.
func (b *BSSF) OIDPages() int {
	b.mu.RLock()
	defer b.mu.RUnlock()
	return b.ix.oid.pages()
}

// Compact rebuilds the slice and OID files without tombstoned entries.
func (b *BSSF) Compact() error { return b.update(b.ix.compact) }

func (b *bssfIndex) count() int { return b.oid.live }

// describe implements index: SC = ⌈N/(P·b)⌉·F + SC_OID.
func (b *bssfIndex) describe() FacilityStats {
	n := b.oid.pages()
	for _, f := range b.slices {
		n += f.NumPages()
	}
	return FacilityStats{
		Count:        b.oid.live,
		AvgSetCard:   b.card.avg(),
		F:            b.scheme.F(),
		M:            b.scheme.M(),
		StoragePages: n,
	}
}

// insert implements index. Default cost: one write per 1-bit of the set
// signature (≈ m_t writes) plus one OID-file write. With
// WithWorstCaseInsert: F + 1 writes, the paper's Table 7 value.
func (b *bssfIndex) insert(oid uint64, elems []string) error {
	deduped := dedup(elems)
	sig := b.scheme.SetSignatureStrings(deduped)
	idx := b.n
	if idx%bitsPerSlicePage == 0 {
		// Crossing a page boundary: extend every slice file. Fresh pages
		// are zeroed, so absent bits need no write.
		for j, f := range b.slices {
			if _, err := f.Allocate(); err != nil {
				return fmt.Errorf("core: extend slice %d: %w", j, err)
			}
			for i := range b.tails[j] {
				b.tails[j][i] = 0
			}
		}
	}
	page := pagestore.PageID(idx / bitsPerSlicePage)
	bit := idx % bitsPerSlicePage
	for j := 0; j < b.scheme.F(); j++ {
		set := sig.Test(j)
		if set {
			b.tails[j][bit/8] |= 1 << uint(bit%8)
		}
		if set || b.worstCaseInsert {
			if err := b.slices[j].WritePage(page, b.tails[j]); err != nil {
				return fmt.Errorf("core: write slice %d: %w", j, err)
			}
		}
	}
	if _, err := b.oid.append(oid); err != nil {
		return err
	}
	b.n++
	b.card.add(len(deduped))
	return nil
}

// delete implements index: tombstones the OID entry only; slice bits of
// the deleted object remain and are filtered at OID mapping time, exactly
// the paper's delete-flag model (UC_D ≈ SC_OID/2).
func (b *bssfIndex) delete(oid uint64, _ []string) error { return b.oid.delete(oid) }

// foldSlices reads every slice in js and combines them — AND when and is
// set, OR otherwise — into one accumulator over all n bit positions. It
// reads each slice page by page into one buffer and folds the page
// straight into the accumulator: a slice page is a word-aligned run of
// positions (bitsPerSlicePage is a multiple of 64), so it combines
// word-wise at its word offset and no set is built per slice.
// Cancellation is checked before each page read.
func (b *bssfIndex) foldSlices(ctx context.Context, js []int, and bool, stats *SearchStats) (*bitset.BitSet, error) {
	acc := newFoldAcc(b.n, and)
	buf := make([]byte, pagestore.PageSize)
	for _, j := range js {
		stats.SlicesRead++
		for p := 0; p*bitsPerSlicePage < b.n; p++ {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			if err := b.slices[j].ReadPage(pagestore.PageID(p), buf); err != nil {
				return nil, fmt.Errorf("core: read slice %d page %d: %w", j, p, err)
			}
			stats.IndexPages++
			if and {
				acc.AndWordsAt(p*bitsPerSlicePage/64, buf)
			} else {
				acc.OrWordsAt(p*bitsPerSlicePage/64, buf)
			}
		}
	}
	return acc, nil
}

// newFoldAcc returns the nbits-bit accumulator of a slice or frame fold:
// all ones for an AND fold, all zeros for an OR fold.
func newFoldAcc(nbits int, and bool) *bitset.BitSet {
	acc := bitset.New(nbits)
	if and {
		acc.Fill()
	}
	return acc
}

// candidates implements index following §4.2's per-query-type slice
// selection, §5.1.3's probe cap (opts.MaxProbeElements) and §5.2.2's
// zero-slice cap (opts.MaxZeroSlices).
func (b *bssfIndex) candidates(ctx context.Context, pred signature.Predicate, query []string, opts SearchOptions, stats *SearchStats, tr *obs.Trace) ([]uint64, error) {
	qsig := b.scheme.SetSignatureStrings(probeElements(query, opts, pred))

	phase := tr.Begin()
	var candidateBits *bitset.BitSet
	var err error
	switch pred {
	case signature.Superset, signature.Contains:
		// AND of the slices at the query's one-positions; an empty probe
		// yields all positions (everything matches a vacuous ⊇). A real
		// system could stop early once the accumulator is empty; the
		// paper's algorithm (and cost model) reads all m_q slices, so we
		// do too to keep measured costs comparable.
		candidateBits, err = b.foldSlices(ctx, qsig.Ones(), true, stats)
	case signature.Subset:
		candidateBits, err = b.orZerosComplement(ctx, qsig, opts.MaxZeroSlices, stats)
	case signature.Overlap:
		candidateBits, err = b.foldSlices(ctx, qsig.Ones(), false, stats)
	case signature.Equals:
		// Equality needs both conditions: 1s everywhere the query has 1s
		// and 0s everywhere it has 0s.
		var ones, zeros *bitset.BitSet
		if ones, err = b.foldSlices(ctx, qsig.Ones(), true, stats); err != nil {
			return nil, err
		}
		if zeros, err = b.orZerosComplement(ctx, qsig, 0, stats); err != nil {
			return nil, err
		}
		ones.And(zeros)
		candidateBits = ones
	}
	if err != nil {
		return nil, err
	}
	tr.End(obs.PhaseIndexScan, phase, stats.IndexPages)

	phase = tr.Begin()
	matchIdx := candidateBits.Ones()
	candidates, oidPages, err := b.oid.getMany(matchIdx)
	if err != nil {
		return nil, err
	}
	stats.OIDPages += oidPages
	tr.End(obs.PhaseOIDMap, phase, stats.OIDPages)
	return candidates, nil
}

// liveOIDs implements index: every non-tombstoned OID in storage order.
func (b *bssfIndex) liveOIDs() ([]uint64, error) { return b.oid.liveOIDs() }

// orZerosComplement ORs the slices at the query's zero-positions and
// complements: surviving positions have 0 at every scanned zero slice —
// the T ⊆ Q match condition. maxZero > 0 caps how many zero slices are
// scanned (smart strategy; the filter stays sound, just weaker).
func (b *bssfIndex) orZerosComplement(ctx context.Context, qsig *bitset.BitSet, maxZero int, stats *SearchStats) (*bitset.BitSet, error) {
	zeros := qsig.Zeros()
	if maxZero > 0 && len(zeros) > maxZero {
		zeros = zeros[:maxZero]
	}
	acc, err := b.foldSlices(ctx, zeros, false, stats)
	if err != nil {
		return nil, err
	}
	acc.Not()
	return acc, nil
}

// compact rewrites the slice and OID files in place without the
// tombstoned entries.
func (b *bssfIndex) compact() error {
	// Collect live entries in index order.
	type live struct {
		idx int
		oid uint64
	}
	var keep []live
	if err := b.oid.scan(func(idx int, oid uint64) error {
		keep = append(keep, live{idx: idx, oid: oid})
		return nil
	}); err != nil {
		return fmt.Errorf("core: BSSF compact: %w", err)
	}
	var st SearchStats // discarded; foldSlices wants stats
	newCount := len(keep)
	for j := range b.slices {
		old, err := b.foldSlices(context.Background(), []int{j}, false, &st)
		if err != nil {
			return err
		}
		compacted := bitset.New(newCount)
		for newIdx, l := range keep {
			if old.Test(l.idx) {
				compacted.Set(newIdx)
			}
		}
		// Rewrite the slice pages covering newCount bits.
		buf := make([]byte, pagestore.PageSize)
		for p := 0; p*bitsPerSlicePage < newCount || p == 0; p++ {
			lo := p * bitsPerSlicePage
			hi := lo + bitsPerSlicePage
			if hi > newCount {
				hi = newCount
			}
			for i := range buf {
				buf[i] = 0
			}
			if hi > lo {
				sub := bitset.New(hi - lo)
				for i := lo; i < hi; i++ {
					if compacted.Test(i) {
						sub.Set(i - lo)
					}
				}
				sub.MarshalBinaryTo(buf)
			}
			if p >= b.slices[j].NumPages() {
				if _, err := b.slices[j].Allocate(); err != nil {
					return err
				}
			}
			if err := b.slices[j].WritePage(pagestore.PageID(p), buf); err != nil {
				return err
			}
			copy(b.tails[j], buf)
			if hi >= newCount {
				break
			}
		}
	}
	// Rebuild the OID file.
	zero := make([]byte, pagestore.PageSize)
	for p := 0; p < b.oid.file.NumPages(); p++ {
		if err := b.oid.file.WritePage(pagestore.PageID(p), zero); err != nil {
			return err
		}
	}
	b.oid.n = 0
	b.oid.live = 0
	b.oid.tailPage = 0
	for i := range b.oid.tail {
		b.oid.tail[i] = 0
	}
	nextPage := 0
	for _, l := range keep {
		slot := b.oid.n % oidsPerPage
		if slot == 0 {
			b.oid.tailPage = pagestore.PageID(nextPage)
			nextPage++
			for i := range b.oid.tail {
				b.oid.tail[i] = 0
			}
		}
		putOID(b.oid.tail, slot, l.oid)
		if err := b.oid.file.WritePage(b.oid.tailPage, b.oid.tail); err != nil {
			return err
		}
		b.oid.n++
		b.oid.live++
	}
	b.n = newCount
	return nil
}

var _ subFacility = (*BSSF)(nil)
