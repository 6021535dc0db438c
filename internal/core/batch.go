package core

import (
	"fmt"
	"sort"

	"sigfile/internal/pagestore"
)

// Entry is one (OID, set value) pair for batch loading.
type Entry struct {
	OID   uint64
	Elems []string
}

// BatchInserter is implemented by facilities that can amortize page
// writes across a batch of insertions — everything Open returns, through
// the shell's InsertBatch. The paper prices a single BSSF
// insertion at F+1 page accesses and notes the estimate is worst case;
// batching is the strongest form of the improvement: a batch of B
// insertions landing on the same slice pages costs one write per touched
// page, not per (object × slice).
type BatchInserter interface {
	// InsertBatch inserts all entries, equivalent to calling Insert for
	// each in order but with page writes deferred until the batch ends.
	InsertBatch(entries []Entry) error
}

// insertBatch implements index for BSSF: slice tail pages are
// written once per touched (slice, page) instead of once per insert, so
// a bulk load of N ≤ P·b objects costs about F slice writes in total
// (plus one OID-file write per insert) — versus N·m_t slice writes on
// the one-at-a-time path.
func (b *bssfIndex) insertBatch(entries []Entry) error {
	dirtySlices := make(map[int]struct{}, b.scheme.F())
	flush := func() error {
		if len(dirtySlices) == 0 {
			return nil
		}
		page := pagestore.PageID((b.n - 1) / bitsPerSlicePage)
		for j := range dirtySlices {
			if err := b.slices[j].WritePage(page, b.tails[j]); err != nil {
				return fmt.Errorf("core: BSSF batch flush slice %d: %w", j, err)
			}
		}
		dirtySlices = make(map[int]struct{}, len(dirtySlices))
		return nil
	}
	for _, e := range entries {
		idx := b.n
		if idx%bitsPerSlicePage == 0 {
			// Crossing a page boundary: flush the filled pages, then
			// extend every slice.
			if err := flush(); err != nil {
				return err
			}
			for j, f := range b.slices {
				if _, err := f.Allocate(); err != nil {
					return fmt.Errorf("core: extend slice %d: %w", j, err)
				}
				for i := range b.tails[j] {
					b.tails[j][i] = 0
				}
			}
		}
		deduped := dedup(e.Elems)
		sig := b.scheme.SetSignatureStrings(deduped)
		bit := idx % bitsPerSlicePage
		for _, j := range sig.Ones() {
			b.tails[j][bit/8] |= 1 << uint(bit%8)
			dirtySlices[j] = struct{}{}
		}
		if _, err := b.oid.append(e.OID); err != nil {
			// Undo nothing: the OID file is the source of truth for
			// count; the dirty bits for this entry are harmless extras
			// (false drops only) if a later flush writes them.
			return err
		}
		b.n++
		b.card.add(len(deduped))
	}
	return flush()
}

// insertBatch implements index for SSF: signature and OID tail
// pages are written once per fill instead of once per insert, so a bulk
// load of N objects costs ~⌈N/sigsPerPage⌉ + ⌈N/O_P⌉ page writes instead
// of 2·N — the same page-granular amortization as BSSF's batch path.
func (s *ssfIndex) insertBatch(entries []Entry) error {
	dirty := false
	flush := func() error {
		if !dirty {
			return nil
		}
		if err := s.sig.WritePage(s.tailPage, s.tail); err != nil {
			return fmt.Errorf("core: SSF batch flush: %w", err)
		}
		dirty = false
		return nil
	}
	oids := make([]uint64, 0, len(entries))
	cards := make([]int, 0, len(entries))
	for _, e := range entries {
		deduped := dedup(e.Elems)
		sig := s.scheme.SetSignatureStrings(deduped)
		slot := s.n % s.sigsPerPage
		if slot == 0 {
			if err := flush(); err != nil {
				s.n = s.oid.n
				return err
			}
			id, err := s.sig.Allocate()
			if err != nil {
				s.n = s.oid.n
				return fmt.Errorf("core: SSF batch: %w", err)
			}
			s.tailPage = id
			for i := range s.tail {
				s.tail[i] = 0
			}
		}
		sig.MarshalBinaryTo(s.tail[slot*s.sigBytes:])
		dirty = true
		s.n++
		oids = append(oids, e.OID)
		cards = append(cards, len(deduped))
	}
	if err := flush(); err != nil {
		s.n = s.oid.n
		return err
	}
	if err := s.oid.appendBatch(oids); err != nil {
		// Realign with the OID file (the authority for count); the extra
		// signatures past count are stale slots the next insert overwrites.
		s.n = s.oid.n
		return err
	}
	for _, c := range cards {
		s.card.add(c)
	}
	return nil
}

// insertBatch implements index for FSSF with the same page-granular
// amortization as BSSF's.
func (f *fssfIndex) insertBatch(entries []Entry) error {
	dirty := make(map[int]struct{}, f.scheme.K())
	flush := func() error {
		if len(dirty) == 0 {
			return nil
		}
		page := pagestore.PageID((f.n - 1) / f.recsPerPage)
		for j := range dirty {
			if err := f.frames[j].WritePage(page, f.tails[j]); err != nil {
				return fmt.Errorf("core: FSSF batch flush frame %d: %w", j, err)
			}
		}
		dirty = make(map[int]struct{}, len(dirty))
		return nil
	}
	for _, e := range entries {
		idx := f.n
		slot := idx % f.recsPerPage
		if slot == 0 {
			if err := flush(); err != nil {
				return err
			}
			for j, file := range f.frames {
				if _, err := file.Allocate(); err != nil {
					return fmt.Errorf("core: extend frame %d: %w", j, err)
				}
				for i := range f.tails[j] {
					f.tails[j][i] = 0
				}
			}
		}
		deduped := dedup(e.Elems)
		sig := f.scheme.SetSignature(deduped)
		for _, j := range sig.TouchedFrames() {
			sig.Frame(j).MarshalBinaryTo(f.tails[j][slot*f.recBytes:])
			dirty[j] = struct{}{}
		}
		if _, err := f.oid.append(e.OID); err != nil {
			return err
		}
		f.n++
		f.card.add(len(deduped))
	}
	return flush()
}

// insertBatch implements index for NIX: the batch's postings are
// grouped by element and inserted in sorted key order, so consecutive
// B⁺-tree insertions land on the same leaf instead of hopping across the
// tree once per (object × element). Per-element posting lists come out in
// entry order, exactly as the one-at-a-time path builds them.
func (n *nixIndex) insertBatch(entries []Entry) error {
	// Validate up front: duplicates (against the index and within the
	// batch) fail before any tree mutation.
	inBatch := make(map[uint64]struct{}, len(entries))
	for _, e := range entries {
		if _, dup := n.live[e.OID]; dup {
			return fmt.Errorf("core: NIX batch: OID %d already indexed", e.OID)
		}
		if _, dup := inBatch[e.OID]; dup {
			return fmt.Errorf("core: NIX batch: OID %d appears twice", e.OID)
		}
		inBatch[e.OID] = struct{}{}
	}
	posts := make(map[string][]uint64)
	for _, e := range entries {
		for _, elem := range dedup(e.Elems) {
			posts[elem] = append(posts[elem], e.OID)
		}
	}
	keys := make([]string, 0, len(posts))
	for k := range posts {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		for _, oid := range posts[k] {
			if err := n.tree.Insert([]byte(k), oid); err != nil {
				return fmt.Errorf("core: NIX batch insert %q: %w", k, err)
			}
		}
	}
	for _, e := range entries {
		deduped := dedup(e.Elems)
		n.live[e.OID] = struct{}{}
		if len(deduped) == 0 {
			n.empty[e.OID] = struct{}{}
		}
		n.card.add(len(deduped))
	}
	return nil
}
