package core

import (
	"cmp"
	"context"
	"fmt"
	"slices"

	"sigfile/internal/btree"
	"sigfile/internal/obs"
	"sigfile/internal/pagestore"
	"sigfile/internal/signature"
)

// NIX is the nested index (§4.3): a B⁺-tree whose leaf entries map each
// set element value to the list of OIDs of objects whose indexed set
// attribute contains that value — the [Ber89]-style comparison baseline.
//
// Query processing follows §4.3:
//
//	T ⊇ Q: look up every query element and intersect the OID lists (the
//	intersection is exact, so resolution always succeeds);
//	T ⊆ Q: look up every query element, union the OID lists, and check
//	each candidate against the stored object (Appendix B);
//	overlap: union (exact); equality: intersect then verify cardinality;
//	membership: a single lookup.
//
// The smart strategy for T ⊇ Q (§5.1.3) probes only k query elements and
// verifies candidates, trading lookups against candidate fetches.
//
// A NIX is safe for concurrent use: searches run in parallel with each
// other (tree lookups read no mutable tree state and count their own
// pages); updates exclude searches and one another through the shell's
// readers-writer lock (insert and delete mutate the tree and the
// live/empty maps).
type NIX struct {
	*shell
	ix *nixIndex
}

// nixIndex is NIX's index: the B⁺-tree and the posting-list combine.
type nixIndex struct {
	tree *btree.Tree
	// live tracks the OIDs the index covers.
	live map[uint64]struct{}
	// empty tracks live OIDs whose indexed set is empty: they have no
	// postings, yet ∅ ⊆ Q makes them answers to every Subset query.
	// (They cannot be recovered from a reopened index file — an object
	// with no postings left no trace — so persistent deployments should
	// not index empty sets; the signature files handle them natively.)
	empty map[uint64]struct{}

	// card accumulates inserted set cardinalities for describe.
	card cardStats
}

// NewNIX creates (or reopens) a nested index in store using the file
// "nix.btree".
func NewNIX(src SetSource, store pagestore.Store) (*NIX, error) {
	if src == nil {
		return nil, fmt.Errorf("core: NIX needs a SetSource for candidate verification")
	}
	if store == nil {
		store = pagestore.NewMemStore()
	}
	f, err := store.Open("nix.btree")
	if err != nil {
		return nil, fmt.Errorf("core: open nix file: %w", err)
	}
	tree, err := btree.Open(f)
	if err != nil {
		return nil, err
	}
	n := &nixIndex{tree: tree, live: make(map[uint64]struct{}), empty: make(map[uint64]struct{})}
	// Recover the live-object set from the postings.
	if err := tree.Range(nil, nil, func(_ []byte, oids []uint64) bool {
		for _, oid := range oids {
			n.live[oid] = struct{}{}
		}
		return true
	}); err != nil {
		return nil, err
	}
	return &NIX{shell: newShell(KindNIX, 0, src, n), ix: n}, nil
}

// Tree exposes the underlying B⁺-tree (read-only use: height, breakdown).
func (n *NIX) Tree() *btree.Tree { return n.ix.tree }

// LookupCost returns rc, the page accesses of one element lookup: the
// tree height (nonleaf levels + leaf), matching the paper's rc = h + 1.
func (n *NIX) LookupCost() int { return n.ix.tree.Height() }

func (n *nixIndex) count() int { return len(n.live) }

// describe implements index: SC = lp + nlp (+ overflow and meta pages,
// which the paper's model folds into the leaf estimate).
func (n *nixIndex) describe() FacilityStats {
	return FacilityStats{
		Count:         len(n.live),
		AvgSetCard:    n.card.avg(),
		DistinctElems: n.tree.Keys(),
		LookupPages:   n.tree.Height(),
		StoragePages:  n.tree.Pages(),
	}
}

// insert implements index: one B⁺-tree insertion per element, D_t
// insertions in total (UC_I = rc·D_t).
func (n *nixIndex) insert(oid uint64, elems []string) error {
	if _, dup := n.live[oid]; dup {
		return fmt.Errorf("core: NIX insert: OID %d already indexed", oid)
	}
	deduped := dedup(elems)
	for _, e := range deduped {
		if err := n.tree.Insert([]byte(e), oid); err != nil {
			return fmt.Errorf("core: NIX insert %q: %w", e, err)
		}
	}
	n.live[oid] = struct{}{}
	if len(deduped) == 0 {
		n.empty[oid] = struct{}{}
	}
	n.card.add(len(deduped))
	return nil
}

// delete implements index: elems must be the indexed set value of the
// object (D_t deletions, UC_D = rc·D_t).
func (n *nixIndex) delete(oid uint64, elems []string) error {
	if _, ok := n.live[oid]; !ok {
		return fmt.Errorf("core: NIX delete: OID %d not indexed", oid)
	}
	for _, e := range dedup(elems) {
		if err := n.tree.Delete([]byte(e), oid); err != nil {
			return fmt.Errorf("core: NIX delete %q: %w", e, err)
		}
	}
	delete(n.live, oid)
	delete(n.empty, oid)
	return nil
}

// candidates implements index. Each probe lookup counts the tree pages
// it touched (btree.LookupPages) into IndexPages.
func (n *nixIndex) candidates(ctx context.Context, pred signature.Predicate, query []string, opts SearchOptions, stats *SearchStats, tr *obs.Trace) ([]uint64, error) {
	probe := probeElements(query, opts, pred)

	phase := tr.Begin()
	postings := make([][]uint64, len(probe))
	for i, e := range probe {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		oids, np, err := n.tree.LookupPages([]byte(e))
		if err != nil {
			return nil, fmt.Errorf("core: NIX lookup %q: %w", e, err)
		}
		stats.IndexPages += np
		postings[i] = oids
	}
	tr.End(obs.PhaseIndexScan, phase, stats.IndexPages)

	// NIX keeps OIDs in its postings, so the OID-map phase reads nothing
	// (the paper's LC_OID = 0 for the nested index); the span records the
	// candidate-set combine.
	phase = tr.Begin()
	var candidates []uint64
	switch pred {
	case signature.Superset, signature.Contains, signature.Equals:
		// Equality candidates are supersets of the query with the right
		// cardinality; intersection plus verification covers it.
		if len(probe) == 0 {
			candidates = n.allOIDs()
		} else {
			candidates = intersectSorted(postings)
		}
	case signature.Subset:
		// Union of postings plus, when the empty set is a legal answer
		// (∅ ⊆ Q always), the objects appearing under no element at all.
		// Objects with empty sets have no postings, so they must be
		// checked separately; the paper's model ignores them (every set
		// has cardinality D_t > 0) and so do we unless they exist. They
		// join the union as one more list, so the combine sorts once.
		if len(n.empty) > 0 {
			postings = append(postings, n.emptySetOIDs())
		}
		candidates = unionSorted(postings)
	case signature.Overlap:
		candidates = unionSorted(postings)
	}
	tr.End(obs.PhaseOIDMap, phase, stats.OIDPages)
	return candidates, nil
}

// liveOIDs implements index: every indexed OID, sorted. OIDs
// of empty sets are excluded — they leave no postings, so a reopened
// index cannot see them; the LSM layer persists them in segment
// metadata instead.
func (n *nixIndex) liveOIDs() ([]uint64, error) {
	out := make([]uint64, 0, len(n.live))
	for oid := range n.live {
		if _, isEmpty := n.empty[oid]; isEmpty {
			continue
		}
		out = append(out, oid)
	}
	slices.Sort(out)
	return out, nil
}

// allOIDs returns every indexed OID sorted (the candidate set of a
// vacuous query).
func (n *nixIndex) allOIDs() []uint64 {
	out := make([]uint64, 0, len(n.live))
	for oid := range n.live {
		out = append(out, oid)
	}
	slices.Sort(out)
	return out
}

// emptySetOIDs returns live OIDs whose indexed set is empty (tracked
// incrementally at insert/delete time).
func (n *nixIndex) emptySetOIDs() []uint64 {
	out := make([]uint64, 0, len(n.empty))
	for oid := range n.empty {
		out = append(out, oid)
	}
	slices.Sort(out)
	return out
}

// intersectSorted intersects sorted OID lists.
func intersectSorted(lists [][]uint64) []uint64 {
	if len(lists) == 0 {
		return nil
	}
	// Start from the shortest list to keep the working set small.
	slices.SortFunc(lists, func(a, b []uint64) int { return cmp.Compare(len(a), len(b)) })
	acc := lists[0]
	for _, l := range lists[1:] {
		if len(acc) == 0 {
			return nil
		}
		out := acc[:0:0]
		i, j := 0, 0
		for i < len(acc) && j < len(l) {
			switch {
			case acc[i] == l[j]:
				out = append(out, acc[i])
				i++
				j++
			case acc[i] < l[j]:
				i++
			default:
				j++
			}
		}
		acc = out
	}
	return acc
}

// unionSorted unions sorted OID lists into a sorted, deduplicated list.
func unionSorted(lists [][]uint64) []uint64 {
	total := 0
	for _, l := range lists {
		total += len(l)
	}
	out := make([]uint64, 0, total)
	for _, l := range lists {
		out = append(out, l...)
	}
	slices.Sort(out)
	dst := out[:0]
	for i, v := range out {
		if i == 0 || v != out[i-1] {
			dst = append(dst, v)
		}
	}
	return dst
}

var _ subFacility = (*NIX)(nil)
