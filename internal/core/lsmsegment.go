package core

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"sort"

	"sigfile/internal/pagestore"
)

// This file is the immutable-segment side of the LSM write path: the
// per-segment metadata (tombstones and empty-set OIDs that the inner
// facility cannot carry), the manifest that makes the segment list and
// generation crash-recoverable, and the helpers that build a segment
// from a memtable and reopen it read-only.

// lsmSegMeta is the durable metadata of one sealed segment.
type lsmSegMeta struct {
	// ID names the segment's file prefix (segPrefix).
	ID uint64 `json:"id"`
	// Count is the number of set values stored in the inner facility.
	Count int `json:"count"`
	// Tombs are the OIDs the segment's memtable deleted: at reopen they
	// kill occurrences of those OIDs in older segments.
	Tombs []uint64 `json:"tombs,omitempty"`
	// Empties are the live OIDs whose set value is empty. They are not
	// inserted into the inner facility (NIX could not recover them — an
	// empty set leaves no postings), so the metadata carries them.
	Empties []uint64 `json:"empties,omitempty"`
}

// lsmSegment is one sealed segment: an inner facility served through a
// read-only store view, plus its metadata.
type lsmSegment struct {
	id    uint64
	inner subFacility
	meta  lsmSegMeta
}

// lsmManifest is the durable root of the LSM state: the current log
// generation, the next segment ID, and the sealed segments oldest
// first. It is rewritten atomically-per-page on every flush/compaction;
// the log of generation Gen plus the listed segments reconstruct the
// facility exactly.
type lsmManifest struct {
	Gen      uint64       `json:"gen"`
	NextSeg  uint64       `json:"next_seg"`
	Segments []lsmSegMeta `json:"segments"`
}

const (
	lsmManifestName    = "lsm.manifest"
	lsmManifestMagic   = 0x4c534d31 // "LSM1"
	lsmManifestVersion = 1
	lsmManifestHeader  = 12 // magic + version + payload length
)

// writeManifest serializes m into file: a 12-byte header (magic,
// version, payload length) followed by JSON, spilling across pages.
func writeManifest(file pagestore.File, m *lsmManifest) error {
	payload, err := json.Marshal(m)
	if err != nil {
		return fmt.Errorf("core: lsm manifest encode: %w", err)
	}
	buf := make([]byte, lsmManifestHeader+len(payload))
	binary.LittleEndian.PutUint32(buf, lsmManifestMagic)
	binary.LittleEndian.PutUint32(buf[4:], lsmManifestVersion)
	binary.LittleEndian.PutUint32(buf[8:], uint32(len(payload)))
	copy(buf[lsmManifestHeader:], payload)
	page := make([]byte, pagestore.PageSize)
	for p := 0; len(buf) > 0; p++ {
		for p >= file.NumPages() {
			if _, err := file.Allocate(); err != nil {
				return fmt.Errorf("core: lsm manifest extend: %w", err)
			}
		}
		for i := range page {
			page[i] = 0
		}
		n := copy(page, buf)
		buf = buf[n:]
		if err := file.WritePage(pagestore.PageID(p), page); err != nil {
			return fmt.Errorf("core: lsm manifest write page %d: %w", p, err)
		}
	}
	return nil
}

// readManifest parses the manifest from file; a zero-page file means a
// fresh facility and yields nil.
func readManifest(file pagestore.File) (*lsmManifest, error) {
	if file.NumPages() == 0 {
		return nil, nil
	}
	page := make([]byte, pagestore.PageSize)
	if err := file.ReadPage(0, page); err != nil {
		return nil, fmt.Errorf("core: lsm manifest read: %w", err)
	}
	if magic := binary.LittleEndian.Uint32(page); magic != lsmManifestMagic {
		return nil, fmt.Errorf("core: lsm manifest bad magic %#x", magic)
	}
	if v := binary.LittleEndian.Uint32(page[4:]); v != lsmManifestVersion {
		return nil, fmt.Errorf("core: lsm manifest unsupported version %d", v)
	}
	plen := int(binary.LittleEndian.Uint32(page[8:]))
	payload := make([]byte, 0, plen)
	payload = append(payload, page[lsmManifestHeader:min(pagestore.PageSize, lsmManifestHeader+plen)]...)
	for p := 1; len(payload) < plen; p++ {
		if err := file.ReadPage(pagestore.PageID(p), page); err != nil {
			return nil, fmt.Errorf("core: lsm manifest read page %d: %w", p, err)
		}
		payload = append(payload, page[:min(pagestore.PageSize, plen-len(payload))]...)
	}
	var m lsmManifest
	if err := json.Unmarshal(payload, &m); err != nil {
		return nil, fmt.Errorf("core: lsm manifest decode: %w", err)
	}
	return &m, nil
}

// segPrefix is the store namespace of segment id.
func segPrefix(id uint64) string { return fmt.Sprintf("seg.%06d", id) }

// segmentFileNames lists the files a segment of the given configuration
// occupies (relative to its prefix), for best-effort removal after the
// segment is superseded.
func segmentFileNames(cfg *Config) []string {
	switch cfg.Kind {
	case KindSSF:
		return []string{"ssf.sig", "ssf.oid"}
	case KindBSSF:
		names := make([]string, 0, cfg.Scheme.F()+1)
		for j := 0; j < cfg.Scheme.F(); j++ {
			names = append(names, fmt.Sprintf("bssf.slice.%04d", j))
		}
		return append(names, "bssf.oid")
	case KindFSSF:
		k := 0
		if cfg.FrameScheme != nil {
			k = cfg.FrameScheme.K()
		} else if fs, err := deriveFrameScheme(cfg.Scheme, cfg.Frames); err == nil {
			k = fs.K()
		}
		names := make([]string, 0, k+1)
		for j := 0; j < k; j++ {
			names = append(names, fmt.Sprintf("fssf.frame.%04d", j))
		}
		return append(names, "fssf.oid")
	case KindNIX:
		return []string{"nix.btree"}
	default:
		return nil
	}
}

// buildSegment materializes a sealed segment: the non-empty entries are
// bulk-loaded into a fresh inner facility under the segment's prefix,
// then the facility is reopened through a read-only store view so no
// later code path can mutate it. entries must be sorted by OID;
// tombs/empties land in the metadata.
func buildSegment(cfg *Config, store pagestore.Store, id uint64, entries []Entry, tombs, empties []uint64) (*lsmSegment, error) {
	prefix := segPrefix(id)
	// Clear any residue of an interrupted earlier build under this ID
	// (possible only on stores without atomic commit).
	seg := pagestore.Prefixed(store, prefix)
	for _, name := range segmentFileNames(cfg) {
		_ = pagestore.RemoveIfSupported(seg, name)
	}
	inner := *cfg
	inner.LSM = false
	inner.Store = store
	inner.Prefix = prefix
	am, err := open(inner)
	if err != nil {
		return nil, fmt.Errorf("core: lsm build segment %d: %w", id, err)
	}
	if err := am.InsertBatch(entries); err != nil {
		return nil, fmt.Errorf("core: lsm build segment %d: %w", id, err)
	}
	return reopenSegment(cfg, store, lsmSegMeta{ID: id, Count: len(entries), Tombs: tombs, Empties: empties})
}

// reopenSegment opens the sealed segment meta describes through a
// read-only store view.
func reopenSegment(cfg *Config, store pagestore.Store, meta lsmSegMeta) (*lsmSegment, error) {
	inner := *cfg
	inner.LSM = false
	inner.Store = pagestore.ReadOnly(store)
	inner.Prefix = segPrefix(meta.ID)
	am, err := open(inner)
	if err != nil {
		return nil, fmt.Errorf("core: lsm reopen segment %d: %w", meta.ID, err)
	}
	return &lsmSegment{id: meta.ID, inner: am, meta: meta}, nil
}

// sortedU64 sorts a []uint64 ascending in place and returns it.
func sortedU64(s []uint64) []uint64 {
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s
}
