// Write-ahead logging for the durable page stores.
//
// The paper's cost model counts page writes but assumes they land
// atomically; a real BSSF insert touches F+1 files and a crash midway
// leaves the facility silently inconsistent. The WAL restores atomicity
// with the classic physical-redo protocol:
//
//  1. full images of every page a transaction dirtied are appended to the
//     log, each tagged with its file name and page id;
//  2. a commit record is appended and the log is fsynced — the
//     transaction's durability point (the records of steps 1 and 2 are
//     staged in memory and reach the device in one write, see wal.flush);
//  3. only then are the images applied in place to the page files.
//
// Recovery replays the log from the start: images are buffered per
// transaction and applied only when their commit record is seen, so an
// update interrupted anywhere is either fully redone (commit record made
// it to disk) or fully ignored (it did not). Every record carries a
// CRC32C; the scan stops at the first torn or malformed record, which by
// construction can only be the tail the crash cut off. Applying images
// is idempotent, so crashing during recovery itself is harmless.
//
// Log layout (little endian):
//
//	header:  "SIGWAL01" (8 bytes)
//	page:    'P' | tagLen u16 | pageID u32 | tag | data[PageSize] | crc u32
//	extend:  'X' | tagLen u16 | npages u32 | tag | crc u32
//	commit:  'C' | seq u64 | crc u32
//
// Extend records persist allocations whose pages were never written
// (e.g. the zeroed slice pages a BSSF boundary crossing creates); on
// replay the file is grown to npages before images are applied.
package pagestore

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"sort"
)

// crc32Checksum is the CRC32C used by both page trailers and WAL records.
func crc32Checksum(b []byte) uint32 { return crc32.Checksum(b, castagnoli) }

const (
	walSuffix = ".wal"

	walMagic = "SIGWAL01"

	walRecPage   = byte('P')
	walRecExtend = byte('X')
	walRecCommit = byte('C')
)

// walStageLimit is how many staged bytes a transaction may hold before
// they are written out ahead of its commit record, so a bulk load does not
// keep its whole log in memory; a stage that grew past walStageKeep is
// released after its write rather than kept for the life of the log (a
// BSSF insert stages ≈ 90 KB, a bulk load the full limit).
const (
	walStageLimit = 1 << 20
	walStageKeep  = 128 << 10
)

// wal is an append-only physical redo log over a BlockFile. It is not
// itself goroutine-safe; DurableFile and DurableStore serialize access.
//
// A transaction's records are staged in buf and reach the device with its
// commit record in one write; size counts only what has been written.
type wal struct {
	dev  BlockFile
	name string
	size int64 // append offset
	seq  uint64
	buf  []byte // staged records not yet written
}

// openWAL attaches to dev, validating the header of a non-empty log.
// A log whose header is torn (shorter than the magic, or mismatched) is
// treated as empty: the crash happened before the first record could
// possibly have committed.
func openWAL(dev BlockFile, name string) (*wal, error) {
	size, err := dev.Size()
	if err != nil {
		return nil, fmt.Errorf("pagestore: wal %s: %w", name, err)
	}
	w := &wal{dev: dev, name: name, size: size}
	if size < int64(len(walMagic)) {
		w.size = 0
		return w, nil
	}
	hdr := make([]byte, len(walMagic))
	if _, err := dev.ReadAt(hdr, 0); err != nil {
		return nil, fmt.Errorf("pagestore: wal %s header: %w", name, err)
	}
	if string(hdr) != walMagic {
		w.size = 0
	}
	return w, nil
}

// beginRecord stages kind, the first byte of a record, and returns the
// record's offset in the stage. On an empty log the header goes first.
func (w *wal) beginRecord(kind byte) int {
	if w.size == 0 && len(w.buf) == 0 {
		w.buf = append(w.buf, walMagic...)
	}
	w.buf = append(w.buf, kind)
	return len(w.buf) - 1
}

// sealRecord closes the record staged from offset start with its CRC32C
// and writes the stage out early once it has passed walStageLimit.
func (w *wal) sealRecord(start int) error {
	w.buf = binary.LittleEndian.AppendUint32(w.buf, crc32Checksum(w.buf[start:]))
	if len(w.buf) < walStageLimit {
		return nil
	}
	return w.flush()
}

// flush writes the staged records, if any, at the log tail in one write.
// The stage is dropped either way: after a failed write the transaction
// has not committed, and its owner logs it again in full on the next
// attempt.
func (w *wal) flush() error {
	staged := w.buf
	w.buf = w.buf[:0]
	if cap(staged) > walStageKeep {
		w.buf = nil
	}
	if len(staged) == 0 {
		return nil
	}
	if _, err := w.dev.WriteAt(staged, w.size); err != nil {
		return fmt.Errorf("pagestore: wal %s append: %w", w.name, err)
	}
	w.size += int64(len(staged))
	return nil
}

// appendPage logs a full page image for file tag.
func (w *wal) appendPage(tag string, id PageID, data []byte) error {
	if len(data) < PageSize {
		return fmt.Errorf("pagestore: wal page image %d bytes, need %d", len(data), PageSize)
	}
	start := w.beginRecord(walRecPage)
	w.buf = binary.LittleEndian.AppendUint16(w.buf, uint16(len(tag)))
	w.buf = binary.LittleEndian.AppendUint32(w.buf, uint32(id))
	w.buf = append(w.buf, tag...)
	w.buf = append(w.buf, data[:PageSize]...)
	return w.sealRecord(start)
}

// appendExtend logs that file tag spans npages pages.
func (w *wal) appendExtend(tag string, npages int) error {
	start := w.beginRecord(walRecExtend)
	w.buf = binary.LittleEndian.AppendUint16(w.buf, uint16(len(tag)))
	w.buf = binary.LittleEndian.AppendUint32(w.buf, uint32(npages))
	w.buf = append(w.buf, tag...)
	return w.sealRecord(start)
}

// commit stages the commit record, writes the transaction out and syncs
// the log — the transaction's durability point.
func (w *wal) commit() error {
	w.seq++
	start := w.beginRecord(walRecCommit)
	w.buf = binary.LittleEndian.AppendUint64(w.buf, w.seq)
	if err := w.sealRecord(start); err != nil {
		return err
	}
	if err := w.flush(); err != nil {
		return err
	}
	if err := w.dev.Sync(); err != nil {
		return fmt.Errorf("pagestore: wal %s sync: %w", w.name, err)
	}
	return nil
}

// reset truncates the log after a checkpoint. The caller must have
// synced the page files first.
func (w *wal) reset() error {
	if err := w.dev.Truncate(0); err != nil {
		return fmt.Errorf("pagestore: wal %s truncate: %w", w.name, err)
	}
	if err := w.dev.Sync(); err != nil {
		return fmt.Errorf("pagestore: wal %s sync: %w", w.name, err)
	}
	w.size = 0
	return nil
}

// walImage is one committed page image recovered from the log.
type walImage struct {
	tag  string
	id   PageID
	data []byte
}

// replay scans the log and returns the page images and file extents of
// every committed transaction, in log order. A torn tail — short read,
// bad CRC, unknown record kind — ends the scan silently: those records
// belong to the transaction the crash interrupted. Only genuine device
// errors are returned.
func (w *wal) replay() (images []walImage, extents map[string]int, err error) {
	extents = make(map[string]int)
	if w.size <= int64(len(walMagic)) {
		return nil, extents, nil
	}
	data := make([]byte, w.size-int64(len(walMagic)))
	if n, rerr := w.dev.ReadAt(data, int64(len(walMagic))); rerr != nil && rerr != io.EOF {
		return nil, nil, fmt.Errorf("pagestore: wal %s read: %w", w.name, rerr)
	} else {
		data = data[:n]
	}

	var pendImages []walImage
	pendExtents := make(map[string]int)
	off := 0
	// checked verifies the CRC that follows the n payload bytes at off.
	checked := func(n int) ([]byte, bool) {
		if off+n+4 > len(data) {
			return nil, false
		}
		payload := data[off : off+n]
		want := binary.LittleEndian.Uint32(data[off+n:])
		if crc32Checksum(payload) != want {
			return nil, false
		}
		off += n + 4
		return payload, true
	}
	for off < len(data) {
		switch data[off] {
		case walRecPage:
			if off+7 > len(data) {
				return images, extents, nil
			}
			tagLen := int(binary.LittleEndian.Uint16(data[off+1 : off+3]))
			payload, ok := checked(7 + tagLen + PageSize)
			if !ok {
				return images, extents, nil
			}
			id := PageID(binary.LittleEndian.Uint32(payload[3:7]))
			tag := string(payload[7 : 7+tagLen])
			img := make([]byte, PageSize)
			copy(img, payload[7+tagLen:])
			pendImages = append(pendImages, walImage{tag: tag, id: id, data: img})
		case walRecExtend:
			if off+7 > len(data) {
				return images, extents, nil
			}
			tagLen := int(binary.LittleEndian.Uint16(data[off+1 : off+3]))
			payload, ok := checked(7 + tagLen)
			if !ok {
				return images, extents, nil
			}
			npages := int(binary.LittleEndian.Uint32(payload[3:7]))
			tag := string(payload[7:])
			if npages > pendExtents[tag] {
				pendExtents[tag] = npages
			}
		case walRecCommit:
			payload, ok := checked(9)
			if !ok {
				return images, extents, nil
			}
			w.seq = binary.LittleEndian.Uint64(payload[1:])
			images = append(images, pendImages...)
			pendImages = nil
			for tag, n := range pendExtents {
				if n > extents[tag] {
					extents[tag] = n
				}
			}
			pendExtents = make(map[string]int)
		default:
			return images, extents, nil
		}
	}
	return images, extents, nil
}

// latestImage returns the most recent committed image of page id in
// file tag, or nil if the log holds none — after a checkpoint the log is
// empty and a corrupt page can only be repaired by a fresh write.
func (w *wal) latestImage(tag string, id PageID) ([]byte, error) {
	images, _, err := w.replay()
	if err != nil {
		return nil, err
	}
	var out []byte
	for _, img := range images {
		if img.tag == tag && img.id == id {
			out = img.data
		}
	}
	return out, nil
}

// replayInto applies the committed state of the log to page files opened
// through open, syncing each touched file, then truncates the log. open
// is called at most once per distinct tag.
func (w *wal) replayInto(open func(tag string) (*DiskFile, error)) error {
	images, extents, err := w.replay()
	if err != nil {
		return err
	}
	if len(images) == 0 && len(extents) == 0 {
		if w.size > 0 {
			return w.reset()
		}
		return nil
	}
	files := make(map[string]*DiskFile)
	get := func(tag string) (*DiskFile, error) {
		if f, ok := files[tag]; ok {
			return f, nil
		}
		f, err := open(tag)
		if err != nil {
			return nil, err
		}
		files[tag] = f
		return f, nil
	}
	// Extents first (they only grow), then images in log order; physical
	// redo is idempotent, so a crash in here just re-runs recovery.
	tags := make([]string, 0, len(extents))
	for tag := range extents {
		tags = append(tags, tag)
	}
	sort.Strings(tags)
	for _, tag := range tags {
		f, err := get(tag)
		if err != nil {
			return err
		}
		if err := f.extendTo(extents[tag]); err != nil {
			return err
		}
	}
	for _, img := range images {
		f, err := get(img.tag)
		if err != nil {
			return err
		}
		if err := f.extendTo(int(img.id) + 1); err != nil {
			return err
		}
		if err := f.WritePage(img.id, img.data); err != nil {
			return err
		}
	}
	var firstErr error
	for _, f := range files {
		if err := f.Sync(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	if firstErr != nil {
		return firstErr
	}
	return w.reset()
}
