// Package bitset provides dense, fixed-capacity bit sets used as the
// in-memory representation of signatures and bit slices throughout the
// sigfile library.
//
// A BitSet is a sequence of bits addressed from 0. Bits are packed into
// 64-bit words. The zero value of BitSet is an empty set of length 0; use
// New to create a set with a given number of bits.
//
// The operations mirror what the signature-file algorithms of Ishikawa,
// Kitagawa and Ohbo (SIGMOD 1993) need: superimposition (OR), the two
// signature match conditions (ContainsAll for T ⊇ Q, SubsetOf for T ⊆ Q),
// intersection tests for the overlap operator, and population counts for
// signature-weight statistics.
package bitset

import (
	"encoding/binary"
	"fmt"
	"math/bits"
	"strings"
)

const (
	wordBits  = 64
	wordShift = 6
	wordMask  = wordBits - 1
)

// BitSet is a fixed-length sequence of bits.
//
// All binary operations (Or, And, ContainsAll, ...) require both operands to
// have the same length; they panic otherwise, because mixing signature
// widths is always a programming error in this library.
type BitSet struct {
	nbits int
	words []uint64
}

// New returns a BitSet holding nbits bits, all zero. It panics if nbits is
// negative.
func New(nbits int) *BitSet {
	if nbits < 0 {
		panic("bitset: negative length")
	}
	return &BitSet{nbits: nbits, words: make([]uint64, wordsFor(nbits))}
}

// FromWords builds a BitSet of nbits bits backed by a copy of the given
// words. Trailing bits beyond nbits in the last word are cleared. It panics
// if the word slice is too short for nbits.
func FromWords(nbits int, words []uint64) *BitSet {
	need := wordsFor(nbits)
	if len(words) < need {
		panic(fmt.Sprintf("bitset: %d words cannot hold %d bits", len(words), nbits))
	}
	b := &BitSet{nbits: nbits, words: make([]uint64, need)}
	copy(b.words, words[:need])
	b.trim()
	return b
}

func wordsFor(nbits int) int { return (nbits + wordMask) >> wordShift }

// trim clears bits beyond nbits in the final word, keeping the invariant
// that unused tail bits are zero.
func (b *BitSet) trim() {
	if b.nbits&wordMask != 0 && len(b.words) > 0 {
		b.words[len(b.words)-1] &= (uint64(1) << uint(b.nbits&wordMask)) - 1
	}
}

// Len returns the number of bits the set holds (not the population count).
func (b *BitSet) Len() int { return b.nbits }

// Words exposes the underlying words. The returned slice aliases the
// BitSet's storage; callers must not modify it unless they own the set.
func (b *BitSet) Words() []uint64 { return b.words }

// Set sets bit i to 1. It panics if i is out of range.
func (b *BitSet) Set(i int) {
	b.check(i)
	b.words[i>>wordShift] |= 1 << uint(i&wordMask)
}

// Clear sets bit i to 0. It panics if i is out of range.
func (b *BitSet) Clear(i int) {
	b.check(i)
	b.words[i>>wordShift] &^= 1 << uint(i&wordMask)
}

// Test reports whether bit i is 1. It panics if i is out of range.
func (b *BitSet) Test(i int) bool {
	b.check(i)
	return b.words[i>>wordShift]&(1<<uint(i&wordMask)) != 0
}

func (b *BitSet) check(i int) {
	if i < 0 || i >= b.nbits {
		panic(fmt.Sprintf("bitset: index %d out of range [0,%d)", i, b.nbits))
	}
}

// Reset clears every bit.
func (b *BitSet) Reset() {
	for i := range b.words {
		b.words[i] = 0
	}
}

// Fill sets every bit.
func (b *BitSet) Fill() {
	for i := range b.words {
		b.words[i] = ^uint64(0)
	}
	b.trim()
}

// Clone returns a deep copy of b.
func (b *BitSet) Clone() *BitSet {
	c := &BitSet{nbits: b.nbits, words: make([]uint64, len(b.words))}
	copy(c.words, b.words)
	return c
}

// CopyFrom overwrites b with the contents of src. The lengths must match.
func (b *BitSet) CopyFrom(src *BitSet) {
	b.mustMatch(src)
	copy(b.words, src.words)
}

// Count returns the number of 1 bits (the signature weight).
func (b *BitSet) Count() int {
	n := 0
	for _, w := range b.words {
		n += bits.OnesCount64(w)
	}
	return n
}

// Any reports whether at least one bit is set.
func (b *BitSet) Any() bool {
	for _, w := range b.words {
		if w != 0 {
			return true
		}
	}
	return false
}

// None reports whether no bit is set.
func (b *BitSet) None() bool { return !b.Any() }

func (b *BitSet) mustMatch(o *BitSet) {
	if b.nbits != o.nbits {
		panic(fmt.Sprintf("bitset: length mismatch %d != %d", b.nbits, o.nbits))
	}
}

// Or sets b to b ∪ o (bitwise OR). This is the superimposition step of
// superimposed coding.
func (b *BitSet) Or(o *BitSet) {
	b.mustMatch(o)
	for i, w := range o.words {
		b.words[i] |= w
	}
}

// And sets b to b ∩ o (bitwise AND). Used when intersecting bit slices for
// a T ⊇ Q search in the bit-sliced organization.
func (b *BitSet) And(o *BitSet) {
	b.mustMatch(o)
	for i, w := range o.words {
		b.words[i] &= w
	}
}

// AndNot sets b to b \ o.
func (b *BitSet) AndNot(o *BitSet) {
	b.mustMatch(o)
	for i, w := range o.words {
		b.words[i] &^= w
	}
}

// Xor sets b to the symmetric difference of b and o.
func (b *BitSet) Xor(o *BitSet) {
	b.mustMatch(o)
	for i, w := range o.words {
		b.words[i] ^= w
	}
}

// Not flips every bit of b in place.
func (b *BitSet) Not() {
	for i := range b.words {
		b.words[i] = ^b.words[i]
	}
	b.trim()
}

// Equal reports whether b and o hold exactly the same bits. Sets of
// different lengths are never equal.
func (b *BitSet) Equal(o *BitSet) bool {
	if b.nbits != o.nbits {
		return false
	}
	for i, w := range b.words {
		if w != o.words[i] {
			return false
		}
	}
	return true
}

// ContainsAll reports whether every 1 bit of q is also 1 in b, i.e.
// b ⊇ q as bit sets. This is the signature-file match condition for the
// query type T ⊇ Q: a target signature b qualifies for query signature q
// iff ContainsAll(q).
func (b *BitSet) ContainsAll(q *BitSet) bool {
	b.mustMatch(q)
	for i, w := range q.words {
		if b.words[i]&w != w {
			return false
		}
	}
	return true
}

// SubsetOf reports whether every 1 bit of b is also 1 in q, i.e. b ⊆ q.
// This is the signature-file match condition for the query type T ⊆ Q.
func (b *BitSet) SubsetOf(q *BitSet) bool {
	return q.ContainsAll(b)
}

// Intersects reports whether b and o share at least one 1 bit. This is the
// signature-level test for the overlap operator (T ∩ Q ≠ ∅).
func (b *BitSet) Intersects(o *BitSet) bool {
	b.mustMatch(o)
	for i, w := range o.words {
		if b.words[i]&w != 0 {
			return true
		}
	}
	return false
}

// NextSet returns the index of the first 1 bit at position >= i, and true,
// or (0, false) if there is none. Together with a for loop it iterates all
// set bits in increasing order:
//
//	for i, ok := b.NextSet(0); ok; i, ok = b.NextSet(i + 1) { ... }
func (b *BitSet) NextSet(i int) (int, bool) {
	if i < 0 {
		i = 0
	}
	if i >= b.nbits {
		return 0, false
	}
	wi := i >> wordShift
	w := b.words[wi] >> uint(i&wordMask)
	if w != 0 {
		return i + bits.TrailingZeros64(w), true
	}
	for wi++; wi < len(b.words); wi++ {
		if b.words[wi] != 0 {
			return wi<<wordShift + bits.TrailingZeros64(b.words[wi]), true
		}
	}
	return 0, false
}

// NextClear returns the index of the first 0 bit at position >= i, and
// true, or (0, false) if there is none.
func (b *BitSet) NextClear(i int) (int, bool) {
	if i < 0 {
		i = 0
	}
	for ; i < b.nbits; i++ {
		wi := i >> wordShift
		w := ^b.words[wi] >> uint(i&wordMask)
		if w == 0 {
			i = (wi+1)<<wordShift - 1
			continue
		}
		j := i + bits.TrailingZeros64(w)
		if j < b.nbits {
			return j, true
		}
		return 0, false
	}
	return 0, false
}

// Ones returns the indices of all 1 bits in increasing order.
func (b *BitSet) Ones() []int {
	out := make([]int, 0, b.Count())
	for i, ok := b.NextSet(0); ok; i, ok = b.NextSet(i + 1) {
		out = append(out, i)
	}
	return out
}

// Zeros returns the indices of all 0 bits in increasing order.
func (b *BitSet) Zeros() []int {
	out := make([]int, 0, b.nbits-b.Count())
	for i := 0; i < b.nbits; i++ {
		if !b.Test(i) {
			out = append(out, i)
		}
	}
	return out
}

// String renders the bits most-significant-last, e.g. "01010100" for a set
// with bits 1, 3 and 5 set in an 8-bit set, matching the figures in the
// paper where bit 0 is leftmost.
func (b *BitSet) String() string {
	var sb strings.Builder
	sb.Grow(b.nbits)
	for i := 0; i < b.nbits; i++ {
		if b.Test(i) {
			sb.WriteByte('1')
		} else {
			sb.WriteByte('0')
		}
	}
	return sb.String()
}

// ParseString parses a string of '0' and '1' runes (as produced by String)
// into a BitSet.
func ParseString(s string) (*BitSet, error) {
	b := New(len(s))
	for i, r := range s {
		switch r {
		case '0':
		case '1':
			b.Set(i)
		default:
			return nil, fmt.Errorf("bitset: invalid rune %q at position %d", r, i)
		}
	}
	return b, nil
}

// ByteLen returns the number of bytes MarshalBinaryTo writes for a set of
// nbits bits.
func ByteLen(nbits int) int { return (nbits + 7) / 8 }

// MarshalBinaryTo serializes the bit set into dst in little-endian bit
// order (bit i of the set is bit i%8 of byte i/8) and returns the number of
// bytes written. dst must have at least ByteLen(b.Len()) bytes.
func (b *BitSet) MarshalBinaryTo(dst []byte) int {
	n := ByteLen(b.nbits)
	if len(dst) < n {
		panic(fmt.Sprintf("bitset: destination %d bytes, need %d", len(dst), n))
	}
	var buf [8]byte
	off := 0
	for _, w := range b.words {
		binary.LittleEndian.PutUint64(buf[:], w)
		off += copy(dst[off:n], buf[:])
	}
	return n
}

// UnmarshalBinary deserializes nbits bits from src (as produced by
// MarshalBinaryTo) into a fresh BitSet.
func UnmarshalBinary(nbits int, src []byte) (*BitSet, error) {
	b := New(nbits)
	if err := b.LoadBinary(src); err != nil {
		return nil, err
	}
	return b, nil
}

// LoadBinary overwrites b in place from src (as produced by
// MarshalBinaryTo), keeping b's length. It is UnmarshalBinary without the
// allocation, for scan loops that decode one record per slot into a
// reusable scratch set.
func (b *BitSet) LoadBinary(src []byte) error {
	n := ByteLen(b.nbits)
	if len(src) < n {
		return fmt.Errorf("bitset: source %d bytes, need %d for %d bits", len(src), n, b.nbits)
	}
	var buf [8]byte
	for wi := range b.words {
		copy(buf[:], src[wi*8:min(n, (wi+1)*8)])
		b.words[wi] = binary.LittleEndian.Uint64(buf[:])
		buf = [8]byte{}
	}
	b.trim()
	return nil
}

// wordsAt returns the words of b, from word index wordOff on, that the
// whole little-endian 64-bit words packed in src cover. Words of src beyond
// b's backing are ignored, as are trailing bytes short of a word.
func (b *BitSet) wordsAt(wordOff int, src []byte) []uint64 {
	if wordOff < 0 || wordOff > len(b.words) {
		panic(fmt.Sprintf("bitset: word offset %d out of range [0,%d]", wordOff, len(b.words)))
	}
	dst := b.words[wordOff:]
	if n := len(src) / 8; n < len(dst) {
		dst = dst[:n]
	}
	return dst
}

// LoadWordsAt overwrites b's words starting at word index wordOff with the
// words packed in src (see wordsAt). One slice page of the bit-sliced
// organizations holds a word-aligned run of positions, so a page lands in
// a set without per-bit addressing. Tail bits beyond Len() stay zero.
func (b *BitSet) LoadWordsAt(wordOff int, src []byte) {
	for i, dst := 0, b.wordsAt(wordOff, src); i < len(dst); i++ {
		dst[i] = binary.LittleEndian.Uint64(src[i*8:])
	}
	b.trim()
}

// AndWordsAt ANDs the words packed in src into b's words starting at
// wordOff; words of b outside that run are left as they are. With
// OrWordsAt it is the streaming fold of a bit-sliced search: each slice
// page is combined into one accumulator as it is read, so no set is
// materialised per slice.
func (b *BitSet) AndWordsAt(wordOff int, src []byte) {
	for i, dst := 0, b.wordsAt(wordOff, src); i < len(dst); i++ {
		dst[i] &= binary.LittleEndian.Uint64(src[i*8:])
	}
}

// OrWordsAt ORs the words packed in src into b's words starting at
// wordOff. Tail bits beyond Len() stay zero whatever src's padding holds.
func (b *BitSet) OrWordsAt(wordOff int, src []byte) {
	for i, dst := 0, b.wordsAt(wordOff, src); i < len(dst); i++ {
		dst[i] |= binary.LittleEndian.Uint64(src[i*8:])
	}
	b.trim()
}

// AndAll sets dst to the intersection of dst and every set in srcs, which
// must all have dst's length. The last argument is ignored: searches fold
// pages into per-worker accumulators (AndWordsAt) and no caller needs the
// combine itself split; the signature is what the benchmark harness calls.
func AndAll(dst *BitSet, srcs []*BitSet, _ int) {
	for _, s := range srcs {
		dst.mustMatch(s)
		d := dst.words[:len(s.words)]
		for i, w := range s.words {
			d[i] &= w
		}
	}
}

// OrAll sets dst to the union of dst and every set in srcs. See AndAll.
func OrAll(dst *BitSet, srcs []*BitSet, _ int) {
	for _, s := range srcs {
		dst.mustMatch(s)
		d := dst.words[:len(s.words)]
		for i, w := range s.words {
			d[i] |= w
		}
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
