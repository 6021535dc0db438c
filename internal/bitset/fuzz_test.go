package bitset

import (
	"math/rand"
	"testing"
)

// FuzzUnmarshalBinary: arbitrary bytes with arbitrary claimed lengths
// must never panic, and successful unmarshals must round-trip.
func FuzzUnmarshalBinary(f *testing.F) {
	f.Add(uint16(64), []byte{1, 2, 3, 4, 5, 6, 7, 8})
	f.Add(uint16(0), []byte{})
	f.Add(uint16(250), make([]byte, 32))
	f.Fuzz(func(t *testing.T, nraw uint16, data []byte) {
		n := int(nraw)
		b, err := UnmarshalBinary(n, data)
		if err != nil {
			if len(data) >= ByteLen(n) {
				t.Fatalf("sufficient buffer rejected: n=%d len=%d", n, len(data))
			}
			return
		}
		if b.Len() != n {
			t.Fatalf("length %d, want %d", b.Len(), n)
		}
		out := make([]byte, ByteLen(n))
		b.MarshalBinaryTo(out)
		back, err := UnmarshalBinary(n, out)
		if err != nil || !b.Equal(back) {
			t.Fatal("round trip failed")
		}
	})
}

// checkWordsAt is the property AndWordsAt/OrWordsAt/LoadWordsAt are held
// to: feeding a serialized operand page by page — pageWords words per
// page, the final page either cut short after its last whole word or
// padded to full size with set bits — leaves the accumulator exactly as
// LoadBinary of the whole operand followed by And/Or would, with every
// bit beyond Len() still zero although the operand's bytes carry set bits
// there.
func checkWordsAt(t *testing.T, nbits, pageWords int, padded bool, seed int64, data []byte) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	raw := make([]byte, wordsFor(nbits)*8)
	for i := range raw {
		if len(data) > 0 {
			raw[i] = data[i%len(data)]
		}
	}
	for i := nbits; i < len(raw)*8; i++ { // garbage beyond Len() in the last word
		raw[i/8] |= 1 << uint(i%8)
	}
	operand := New(nbits)
	if err := operand.LoadBinary(raw); err != nil {
		t.Fatal(err)
	}
	acc := New(nbits)
	for i := 0; i < nbits; i++ {
		if rng.Intn(2) == 0 {
			acc.Set(i)
		}
	}
	var pages [][]byte
	for off := 0; off < len(raw); off += pageWords * 8 {
		page := raw[off:min(len(raw), off+pageWords*8)]
		if padded && len(page) < pageWords*8 {
			full := make([]byte, pageWords*8)
			for i := copy(full, page); i < len(full); i++ {
				full[i] = 0xff
			}
			page = full
		}
		pages = append(pages, page)
	}
	ops := []struct {
		name    string
		atOnce  func(dst, src *BitSet)
		perPage func(dst *BitSet, wordOff int, page []byte)
	}{
		{"And", (*BitSet).And, (*BitSet).AndWordsAt},
		{"Or", (*BitSet).Or, (*BitSet).OrWordsAt},
		{"Load", (*BitSet).CopyFrom, (*BitSet).LoadWordsAt},
	}
	for _, op := range ops {
		want, got := acc.Clone(), acc.Clone()
		op.atOnce(want, operand)
		for p, page := range pages {
			op.perPage(got, p*pageWords, page)
		}
		if !got.Equal(want) {
			t.Fatalf("%sWordsAt nbits=%d pageWords=%d padded=%v: differs from LoadBinary+%s", op.name, nbits, pageWords, padded, op.name)
		}
		if r := nbits % 64; r != 0 && got.Words()[len(got.Words())-1]>>uint(r) != 0 {
			t.Fatalf("%sWordsAt nbits=%d pageWords=%d padded=%v: bits beyond Len() set", op.name, nbits, pageWords, padded)
		}
	}
}

// TestPropertyWordsAt sweeps checkWordsAt over lengths around word and
// page boundaries — including the slice-page geometry of the bit-sliced
// files, 512 words per page — and random contents.
func TestPropertyWordsAt(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, pageWords := range []int{1, 3, 512} {
		pageBits := pageWords * 64
		for _, nbits := range []int{0, 1, 63, 64, 65, pageBits - 1, pageBits, pageBits + 1, 2*pageBits + 100, 70000} {
			if pageWords < 512 && nbits > 2000 {
				continue
			}
			data := make([]byte, 1+rng.Intn(64))
			rng.Read(data)
			for _, padded := range []bool{false, true} {
				checkWordsAt(t, nbits, pageWords, padded, rng.Int63(), data)
			}
		}
	}
}

// FuzzWordsAt drives checkWordsAt with fuzzer-chosen geometry and bytes.
func FuzzWordsAt(f *testing.F) {
	f.Add(uint16(100), uint8(1), true, int64(1), []byte{0xa5, 0x0f})
	f.Add(uint16(32769), uint8(255), false, int64(2), []byte{0xff})
	f.Add(uint16(64), uint8(0), true, int64(3), []byte{})
	f.Fuzz(func(t *testing.T, nbits uint16, pageWords uint8, padded bool, seed int64, data []byte) {
		checkWordsAt(t, int(nbits), 1+int(pageWords), padded, seed, data)
	})
}
