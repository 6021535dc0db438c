package signature

import (
	"bytes"
	"errors"
	"testing"

	"sigfile/internal/bitset"
)

// FuzzSchemeRoundTrip drives an arbitrary (F, m) scheme over an
// arbitrary element multiset and checks the properties every facility
// build relies on: superimposition (each element signature is contained
// in the set signature, so Superset matching can never falsely
// dismiss), per-element weight bounds, duplicate- and order-invariance
// of the set signature, and a lossless MarshalBinaryTo/UnmarshalBinary
// round trip at the scheme's exact width.
func FuzzSchemeRoundTrip(f *testing.F) {
	f.Add(uint16(250), uint8(10), []byte("Baseball\x00Golf\x00Fishing"))
	f.Add(uint16(8), uint8(2), []byte("Baseball\x00Baseball"))
	f.Add(uint16(1), uint8(1), []byte{})
	f.Add(uint16(4000), uint8(160), bytes.Repeat([]byte{0xff, 0x00}, 40))
	f.Fuzz(func(t *testing.T, fraw uint16, mraw uint8, data []byte) {
		width := int(fraw)%4096 + 1
		m := int(mraw)%width + 1
		s, err := New(width, m)
		if err != nil {
			t.Fatalf("New(%d, %d): %v", width, m, err)
		}

		elems := bytes.Split(data, []byte{0})
		set := s.SetSignature(elems)
		if set.Len() != width {
			t.Fatalf("set signature width %d, want %d", set.Len(), width)
		}

		for _, e := range elems {
			es := s.ElementSignature(e)
			if c := es.Count(); c < 1 || c > m {
				t.Fatalf("element %q signature weight %d outside [1, m=%d]", e, c, m)
			}
			if !set.ContainsAll(es) {
				t.Fatalf("element %q signature not superimposed into set signature", e)
			}
			if ok, err := Matches(Superset, set, es); err != nil || !ok {
				t.Fatalf("Superset(set, elem %q) = %v, %v; a member must never be dismissed", e, ok, err)
			}
		}

		// The set signature is a pure OR over element signatures:
		// duplicates and order must not matter.
		seen := make(map[string]bool, len(elems))
		var reversedUnique [][]byte
		for i := len(elems) - 1; i >= 0; i-- {
			if !seen[string(elems[i])] {
				seen[string(elems[i])] = true
				reversedUnique = append(reversedUnique, elems[i])
			}
		}
		if again := s.SetSignature(reversedUnique); !set.Equal(again) {
			t.Fatalf("set signature depends on element order or multiplicity")
		}

		buf := make([]byte, bitset.ByteLen(width))
		if n := set.MarshalBinaryTo(buf); n != len(buf) {
			t.Fatalf("MarshalBinaryTo wrote %d bytes, want %d", n, len(buf))
		}
		back, err := bitset.UnmarshalBinary(width, buf)
		if err != nil {
			t.Fatalf("UnmarshalBinary: %v", err)
		}
		if !set.Equal(back) {
			t.Fatalf("signature did not survive the marshal round trip")
		}
	})
}

// FuzzCompiledMatch checks the compiled matcher against the EvaluateSets
// oracle on arbitrary inputs. Every byte is one element, so a query of up
// to 256 distinct elements crosses the one-word distinct-hit count, and
// repeated bytes give both sides duplicates.
func FuzzCompiledMatch(f *testing.F) {
	f.Add(uint8(Superset), []byte("abc"), []byte("cbaab"))
	f.Add(uint8(Subset), []byte("abc"), []byte("aab"))
	f.Add(uint8(Equals), []byte("abcc"), []byte("cba"))
	f.Add(uint8(Overlap), []byte{}, []byte("x"))
	f.Add(uint8(Contains), []byte("q"), []byte{})
	f.Add(uint8(Superset), bytes.Repeat([]byte("0123456789abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ+/"), 2), []byte("0123456789abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ+-//"))
	f.Add(uint8(5), []byte("a"), []byte("a"))
	elems := func(data []byte) []string {
		out := make([]string, len(data))
		for i, b := range data {
			out[i] = string([]byte{b})
		}
		return out
	}
	f.Fuzz(func(t *testing.T, praw uint8, qdata, tdata []byte) {
		p := Predicate(praw % 6)
		query, target := elems(qdata), elems(tdata)
		want, werr := EvaluateSets(p, target, query)
		c, err := Compile(p, query)
		if !p.Valid() {
			if !errors.Is(err, ErrInvalidPredicate) || !errors.Is(werr, ErrInvalidPredicate) {
				t.Fatalf("%v: Compile err %v, EvaluateSets err %v; want ErrInvalidPredicate from both", p, err, werr)
			}
			return
		}
		if err != nil || werr != nil {
			t.Fatalf("%v: Compile err %v, EvaluateSets err %v", p, err, werr)
		}
		if got := c.Match(target); got != want {
			t.Fatalf("%v: Match(%q) = %v, EvaluateSets = %v (query %q)", p, tdata, got, want, qdata)
		}
	})
}
