// Package signature implements superimposed coding for set signatures, the
// technique at the heart of "Evaluation of Signature Files as Set Access
// Facilities in OODBs" (Ishikawa, Kitagawa, Ohbo; SIGMOD 1993).
//
// A signature scheme has two design parameters: the signature width F in
// bits and the weight m, the number of "1" bits in each element signature.
// An element signature is produced by hashing a set element to m distinct
// bit positions in [0, F). A set signature is the bitwise OR
// (superimposition) of the element signatures of the set's members. A query
// signature is formed the same way from the query set.
//
// The package provides the two match conditions of the paper — the
// superset condition for queries T ⊇ Q and the subset condition for
// T ⊆ Q — plus the overlap, equality and membership conditions listed as
// future work in the paper's §6, and the false-drop probability estimators
// of §3.2.
package signature

import (
	"errors"
	"fmt"
	"hash/fnv"
	"math/rand"

	"sigfile/internal/bitset"
)

// Hasher maps an element to m distinct bit positions in [0, F). Two
// implementations are provided: DoubleHasher (the default, deterministic
// enhanced double hashing over FNV-64) and IndependentHasher (per-element
// pseudo-random draws, used by the hash ablation to validate the paper's
// ideal-hash assumption).
type Hasher interface {
	// Positions appends the m distinct positions for elem to dst and
	// returns the extended slice.
	Positions(elem []byte, f, m int, dst []int) []int
}

// DoubleHasher derives positions with enhanced double hashing:
// pos_k = h1 + k*h2 + (k³−k)/6 (mod F), skipping duplicates.
//
// Both hash values are passed through a splitmix64 finalizer: raw FNV-64
// leaves its low bits correlated across similar keys, which the hash
// ablation (cmd/sigbench -experiment ablation-hash) exposed as a 6×
// false-drop inflation whenever F is a power of two (pos % F then reads
// only those weak low bits). The finalizer restores the paper's
// ideal-hash assumption at every F.
type DoubleHasher struct{}

// mix64 is the splitmix64 finalizer, a full-avalanche bijection.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// Positions implements Hasher.
func (DoubleHasher) Positions(elem []byte, f, m int, dst []int) []int {
	h := fnv.New64a()
	h.Write(elem)
	h1 := mix64(h.Sum64())
	h2 := mix64(h1^0x9e3779b97f4a7c15) | 1 // odd so it cycles all residues

	seen := make(map[int]struct{}, m)
	x := h1
	for k := uint64(0); len(seen) < m; k++ {
		pos := int(x % uint64(f))
		x += h2 + k // enhanced double hashing: the increment itself grows
		if _, dup := seen[pos]; dup {
			continue
		}
		seen[pos] = struct{}{}
		dst = append(dst, pos)
	}
	return dst
}

// IndependentHasher draws m distinct positions with a PRNG seeded from the
// element, approximating m independent uniform draws without replacement.
type IndependentHasher struct{}

// Positions implements Hasher.
func (IndependentHasher) Positions(elem []byte, f, m int, dst []int) []int {
	h := fnv.New64a()
	h.Write(elem)
	rng := rand.New(rand.NewSource(int64(h.Sum64())))
	// Partial Fisher-Yates over a sparse permutation of [0, f).
	swap := make(map[int]int, m)
	for k := 0; k < m; k++ {
		j := k + rng.Intn(f-k)
		vj, ok := swap[j]
		if !ok {
			vj = j
		}
		vk, ok := swap[k]
		if !ok {
			vk = k
		}
		swap[j] = vk
		dst = append(dst, vj)
	}
	return dst
}

// Scheme is a superimposed-coding configuration.
type Scheme struct {
	f, m   int
	hasher Hasher
}

// New returns a scheme of width f bits with m bits per element signature,
// using the default DoubleHasher. It fails unless 0 < m ≤ f.
func New(f, m int) (*Scheme, error) {
	return NewWithHasher(f, m, DoubleHasher{})
}

// NewWithHasher is New with an explicit Hasher.
func NewWithHasher(f, m int, h Hasher) (*Scheme, error) {
	if f <= 0 {
		return nil, fmt.Errorf("signature: width F = %d must be positive", f)
	}
	if m <= 0 || m > f {
		return nil, fmt.Errorf("signature: weight m = %d must be in (0, F=%d]", m, f)
	}
	if h == nil {
		h = DoubleHasher{}
	}
	return &Scheme{f: f, m: m, hasher: h}, nil
}

// MustNew is New but panics on invalid parameters; for tests and examples
// with constant arguments.
func MustNew(f, m int) *Scheme {
	s, err := New(f, m)
	if err != nil {
		panic(err)
	}
	return s
}

// F returns the signature width in bits.
func (s *Scheme) F() int { return s.f }

// M returns the element-signature weight.
func (s *Scheme) M() int { return s.m }

// ElementPositions returns the m distinct bit positions of elem's element
// signature in the order produced by the hasher.
func (s *Scheme) ElementPositions(elem []byte) []int {
	return s.hasher.Positions(elem, s.f, s.m, make([]int, 0, s.m))
}

// ElementSignature returns the element signature of elem: F bits with
// exactly m ones.
func (s *Scheme) ElementSignature(elem []byte) *bitset.BitSet {
	sig := bitset.New(s.f)
	s.addElement(sig, elem)
	return sig
}

func (s *Scheme) addElement(sig *bitset.BitSet, elem []byte) {
	var buf [64]int
	for _, pos := range s.hasher.Positions(elem, s.f, s.m, buf[:0]) {
		sig.Set(pos)
	}
}

// SetSignature superimposes the element signatures of all elements.
// An empty set yields the all-zero signature, which vacuously matches
// every superset query with an empty query set and is a subset of every
// query signature — consistent with set semantics (∅ ⊆ X for all X).
func (s *Scheme) SetSignature(elems [][]byte) *bitset.BitSet {
	sig := bitset.New(s.f)
	for _, e := range elems {
		s.addElement(sig, e)
	}
	return sig
}

// SetSignatureStrings is SetSignature for string elements.
func (s *Scheme) SetSignatureStrings(elems []string) *bitset.BitSet {
	sig := bitset.New(s.f)
	for _, e := range elems {
		s.addElement(sig, []byte(e))
	}
	return sig
}

// ErrWidthMismatch is returned when a signature of the wrong width is
// passed to a scheme operation; match it with errors.Is.
var ErrWidthMismatch = errors.New("signature: width mismatch")

// ErrInvalidPredicate is returned when a Predicate value outside the
// defined operators reaches a match or evaluation routine — typically an
// unvalidated value from a parser or the wire; match it with errors.Is.
var ErrInvalidPredicate = errors.New("signature: invalid predicate")

// AddTo superimposes elem's element signature onto sig, which must have
// width F. Used for incremental signature maintenance on updates. It
// returns an error wrapping ErrWidthMismatch if sig's width is not F
// (e.g. a page of signatures read back under a different scheme).
func (s *Scheme) AddTo(sig *bitset.BitSet, elem []byte) error {
	if sig.Len() != s.f {
		return fmt.Errorf("%w: AddTo width %d != F %d", ErrWidthMismatch, sig.Len(), s.f)
	}
	s.addElement(sig, elem)
	return nil
}

// Predicate identifies a set-comparison operator supported by the
// signature match conditions.
type Predicate int

// The supported set predicates. Superset and Subset are the paper's two
// query types; Overlap, Equals and Contains implement the additional
// operators of §2 listed as future work.
const (
	// Superset is T ⊇ Q: the target set contains every query element
	// (the paper's "has-subset").
	Superset Predicate = iota
	// Subset is T ⊆ Q: the target set is contained in the query set
	// (the paper's "in-subset").
	Subset
	// Overlap is T ∩ Q ≠ ∅.
	Overlap
	// Equals is T = Q.
	Equals
	// Contains is the membership operator q ∈ T, the special case of
	// Superset with a singleton query set.
	Contains
)

// String returns the operator's conventional notation.
func (p Predicate) String() string {
	switch p {
	case Superset:
		return "T ⊇ Q"
	case Subset:
		return "T ⊆ Q"
	case Overlap:
		return "T ∩ Q ≠ ∅"
	case Equals:
		return "T = Q"
	case Contains:
		return "q ∈ T"
	default:
		return fmt.Sprintf("Predicate(%d)", int(p))
	}
}

// Valid reports whether p is a defined predicate.
func (p Predicate) Valid() bool { return p >= Superset && p <= Contains }

// Matches evaluates the signature-level match condition of predicate p for
// a target signature against a query signature. A false return guarantees
// the underlying sets cannot satisfy p (no false dismissals); a true
// return makes the object a drop that must still be verified against the
// stored set (false drops are possible). An undefined predicate yields an
// error wrapping ErrInvalidPredicate.
func Matches(p Predicate, target, query *bitset.BitSet) (bool, error) {
	switch p {
	case Superset, Contains:
		// Every 1 in the query signature must be 1 in the target.
		return target.ContainsAll(query), nil
	case Subset:
		// Every 1 in the target signature must be 1 in the query.
		return target.SubsetOf(query), nil
	case Overlap:
		// A shared element forces at least one shared 1 bit. An empty
		// query (or target) cannot overlap anything.
		return target.Intersects(query), nil
	case Equals:
		// Equal sets have identical signatures; unequal weights can still
		// collide, hence verification.
		return target.Equal(query), nil
	default:
		return false, fmt.Errorf("%w: %d", ErrInvalidPredicate, int(p))
	}
}

// EvaluateSets decides predicate p exactly on the underlying sets; this is
// the false-drop resolution test. Elements are compared as raw strings.
// An undefined predicate yields an error wrapping ErrInvalidPredicate.
// Searches decide sets with Compile; this is the reference it is tested
// against.
func EvaluateSets(p Predicate, target, query []string) (bool, error) {
	tset := make(map[string]struct{}, len(target))
	for _, e := range target {
		tset[e] = struct{}{}
	}
	qset := make(map[string]struct{}, len(query))
	for _, e := range query {
		qset[e] = struct{}{}
	}
	switch p {
	case Superset, Contains:
		for e := range qset {
			if _, ok := tset[e]; !ok {
				return false, nil
			}
		}
		return true, nil
	case Subset:
		for e := range tset {
			if _, ok := qset[e]; !ok {
				return false, nil
			}
		}
		return true, nil
	case Overlap:
		for e := range qset {
			if _, ok := tset[e]; ok {
				return true, nil
			}
		}
		return false, nil
	case Equals:
		if len(tset) != len(qset) {
			return false, nil
		}
		for e := range qset {
			if _, ok := tset[e]; !ok {
				return false, nil
			}
		}
		return true, nil
	default:
		return false, fmt.Errorf("%w: %d", ErrInvalidPredicate, int(p))
	}
}

// Compiled is a predicate with its query set preprocessed once, so that
// the false-drop resolution test EvaluateSets performs can be decided
// against many targets without building two hash maps per target. The
// distinct query elements, in first-seen order, sit in one table built by
// Compile; Match probes it once per target element. A Compiled is
// immutable, so any number of goroutines may call Match concurrently.
type Compiled struct {
	pred  Predicate
	elems []string
	// pos maps each distinct query element to its index in elems.
	pos map[string]int
}

// Compile preprocesses query for deciding p against many targets. An
// undefined predicate yields an error wrapping ErrInvalidPredicate.
func Compile(p Predicate, query []string) (*Compiled, error) {
	if !p.Valid() {
		return nil, fmt.Errorf("%w: %d", ErrInvalidPredicate, int(p))
	}
	c := &Compiled{pred: p, elems: make([]string, 0, len(query)), pos: make(map[string]int, len(query))}
	for _, e := range query {
		if _, dup := c.pos[e]; dup {
			continue
		}
		c.pos[e] = len(c.elems)
		c.elems = append(c.elems, e)
	}
	return c, nil
}

// Elems returns the distinct query elements in first-seen order — the
// paper's query set, whose size is D_q. Callers must not modify it.
func (c *Compiled) Elems() []string { return c.elems }

// Match decides the compiled predicate exactly on target, which may hold
// duplicates; it agrees with EvaluateSets on every input.
func (c *Compiled) Match(target []string) bool {
	switch c.pred {
	case Subset:
		for _, e := range target {
			if _, ok := c.pos[e]; !ok {
				return false
			}
		}
		return true
	case Overlap:
		for _, e := range target {
			if _, ok := c.pos[e]; ok {
				return true
			}
		}
		return false
	default:
		return c.covers(target, c.pred == Equals)
	}
}

// covers reports whether target holds every query element (T ⊇ Q) and,
// when exact, nothing else (T = Q). Distinct hits are counted in a bitmap
// over query positions that lives on the stack — one word when D_q ≤ 64 —
// and only a query of more than 512 elements puts it on the heap.
func (c *Compiled) covers(target []string, exact bool) bool {
	n := len(c.elems)
	if len(target) < n {
		return false
	}
	var stack [8]uint64
	seen := stack[:]
	if w := (n + 63) / 64; w > len(stack) {
		seen = make([]uint64, w)
	}
	hits := 0
	for _, e := range target {
		i, ok := c.pos[e]
		if !ok {
			if exact {
				return false
			}
			continue
		}
		if w, b := &seen[i/64], uint64(1)<<(i%64); *w&b == 0 {
			*w |= b
			if hits++; hits == n && !exact {
				return true
			}
		}
	}
	return hits == n
}
