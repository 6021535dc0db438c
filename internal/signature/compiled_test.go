package signature

import (
	"errors"
	"math/rand"
	"slices"
	"testing"
)

// compiledAgrees checks Compile(p, query).Match against the EvaluateSets
// oracle for one (query, target) pair, and that Elems is the query's
// distinct elements in first-seen order.
func compiledAgrees(t *testing.T, p Predicate, query, target []string) {
	t.Helper()
	c, err := Compile(p, query)
	if err != nil {
		t.Fatalf("Compile(%v): %v", p, err)
	}
	want, err := EvaluateSets(p, target, query)
	if err != nil {
		t.Fatalf("EvaluateSets(%v): %v", p, err)
	}
	if got := c.Match(target); got != want {
		t.Fatalf("%v, D_q=%d: Match(%q) = %v, EvaluateSets = %v (query %q)", p, len(c.Elems()), target, got, want, query)
	}
	var distinct []string
	for _, e := range query {
		if !slices.Contains(distinct, e) {
			distinct = append(distinct, e)
		}
	}
	if !slices.Equal(c.Elems(), distinct) {
		t.Fatalf("Elems() = %q, want %q", c.Elems(), distinct)
	}
}

// TestCompiledMatchesEvaluateSets is the matcher's property test: every
// predicate, on random targets with duplicates drawn to land on both sides
// of each verdict, must agree with EvaluateSets. The query sizes cross the
// one-word boundary of the distinct-hit count at D_q = 64.
func TestCompiledMatchesEvaluateSets(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, dq := range []int{0, 1, 3, 63, 64, 65, 100, 300} {
		universe := make([]string, dq+50)
		for i := range universe {
			universe[i] = "e" + string(rune('A'+i%26)) + string(rune('a'+i/26%26)) + string(rune('0'+i/676))
		}
		for trial := 0; trial < 40; trial++ {
			perm := rng.Perm(len(universe))
			query := make([]string, dq)
			for i := range query {
				query[i] = universe[perm[i]]
			}
			outside := universe[perm[dq]]
			// The query itself repeats some elements half the time.
			if trial%2 == 1 && dq > 0 {
				query = append(query, query[rng.Intn(dq)], query[0])
			}
			// pick draws n elements of from with replacement: duplicates.
			pick := func(from []string, n int) []string {
				if len(from) == 0 {
					return nil
				}
				out := make([]string, n)
				for i := range out {
					out[i] = from[rng.Intn(len(from))]
				}
				return out
			}
			shuffled := func(s []string) []string {
				rng.Shuffle(len(s), func(i, j int) { s[i], s[j] = s[j], s[i] })
				return s
			}
			targets := [][]string{
				nil,
				{},
				pick(universe, rng.Intn(2*dq+3)),
				// The query exactly, repeated elements and shuffled: ⊇ and =.
				shuffled(append(slices.Clone(query[:dq]), pick(query[:dq], rng.Intn(3))...)),
				// The query plus one outsider: ⊇ but not =.
				shuffled(append(slices.Clone(query[:dq]), outside)),
			}
			if dq > 0 {
				short := query[1:dq]
				targets = append(targets,
					// Missing one query element but padded with duplicates
					// to D_q or more members: only a distinct count says no.
					shuffled(append(slices.Clone(short), pick(short, 2)...)),
					// Query members only, with duplicates: ⊆.
					pick(query[:dq], rng.Intn(dq+2)),
					// One query member among outsiders: ∩ ≠ ∅ but not ⊆.
					shuffled(append(pick(universe[dq:], 1+rng.Intn(3)), query[rng.Intn(dq)])),
				)
			}
			for _, target := range targets {
				for p := Superset; p <= Contains; p++ {
					compiledAgrees(t, p, query, target)
				}
			}
		}
	}
	for p := Superset; p <= Contains; p++ {
		compiledAgrees(t, p, nil, nil)
		compiledAgrees(t, p, []string{}, []string{"x", "x"})
		compiledAgrees(t, p, []string{"x", "x"}, []string{})
	}
	if c, err := Compile(Predicate(42), []string{"x"}); !errors.Is(err, ErrInvalidPredicate) || c != nil {
		t.Fatalf("Compile(Predicate(42)) = %v, %v; want nil, ErrInvalidPredicate", c, err)
	}
}
