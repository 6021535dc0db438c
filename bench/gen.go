package main

import (
	"fmt"
	"math/rand"
)

// The generators below are the benchmark's own rather than
// internal/workload's: that one draws a set by permuting the whole domain
// (3.5 s for the paper's instance), and the inputs and the oracle should
// not change when the product's packages do.
//
// The data follow the paper's Table 2 shape: every object holds Dt
// elements drawn uniformly from a V-element domain, and N/V is the
// paper's 32000/13000, so the posting density Dt·N/V stays at ≈ 24.6
// whatever N a workload uses.
const (
	setCard    = 10  // D_t
	sigWidth   = 500 // F
	sigWeight  = 2   // m
	supersetDq = 3   // D_q of a T ⊇ Q query
	subsetDq   = 100 // D_q of a T ⊆ Q query
)

// domainFor returns V for an instance of n objects: the paper's ratio.
func domainFor(n int) int { return n * 13000 / 32000 }

// instance is one generated data set. Object i (0-based) holds sets[i];
// the OID it gets is the program's business (i+1 in-process, whatever
// the server assigns over the wire).
type instance struct {
	v         int
	elems     []string // the domain, rendered once
	sets      [][]string
	userBytes int64 // Σ len(element) over every stored set: the SC denominator
}

func element(i int) string { return fmt.Sprintf("v%06d", i) }

// drawSet draws card distinct domain values.
func drawSet(rng *rand.Rand, elems []string, card int) []string {
	out := make([]string, 0, card)
	seen := make(map[int]struct{}, card)
	for len(out) < card {
		j := rng.Intn(len(elems))
		if _, dup := seen[j]; dup {
			continue
		}
		seen[j] = struct{}{}
		out = append(out, elems[j])
	}
	return out
}

func genInstance(seed int64, n int) *instance {
	rng := rand.New(rand.NewSource(seed))
	inst := &instance{v: domainFor(n)}
	inst.elems = make([]string, inst.v)
	for i := range inst.elems {
		inst.elems[i] = element(i)
	}
	inst.sets = make([][]string, n)
	for i := range inst.sets {
		inst.sets[i] = drawSet(rng, inst.elems, setCard)
		for _, e := range inst.sets[i] {
			inst.userBytes += int64(len(e))
		}
	}
	return inst
}

type opKind int

const (
	opSuperset opKind = iota
	opSubset
	opInsert
	numOps
)

func (k opKind) String() string { return [...]string{"superset", "subset", "insert"}[k] }

// query is one pre-generated search. planted is the index of an object
// known to satisfy it, so every search has at least one hit to check.
type query struct {
	op      opKind
	elems   []string
	planted int
}

// genQueries builds the query stream: strictly alternating T ⊇ Q (three
// elements of a planted target) and T ⊆ Q (a planted target embedded in
// a 100-element query), perPred of each. The stream depends only on the
// seed and the instance.
func genQueries(seed int64, inst *instance, perPred int) []query {
	rng := rand.New(rand.NewSource(seed ^ 0x5157))
	out := make([]query, 0, 2*perPred)
	for i := 0; i < perPred; i++ {
		t := rng.Intn(len(inst.sets))
		target := inst.sets[t]
		sup := make([]string, 0, supersetDq)
		for _, j := range rng.Perm(len(target))[:supersetDq] {
			sup = append(sup, target[j])
		}
		out = append(out, query{op: opSuperset, elems: sup, planted: t})

		t = rng.Intn(len(inst.sets))
		target = inst.sets[t]
		sub := append(make([]string, 0, subsetDq), target...)
		have := make(map[string]struct{}, subsetDq)
		for _, e := range sub {
			have[e] = struct{}{}
		}
		for len(sub) < subsetDq {
			e := inst.elems[rng.Intn(inst.v)]
			if _, dup := have[e]; dup {
				continue
			}
			have[e] = struct{}{}
			sub = append(sub, e)
		}
		// The product's smart ⊇ strategy probes "the first k" elements;
		// shuffling keeps the planted target from always sitting there.
		rng.Shuffle(len(sub), func(a, b int) { sub[a], sub[b] = sub[b], sub[a] })
		out = append(out, query{op: opSubset, elems: sub, planted: t})
	}
	return out
}

// genInserts draws n fresh sets for the write side of a workload.
func genInserts(seed int64, inst *instance, n int) [][]string {
	rng := rand.New(rand.NewSource(seed ^ 0x1a5e))
	out := make([][]string, n)
	for i := range out {
		out[i] = drawSet(rng, inst.elems, setCard)
	}
	return out
}

// bruteForce is the oracle: the indexes of every object in sets that
// satisfies q, ascending. It shares no code with the program under test.
func bruteForce(sets [][]string, q query) []int {
	qset := make(map[string]struct{}, len(q.elems))
	for _, e := range q.elems {
		qset[e] = struct{}{}
	}
	var out []int
	for i, t := range sets {
		in := 0
		for _, e := range t {
			if _, ok := qset[e]; ok {
				in++
			}
		}
		switch q.op {
		case opSuperset: // T ⊇ Q: every query element is in T (elements are distinct)
			if in == len(qset) {
				out = append(out, i)
			}
		case opSubset: // T ⊆ Q: every element of T is in Q
			if in == len(t) {
				out = append(out, i)
			}
		}
	}
	return out
}
