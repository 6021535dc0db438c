package main

import (
	"reflect"
	"testing"
)

func TestGeneratorIsDeterministic(t *testing.T) {
	a, b := genInstance(42, 500), genInstance(42, 500)
	if !reflect.DeepEqual(a.sets, b.sets) || a.userBytes != b.userBytes {
		t.Fatal("the same seed gave two instances")
	}
	if reflect.DeepEqual(a.sets, genInstance(43, 500).sets) {
		t.Fatal("two seeds gave one instance")
	}
	qa, qb := genQueries(42, a, 64), genQueries(42, b, 64)
	if !reflect.DeepEqual(qa, qb) {
		t.Fatal("the same seed gave two query streams")
	}
	if !reflect.DeepEqual(genInserts(42, a, 32), genInserts(42, b, 32)) {
		t.Fatal("the same seed gave two insert streams")
	}
	// Pinned: a change to the generator changes every workload's input,
	// and must be made on purpose.
	if got, want := a.sets[0], []string{"v000201", "v000184", "v000018", "v000036", "v000194", "v000042", "v000118", "v000123", "v000144", "v000108"}; !reflect.DeepEqual(got, want) {
		t.Errorf("first set of seed 42 = %q, want %q", got, want)
	}
}

func TestInstanceShape(t *testing.T) {
	inst := genInstance(7, 800)
	if inst.v != 325 {
		t.Errorf("V = %d, want 325 (N·13000/32000)", inst.v)
	}
	var bytes int64
	for i, s := range inst.sets {
		if len(s) != setCard {
			t.Fatalf("set %d has %d elements", i, len(s))
		}
		seen := map[string]bool{}
		for _, e := range s {
			if seen[e] {
				t.Fatalf("set %d repeats %s", i, e)
			}
			seen[e] = true
			bytes += int64(len(e))
		}
	}
	if bytes != inst.userBytes {
		t.Errorf("userBytes = %d, want %d", inst.userBytes, bytes)
	}
}

func TestQueriesArePlanted(t *testing.T) {
	inst := genInstance(3, 400)
	qs := genQueries(3, inst, 100)
	if len(qs) != 200 {
		t.Fatalf("%d queries, want 200", len(qs))
	}
	for i, q := range qs {
		wantOp, wantDq := opSuperset, supersetDq
		if i%2 == 1 {
			wantOp, wantDq = opSubset, subsetDq
		}
		if q.op != wantOp || len(q.elems) != wantDq {
			t.Fatalf("query %d: op %v with %d elements, want %v with %d", i, q.op, len(q.elems), wantOp, wantDq)
		}
		hits := bruteForce(inst.sets, q)
		found := false
		for j := 1; j < len(hits); j++ {
			if hits[j-1] >= hits[j] {
				t.Fatalf("query %d: oracle answer not ascending", i)
			}
		}
		for _, h := range hits {
			found = found || h == q.planted
		}
		if !found {
			t.Fatalf("query %d (%v): planted object %d is not an answer", i, q.op, q.planted)
		}
	}
}

func TestBruteForce(t *testing.T) {
	sets := [][]string{{"a", "b", "c"}, {"a"}, {"b", "d"}, {"c", "a"}}
	if got := bruteForce(sets, query{op: opSuperset, elems: []string{"a", "c"}}); !reflect.DeepEqual(got, []int{0, 3}) {
		t.Errorf("T ⊇ {a,c}: %v, want [0 3]", got)
	}
	if got := bruteForce(sets, query{op: opSubset, elems: []string{"a", "c", "d"}}); !reflect.DeepEqual(got, []int{1, 3}) {
		t.Errorf("T ⊆ {a,c,d}: %v, want [1 3]", got)
	}
}

func TestCheckResult(t *testing.T) {
	if msg := checkResult([]uint64{2, 5, 9}, 5); msg != "" {
		t.Errorf("good answer rejected: %s", msg)
	}
	for name, c := range map[string]struct {
		oids    []uint64
		planted uint64
	}{
		"descending": {[]uint64{5, 2}, 5},
		"repeated":   {[]uint64{2, 5, 5}, 5},
		"missing":    {[]uint64{2, 9}, 5},
		"empty":      {nil, 5},
	} {
		if msg := checkResult(c.oids, c.planted); msg == "" {
			t.Errorf("%s answer accepted", name)
		}
	}
	if msg := checkOracle([]uint64{1, 2}, []uint64{1, 2}); msg != "" {
		t.Errorf("matching answer rejected: %s", msg)
	}
	if checkOracle([]uint64{1, 2}, []uint64{1, 3}) == "" || checkOracle([]uint64{1}, []uint64{1, 3}) == "" {
		t.Error("differing answer accepted")
	}
}

// The gate pass must count a wrong answer as a failed operation — against
// the oracle in its first oracleSample queries of a type, against the
// planted OID after — and average pages over the verified searches only.
func TestGatePass(t *testing.T) {
	inst := genInstance(3, 400)
	qs := genQueries(3, inst, gateQueries)
	oidOf := func(i int) uint64 { return uint64(i + 1) }
	calls := 0
	search := func(q query) ([]uint64, int64, error) {
		calls++
		var oids []uint64
		for _, i := range bruteForce(inst.sets, q) {
			oids = append(oids, oidOf(i))
		}
		switch calls {
		case 1: // inside the oracle sample: one extra, still ascending, planted present
			oids = append(oids, uint64(len(inst.sets)+1))
		case 2*oracleSample + 1: // past it: the planted OID is gone
			oids = nil
		}
		return oids, int64(10 * (1 + int(q.op))), nil
	}
	rec := newRecorder()
	gatePass(rec, qs, inst.sets, oidOf, search)
	if rec.attempted != 2*gateQueries || rec.failed != 2 {
		t.Fatalf("attempted %d failed %d, want %d and 2: %v", rec.attempted, rec.failed, 2*gateQueries, rec.failures)
	}
	m := map[string]float64{}
	rec.pageMetrics(m)
	if m["pages_per_superset"] != 10 || m["pages_per_subset"] != 20 {
		t.Errorf("page means %v, want 10 and 20", m)
	}
	if rec.paged[opSuperset] != gateQueries-2 {
		t.Errorf("%d ⊇ searches counted, want the %d verified ones", rec.paged[opSuperset], gateQueries-2)
	}
}
