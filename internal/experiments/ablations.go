package experiments

import (
	"fmt"
	"io"

	"sigfile/internal/bitset"
	"sigfile/internal/core"
	"sigfile/internal/costmodel"
	"sigfile/internal/pagestore"
	"sigfile/internal/signature"
	"sigfile/internal/workload"
)

// This file implements the ablation studies DESIGN.md commits to: the
// design choices of the reproduction, each isolated and measured.

func init() {
	register(Experiment{
		ID:       "ablation-smartk",
		Artifact: "Ablation (ours)",
		Title:    "Smart T ⊇ Q probe size: paper's fixed k=2 vs exact argmin",
		Run:      runAblationSmartK,
	})
	register(Experiment{
		ID:       "ablation-buffer",
		Artifact: "Ablation (ours)",
		Title:    "LRU buffer pool: physical pages with and without caching",
		Run:      runAblationBuffer,
	})
	register(Experiment{
		ID:       "ablation-hash",
		Artifact: "Ablation (ours)",
		Title:    "Hash family: double hashing vs independent draws vs eq. 2",
		Run:      runAblationHash,
	})
	register(Experiment{
		ID:       "ablation-varcard",
		Artifact: "Ablation (ours, paper §6 future work)",
		Title:    "Variable target cardinality: fixed-Dt model vs mixed-cardinality data",
		Run:      runAblationVarCard,
	})
}

// runAblationSmartK compares the paper's fixed k=2 heuristic against the
// exact argmin probe size across designs, in the model.
func runAblationSmartK(w io.Writer, _ Options) error {
	t := newTable("Dt", "F", "m", "Dq", "RC k=2", "RC argmin", "k*", "saving")
	for _, c := range []struct {
		dt float64
		f  int
		m  float64
	}{{10, 250, 2}, {10, 500, 2}, {100, 1000, 3}, {100, 2500, 3}} {
		p := costmodel.Paper(c.dt, c.f, c.m)
		for _, dq := range []float64{3, 5, 10} {
			fixed := p.BSSFSmartSupersetFixed(dq, 2)
			best, k := p.BSSFSmartSuperset(dq)
			t.addf(int(c.dt), c.f, c.m, int(dq), fixed, best, k,
				fmt.Sprintf("%.0f%%", 100*(fixed-best)/fixed))
		}
	}
	t.fprint(w)
	fmt.Fprintln(w, "  (the paper's k=2 is near-optimal at F=500 but leaves pages on the table at F=250)")
	return nil
}

// runAblationBuffer measures how much of each facility's physical read
// traffic an LRU buffer pool absorbs across a query batch — the paper
// assumes cold reads; this quantifies what that assumption hides.
func runAblationBuffer(w io.Writer, opt Options) error {
	opt = opt.withDefaults()
	cfg := workload.Scaled(10, opt.Scale)
	inst, err := workload.Generate(cfg)
	if err != nil {
		return err
	}
	scheme := signature.MustNew(250, 2)
	queries, err := inst.Queries(workload.RandomQuery, 3, 20, opt.Seed)
	if err != nil {
		return err
	}

	t := newTable("facility", "physical reads cold", "physical reads pooled", "hit ratio")
	// SSF under a pool: the sequential scan re-touches the same pages
	// every query, so a pool sized to the signature file absorbs nearly
	// everything after the first query.
	run := func(kind core.Kind, pooled bool) (int64, float64, error) {
		inner := pagestore.NewMemStore()
		var store pagestore.Store = inner
		var pools []*pagestore.BufferPool
		if pooled {
			// 8 pages per file: big enough to hold a B⁺-tree's upper
			// levels or a slice page, far too small for the SSF scan —
			// which makes the locality difference between the facilities
			// visible instead of caching everything.
			store = poolingStore{inner: inner, capacity: 8, pools: &pools}
		}
		am, err := core.Open(core.Config{Kind: kind, Scheme: scheme, Source: inst, Store: store})
		if err != nil {
			return 0, 0, err
		}
		for oid := uint64(1); oid <= uint64(cfg.N); oid++ {
			if err := am.Insert(oid, inst.Sets[oid]); err != nil {
				return 0, 0, err
			}
		}
		r0, _ := inner.TotalStats()
		for _, q := range queries {
			if _, err := am.Search(signature.Superset, q, nil); err != nil {
				return 0, 0, err
			}
		}
		r1, _ := inner.TotalStats()
		hit := 0.0
		var hits, misses int64
		for _, p := range pools {
			hits += p.Hits()
			misses += p.Misses()
		}
		if hits+misses > 0 {
			hit = float64(hits) / float64(hits+misses)
		}
		return r1 - r0, hit, nil
	}
	for _, kind := range []core.Kind{core.KindSSF, core.KindBSSF, core.KindNIX} {
		cold, _, err := run(kind, false)
		if err != nil {
			return err
		}
		pooled, hit, err := run(kind, true)
		if err != nil {
			return err
		}
		t.addf(kind.String(), cold, pooled, fmt.Sprintf("%.0f%%", 100*hit))
	}
	t.fprint(w)
	fmt.Fprintf(w, "  (20 T ⊇ Q queries, Dq=3, N=%d, 8-page LRU per file; physical = reads reaching\n", cfg.N)
	fmt.Fprintln(w, "   the store. Sequential SSF scans defeat a small LRU; BSSF slice pages and NIX")
	fmt.Fprintln(w, "   upper levels cache well — the paper's cold-read assumption penalizes them most)")
	return nil
}

// poolingStore wraps every opened file in a BufferPool and records the
// pools for hit accounting.
type poolingStore struct {
	inner    *pagestore.MemStore
	capacity int
	pools    *[]*pagestore.BufferPool
}

// Open implements pagestore.Store.
func (s poolingStore) Open(name string) (pagestore.File, error) {
	f, err := s.inner.Open(name)
	if err != nil {
		return nil, err
	}
	p, err := pagestore.NewBufferPool(f, s.capacity)
	if err != nil {
		return nil, err
	}
	*s.pools = append(*s.pools, p)
	return p, nil
}

// Close implements pagestore.Store.
func (s poolingStore) Close() error { return s.inner.Close() }

// runAblationHash measures the false-drop rate of the two hash families
// against eq. 2, validating the ideal-hash assumption.
func runAblationHash(w io.Writer, opt Options) error {
	opt = opt.withDefaults()
	const (
		m      = 2
		dt, dq = 10, 2
		v      = 2000
		n      = 6000
	)
	inst, err := workload.Generate(workload.Config{N: n, V: v, Dt: dt, Seed: opt.Seed})
	if err != nil {
		return err
	}
	queries, err := inst.Queries(workload.RandomQuery, dq, 10, opt.Seed+1)
	if err != nil {
		return err
	}
	t := newTable("F", "hasher", "measured Fd", "eq. 2 predicts")
	// F=64 stresses the model (the m·Dq query bits collide noticeably);
	// F=256 is a comfortable design like the paper's.
	for _, f := range []int{64, 256} {
		predicted := signature.FalseDropSuperset(float64(f), m, dt, dq)
		for _, h := range []struct {
			name   string
			hasher signature.Hasher
		}{
			{"double hashing (default)", signature.DoubleHasher{}},
			{"independent draws", signature.IndependentHasher{}},
		} {
			scheme, err := signature.NewWithHasher(f, m, h.hasher)
			if err != nil {
				return err
			}
			// Precompute every target signature once; the queries reuse
			// them.
			tsigs := make([]*bitset.BitSet, n+1)
			for oid := uint64(1); oid <= n; oid++ {
				tsigs[oid] = scheme.SetSignatureStrings(inst.Sets[oid])
			}
			drops, eligible := 0, 0
			for _, q := range queries {
				qsig := scheme.SetSignatureStrings(q)
				for oid := uint64(1); oid <= n; oid++ {
					if ok, _ := signature.EvaluateSets(signature.Superset, inst.Sets[oid], q); ok {
						continue
					}
					eligible++
					if ok, _ := signature.Matches(signature.Superset, tsigs[oid], qsig); ok {
						drops++
					}
				}
			}
			t.addf(f, h.name, fmt.Sprintf("%.5f", float64(drops)/float64(eligible)), fmt.Sprintf("%.5f", predicted))
		}
	}
	t.fprint(w)
	fmt.Fprintln(w, "  (eq. 2 assumes the m·Dq query bits are distinct; at F=64 that assumption itself")
	fmt.Fprintln(w, "   bends, inflating both hashers above the prediction. At realistic F the measured")
	fmt.Fprintln(w, "   rates match eq. 2 — the ideal-hash assumption is harmless. An earlier version of")
	fmt.Fprintln(w, "   this library skipped the splitmix64 finalizer on FNV-64; this ablation caught the")
	fmt.Fprintln(w, "   resulting 6x false-drop inflation at power-of-two F.)")
	return nil
}

// runAblationVarCard measures BSSF subset cost on variable-cardinality
// data (Dt drawn from [5, 15]) against the fixed-Dt=10 model — the cost
// analysis the paper defers to future work.
func runAblationVarCard(w io.Writer, opt Options) error {
	opt = opt.withDefaults()
	const f, m = 500, 2
	base := workload.Scaled(10, opt.Scale)
	fixed := base
	varied := base
	varied.Dt, varied.DtMax = 5, 15 // mean 10, like the fixed instance

	t := newTable("Dq", "fixed Dt=10 meas", "var Dt∈[5,15] meas", "model Dt=10")
	var setups []*measuredSetup
	for _, cfg := range []workload.Config{fixed, varied} {
		s, err := buildMeasured(cfg, f, m)
		if err != nil {
			return err
		}
		setups = append(setups, s)
	}
	p := setups[0].params(f, m)
	for _, dq := range []int{20, 50, 100} {
		if dq > base.V {
			continue
		}
		mf, err := setups[0].avgCost(setups[0].bssf, signature.Subset, dq, opt.Trials, opt.Seed)
		if err != nil {
			return err
		}
		mv, err := setups[1].avgCost(setups[1].bssf, signature.Subset, dq, opt.Trials, opt.Seed)
		if err != nil {
			return err
		}
		t.addf(dq, mf, mv, p.BSSFRetrievalSubset(float64(dq)))
	}
	t.fprint(w)
	fmt.Fprintln(w, "  (variable cardinality raises the subset false-drop tail: long sets set more bits,")
	fmt.Fprintln(w, "   short sets drop more easily — the fixed-Dt model brackets the mixture)")
	return nil
}
