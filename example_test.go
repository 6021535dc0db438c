package sigfile_test

import (
	"context"
	"fmt"

	"sigfile"
)

// The paper's Query Q1 — "find all Students whose hobbies attribute
// includes {Baseball, Fishing}" — as a T ⊇ Q search on a bit-sliced
// signature file.
func ExampleOpen() {
	sets := sigfile.MapSource{
		1: {"Baseball", "Fishing"},
		2: {"Baseball", "Golf", "Fishing"},
		3: {"Baseball", "Football", "Tennis"},
	}
	scheme, _ := sigfile.NewScheme(250, 2)
	idx, _ := sigfile.Open(sigfile.Config{Kind: sigfile.KindBSSF, Scheme: scheme, Source: sets})
	for oid := uint64(1); oid <= 3; oid++ {
		idx.Insert(oid, sets[oid])
	}
	res, _ := idx.Search(sigfile.Superset, []string{"Baseball", "Fishing"})
	fmt.Println(res.OIDs)
	// Output: [1 2]
}

// The paper's Query Q2 — "find all Students whose hobbies attribute is a
// subset of {Baseball, Fishing, Tennis}" — as a T ⊆ Q search.
func ExampleSubset() {
	sets := sigfile.MapSource{
		1: {"Baseball", "Fishing"},
		2: {"Baseball", "Golf"},
		3: {"Tennis"},
	}
	scheme, _ := sigfile.NewScheme(250, 2)
	idx, _ := sigfile.Open(sigfile.Config{Kind: sigfile.KindSSF, Scheme: scheme, Source: sets})
	for oid := uint64(1); oid <= 3; oid++ {
		idx.Insert(oid, sets[oid])
	}
	res, _ := idx.Search(sigfile.Subset, []string{"Baseball", "Fishing", "Tennis"})
	fmt.Println(res.OIDs)
	// Output: [1 3]
}

// The smart object retrieval of §5.1.3: probing with only two query
// elements reads fewer bit slices; false-drop resolution keeps the
// answer exact.
func ExampleWithMaxProbeElements() {
	sets := sigfile.MapSource{}
	for oid := uint64(1); oid <= 8; oid++ {
		sets[oid] = []string{"a", "b", "c", "d", "e"}
	}
	scheme, _ := sigfile.NewScheme(250, 2)
	idx, _ := sigfile.Open(sigfile.Config{Kind: sigfile.KindBSSF, Scheme: scheme, Source: sets})
	for oid, set := range sets {
		idx.Insert(oid, set)
	}
	full, _ := idx.Search(sigfile.Superset, []string{"a", "b", "c", "d", "e"})
	smart, _ := idx.Search(sigfile.Superset, []string{"a", "b", "c", "d", "e"},
		sigfile.WithMaxProbeElements(2))
	fmt.Println(len(full.OIDs) == len(smart.OIDs), smart.Stats.SlicesRead < full.Stats.SlicesRead)
	// Output: true true
}

// The context-aware API: WithTrace captures the search's phase
// decomposition — index scan, OID map, false-drop resolution — whose page
// counts sum exactly to the reported SearchStats.
func ExampleWithTrace() {
	sets := sigfile.MapSource{
		1: {"Baseball", "Fishing"},
		2: {"Baseball", "Golf", "Fishing"},
		3: {"Tennis"},
	}
	scheme, _ := sigfile.NewScheme(250, 2)
	idx, _ := sigfile.Open(sigfile.Config{Kind: sigfile.KindBSSF, Scheme: scheme, Source: sets})
	for oid := uint64(1); oid <= 3; oid++ {
		idx.Insert(oid, sets[oid])
	}
	var traces sigfile.TraceCollector
	res, _ := idx.SearchContext(context.Background(), sigfile.Superset,
		[]string{"Baseball", "Fishing"}, sigfile.WithTrace(&traces))
	tr := traces.Traces()[0]
	fmt.Println(res.OIDs, tr.Facility, len(tr.Spans), tr.TotalPages() == res.Stats.TotalPages())
	// Output: [1 2] BSSF 3 true
}

// WithSmartRetrieval lets the facility pick its own probe cap (§5.1.3);
// resolution keeps the answer exact while reading fewer slices.
func ExampleWithSmartRetrieval() {
	sets := sigfile.MapSource{}
	for oid := uint64(1); oid <= 8; oid++ {
		sets[oid] = []string{"a", "b", "c", "d", "e"}
	}
	scheme, _ := sigfile.NewScheme(250, 2)
	idx, _ := sigfile.Open(sigfile.Config{Kind: sigfile.KindBSSF, Scheme: scheme, Source: sets})
	for oid, set := range sets {
		idx.Insert(oid, set)
	}
	full, _ := idx.SearchContext(context.Background(), sigfile.Superset,
		[]string{"a", "b", "c", "d", "e"})
	smart, _ := idx.SearchContext(context.Background(), sigfile.Superset,
		[]string{"a", "b", "c", "d", "e"}, sigfile.WithSmartRetrieval())
	fmt.Println(len(full.OIDs) == len(smart.OIDs), smart.Stats.SlicesRead < full.Stats.SlicesRead)
	// Output: true true
}

// Horizontal sharding (DESIGN.md §16): WithShards hash-partitions the
// OID space across K full facilities and searches them in shard order —
// results are byte-identical to the unsharded facility at any K.
func ExampleWithShards() {
	sets := sigfile.MapSource{
		1: {"Baseball", "Fishing"},
		2: {"Baseball", "Golf", "Fishing"},
		3: {"Tennis"},
	}
	scheme, _ := sigfile.NewScheme(250, 2)
	idx, _ := sigfile.Open(sigfile.Config{Kind: sigfile.KindBSSF, Scheme: scheme, Source: sets},
		sigfile.WithShards(4))
	for oid := uint64(1); oid <= 3; oid++ {
		idx.Insert(oid, sets[oid])
	}
	res, _ := idx.Search(sigfile.Superset, []string{"Baseball", "Fishing"})
	sh := idx.(*sigfile.ShardedFacility)
	fmt.Println(res.OIDs, sh.Shards())
	// Output: [1 2] 4
}

// The analytical cost model reproduces the paper's Table 6 storage costs
// and recommends designs before any data is loaded.
func ExamplePaperModel() {
	m := sigfile.PaperModel(10, 250, 2) // Dt=10, F=250, m=2
	fmt.Printf("SSF=%.0f BSSF=%.0f NIX=%.0f pages\n",
		m.SSFStorage(), m.BSSFStorage(), m.NIXStorage())
	fmt.Printf("RC(T⊇Q, Dq=3): BSSF=%.1f NIX=%.1f\n",
		m.BSSFRetrievalSuperset(3), m.NIXRetrievalSuperset(3))
	// Output:
	// SSF=308 BSSF=313 NIX=690 pages
	// RC(T⊇Q, Dq=3): BSSF=5.9 NIX=9.0
}

// Bulk loading through the BatchInserter interface amortizes page
// writes — the insertion-cost improvement the paper's §6 anticipates.
func ExampleBatchInserter() {
	sets := sigfile.MapSource{}
	entries := make([]sigfile.Entry, 0, 100)
	for oid := uint64(1); oid <= 100; oid++ {
		set := []string{fmt.Sprintf("v%d", oid%7), fmt.Sprintf("v%d", oid%11)}
		sets[oid] = set
		entries = append(entries, sigfile.Entry{OID: oid, Elems: set})
	}
	scheme, _ := sigfile.NewScheme(250, 2)
	idx, _ := sigfile.Open(sigfile.Config{Kind: sigfile.KindBSSF, Scheme: scheme, Source: sets})
	if err := sigfile.InsertAll(idx, entries); err != nil {
		fmt.Println(err)
		return
	}
	fmt.Println(idx.Count())
	// Output: 100
}

// OptimalM is the classical text-retrieval weight choice (eq. 3); the
// paper's central finding is that a far smaller m serves set predicates
// better.
func ExampleOptimalM() {
	fmt.Println(sigfile.OptimalM(250, 10))
	fmt.Printf("%.2e vs %.2e\n",
		sigfile.FalseDropSuperset(250, 17, 10, 3), // m_opt: minimal false drops
		sigfile.FalseDropSuperset(250, 2, 10, 3))  // m=2: more drops, far cheaper scans
	// Output:
	// 17
	// 7.76e-16 vs 2.11e-07
}
