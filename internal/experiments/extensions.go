package experiments

import (
	"fmt"
	"io"

	"sigfile/internal/core"
	"sigfile/internal/costmodel"
	"sigfile/internal/signature"
	"sigfile/internal/workload"
)

// This file hosts the extension experiments: studies of designs beyond
// the paper's SSF/BSSF/NIX triple.

func init() {
	register(Experiment{
		ID:       "ext-fssf",
		Artifact: "Extension (ours)",
		Title:    "Frame-sliced signature file vs the paper's three facilities",
		Run:      runExtFSSF,
	})
	register(Experiment{
		ID:       "ext-operators",
		Artifact: "Extension (ours, paper §6 future work)",
		Title:    "Overlap, equality and membership operators: model vs measured",
		Run:      runExtOperators,
	})
}

// runExtOperators evaluates the extended cost formulas for the §2
// operators the paper defers, and validates them against measured runs.
func runExtOperators(w io.Writer, opt Options) error {
	opt = opt.withDefaults()
	const f, m = 250, 2
	p := costmodel.Paper(10, f, m)

	t := newTable("operator", "Dq", "SSF", "BSSF", "NIX")
	for _, dq := range []float64{1, 3, 10} {
		t.addf("T ∩ Q ≠ ∅", int(dq),
			p.SSFRetrievalOverlap(dq), p.BSSFRetrievalOverlap(dq), p.NIXRetrievalOverlap(dq))
	}
	t.addf("T = Q", 10,
		p.SSFRetrievalEquals(10), p.BSSFRetrievalEquals(10), p.NIXRetrievalEquals(10))
	t.addf("q ∈ T", 1,
		p.SSFRetrievalContains(), p.BSSFRetrievalContains(), p.NIXRetrievalContains())
	t.fprint(w)
	fmt.Fprintln(w, "  (model at paper constants; overlap & membership favor NIX — exact unions —")
	fmt.Fprintln(w, "   while equality makes BSSF read all F slices)")

	if !opt.Measured {
		return nil
	}
	setup, err := buildMeasured(workload.Scaled(10, opt.Scale), f, m)
	if err != nil {
		return err
	}
	ps := setup.params(f, m)
	mt := newTable("operator", "facility", "Dq", "model RC", "measured RC")
	for _, dq := range []int{1, 3} {
		for _, x := range []struct {
			am    core.AccessMethod
			model float64
		}{
			{setup.ssf, ps.SSFRetrievalOverlap(float64(dq))},
			{setup.bssf, ps.BSSFRetrievalOverlap(float64(dq))},
			{setup.nix, ps.NIXRetrievalOverlap(float64(dq))},
		} {
			meas, err := setup.avgCost(x.am, signature.Overlap, dq, opt.Trials, opt.Seed)
			if err != nil {
				return err
			}
			mt.addf("T ∩ Q ≠ ∅", x.am.Name(), dq, x.model, meas)
		}
	}
	for _, x := range []struct {
		am    core.AccessMethod
		model float64
	}{
		{setup.ssf, ps.SSFRetrievalEquals(float64(setup.cfg.Dt))},
		{setup.bssf, ps.BSSFRetrievalEquals(float64(setup.cfg.Dt))},
		{setup.nix, ps.NIXRetrievalEquals(float64(setup.cfg.Dt))},
	} {
		meas, err := setup.avgCost(x.am, signature.Equals, setup.cfg.Dt, opt.Trials, opt.Seed)
		if err != nil {
			return err
		}
		mt.addf("T = Q", x.am.Name(), setup.cfg.Dt, x.model, meas)
	}
	fmt.Fprintln(w)
	mt.fprint(w)
	fmt.Fprintf(w, "  (measured at scale 1/%d)\n", opt.Scale)
	return nil
}

// runExtFSSF places FSSF in the paper's comparison: storage, update and
// retrieval costs from the extended model, plus measured runs of the
// real implementation at scale.
func runExtFSSF(w io.Writer, opt Options) error {
	opt = opt.withDefaults()
	const f, m, k = 250, 2, 10
	p := costmodel.Paper(10, f, m)
	pf := p.FSSF(k)

	fmt.Fprintf(w, "  design: F=%d bits as K=%d frames of S=%d, m=%d, Dt=10 (paper constants)\n\n", f, k, int(pf.S()), m)

	t := newTable("metric", "SSF", "FSSF", "BSSF", "NIX")
	t.addf("storage SC", p.SSFStorage(), pf.FSSFStorage(), p.BSSFStorage(), p.NIXStorage())
	t.addf("insert UC_I", p.SSFInsertCost(), pf.FSSFInsertCost(), p.BSSFImprovedInsertCost(), p.NIXInsertCost())
	t.addf("delete UC_D", p.SSFDeleteCost(), pf.FSSFDeleteCost(), p.BSSFDeleteCost(), p.NIXDeleteCost())
	for _, dq := range []float64{1, 2, 5, 10} {
		t.addf(fmt.Sprintf("RC T⊇Q Dq=%d", int(dq)),
			p.SSFRetrievalSuperset(dq), pf.FSSFRetrievalSuperset(dq),
			p.BSSFRetrievalSuperset(dq), p.NIXRetrievalSuperset(dq))
	}
	for _, dq := range []float64{20, 100} {
		t.addf(fmt.Sprintf("RC T⊆Q Dq=%d", int(dq)),
			p.SSFRetrievalSubset(dq), pf.FSSFRetrievalSubset(dq),
			p.BSSFRetrievalSubset(dq), p.NIXRetrievalSubset(dq))
	}
	t.fprint(w)
	fmt.Fprintln(w, "  (model, pages. FSSF buys BSSF-free insertion — ~7.5 pages vs 251 worst-case —")
	fmt.Fprintln(w, "   while keeping T ⊇ Q far below SSF; its T ⊆ Q degenerates to a full scan,")
	fmt.Fprintln(w, "   so the paper's verdict for the subset query — use BSSF — stands)")

	if !opt.Measured {
		return nil
	}

	// Measured: FSSF over the scaled instance vs the model at scale.
	cfg := workload.Scaled(10, opt.Scale)
	inst, err := workload.Generate(cfg)
	if err != nil {
		return err
	}
	fssf, err := core.Open(core.Config{Kind: core.KindFSSF, FrameScheme: signature.MustFrameScheme(k, f/k, m), Source: inst})
	if err != nil {
		return err
	}
	for oid := uint64(1); oid <= uint64(cfg.N); oid++ {
		if err := fssf.Insert(oid, inst.Sets[oid]); err != nil {
			return err
		}
	}
	ps := costmodel.Paper(10, f, m)
	ps.N, ps.V = cfg.N, cfg.V
	psf := ps.FSSF(k)

	mt := newTable("query", "Dq", "model RC", "measured RC")
	for _, dq := range []int{1, 2, 5, 10} {
		queries, err := inst.Queries(workload.RandomQuery, dq, opt.Trials, opt.Seed)
		if err != nil {
			return err
		}
		var total int64
		for _, q := range queries {
			res, err := fssf.Search(signature.Superset, q, nil)
			if err != nil {
				return err
			}
			total += res.Stats.TotalPages()
		}
		mt.addf("T ⊇ Q", dq, psf.FSSFRetrievalSuperset(float64(dq)), float64(total)/float64(opt.Trials))
	}
	fmt.Fprintln(w)
	mt.fprint(w)
	fmt.Fprintf(w, "  (measured at scale 1/%d: N=%d)\n", opt.Scale, cfg.N)
	return nil
}
