package experiments

import (
	"fmt"

	"sigfile/internal/core"
	"sigfile/internal/costmodel"
	"sigfile/internal/pagestore"
	"sigfile/internal/signature"
	"sigfile/internal/workload"
)

// measuredSetup bundles the three access facilities built over one
// synthetic instance, for experiments that print measured page counts
// next to the model's predictions.
type measuredSetup struct {
	cfg  workload.Config
	inst *workload.Instance
	ssf  core.AccessMethod
	bssf core.AccessMethod
	nix  *core.NIX // concrete: Table 5 reads the tree's page breakdown
	// per-facility stores, for aggregating physical page-access stats.
	ssfStore, bssfStore, nixStore *pagestore.MemStore
}

// buildMeasured generates the instance and bulk-loads all three
// facilities with a signature scheme of width f and weight m.
func buildMeasured(cfg workload.Config, f, m int) (*measuredSetup, error) {
	inst, err := workload.Generate(cfg)
	if err != nil {
		return nil, err
	}
	scheme, err := signature.New(f, m)
	if err != nil {
		return nil, err
	}
	s := &measuredSetup{
		cfg: cfg, inst: inst,
		ssfStore:  pagestore.NewMemStore(),
		bssfStore: pagestore.NewMemStore(),
		nixStore:  pagestore.NewMemStore(),
	}
	open := func(kind core.Kind, store pagestore.Store) (core.AccessMethod, error) {
		return core.Open(core.Config{Kind: kind, Scheme: scheme, Source: inst, Store: store})
	}
	if s.ssf, err = open(core.KindSSF, s.ssfStore); err != nil {
		return nil, err
	}
	if s.bssf, err = open(core.KindBSSF, s.bssfStore); err != nil {
		return nil, err
	}
	nix, err := open(core.KindNIX, s.nixStore)
	if err != nil {
		return nil, err
	}
	s.nix = nix.(*core.NIX)
	entries := make([]core.Entry, 0, cfg.N)
	for oid := uint64(1); oid <= uint64(cfg.N); oid++ {
		entries = append(entries, core.Entry{OID: oid, Elems: s.inst.Sets[oid]})
	}
	for _, am := range []core.AccessMethod{s.ssf, s.bssf, s.nix} {
		if err := core.InsertAll(am, entries); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// params returns the cost-model parameters matching this instance (same
// scaled N and V, same design).
func (s *measuredSetup) params(f int, m float64) costmodel.Params {
	p := costmodel.Paper(float64(s.cfg.Dt), f, m)
	p.N = s.cfg.N
	p.V = s.cfg.V
	return p
}

// avgCost averages the measured total page accesses of `trials` random
// queries of cardinality dq against the access method.
func (s *measuredSetup) avgCost(am core.AccessMethod, pred signature.Predicate, dq, trials int, seed int64, opts ...core.SearchOption) (float64, error) {
	queries, err := s.inst.Queries(workload.RandomQuery, dq, trials, seed)
	if err != nil {
		return 0, err
	}
	var total int64
	for _, q := range queries {
		res, err := am.Search(pred, q, opts...)
		if err != nil {
			return 0, fmt.Errorf("measured %s: %w", am.Name(), err)
		}
		total += res.Stats.TotalPages()
	}
	return float64(total) / float64(trials), nil
}
