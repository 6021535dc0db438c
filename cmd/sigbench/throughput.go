package main

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"sigfile"
	"sigfile/internal/benchfmt"
)

// throughputConfig drives the -throughput mode: a serving-style QPS
// measurement of concurrent searches, outside the page-cost experiments
// the rest of sigbench reproduces.
type throughputConfig struct {
	facility string // ssf | bssf | nix | fssf | all
	n        int    // objects indexed
	queries  int    // distinct request shapes in the measured mix
	workers  int    // concurrent searcher counts measured: 1 and this
	seconds  int    // wall-clock budget per (facility, level)
	shards   int    // when > 1, compare sharded (K=this) against unsharded at the same worker count
	seed     int64
	jsonPath string // when non-empty, write the benchfmt report here
}

const (
	tpDt = 8   // target set cardinality
	tpV  = 400 // element universe
	tpF  = 500 // signature width
	tpM  = 3   // bits per element
)

// runThroughput indexes a synthetic instance per facility and reports
// searches/second for batched Superset/Overlap queries with one searcher
// and with the requested number of concurrent searchers.
func runThroughput(w io.Writer, cfg throughputConfig) error {
	rng := rand.New(rand.NewSource(cfg.seed))
	universe := make([]string, tpV)
	for i := range universe {
		universe[i] = fmt.Sprintf("elem-%05d", i)
	}
	sets := make(sigfile.MapSource, cfg.n)
	entries := make([]sigfile.Entry, 0, cfg.n)
	for oid := uint64(1); oid <= uint64(cfg.n); oid++ {
		perm := rng.Perm(tpV)[:tpDt]
		set := make([]string, tpDt)
		for i, j := range perm {
			set[i] = universe[j]
		}
		sets[oid] = set
		entries = append(entries, sigfile.Entry{OID: oid, Elems: set})
	}
	reqs := make([]sigfile.SearchRequest, cfg.queries)
	for i := range reqs {
		dq := 1 + rng.Intn(4)
		perm := rng.Perm(tpV)[:dq]
		q := make([]string, dq)
		for j, k := range perm {
			q[j] = universe[k]
		}
		pred := sigfile.Superset
		if i%2 == 1 {
			pred = sigfile.Overlap
		}
		reqs[i] = sigfile.SearchRequest{Pred: pred, Query: q}
	}

	scheme, err := sigfile.NewScheme(tpF, tpM)
	if err != nil {
		return err
	}
	fscheme, err := sigfile.NewFrameScheme(16, 32, tpM)
	if err != nil {
		return err
	}
	builders := []tpBuilder{
		{"ssf", sigfile.Config{Kind: sigfile.KindSSF, Scheme: scheme, Source: sets}},
		{"bssf", sigfile.Config{Kind: sigfile.KindBSSF, Scheme: scheme, Source: sets}},
		{"nix", sigfile.Config{Kind: sigfile.KindNIX, Source: sets}},
		{"fssf", sigfile.Config{Kind: sigfile.KindFSSF, FrameScheme: fscheme, Source: sets}},
	}

	if cfg.shards > 1 {
		return runShardThroughput(w, cfg, builders, entries, reqs)
	}

	rep := benchfmt.New("search_throughput", cfg.seed)
	fmt.Fprintf(w, "throughput: N=%d, batch=%d queries (Superset/Overlap mix), %ds per point\n",
		cfg.n, cfg.queries, cfg.seconds)
	fmt.Fprintf(w, "%-6s %10s %14s %10s %10s %10s\n", "fac", "workers", "searches/sec", "p50(ms)", "p99(ms)", "speedup")
	for _, b := range builders {
		if cfg.facility != "all" && cfg.facility != b.name {
			continue
		}
		am, err := sigfile.Open(b.cfg)
		if err != nil {
			return fmt.Errorf("%s: %w", b.name, err)
		}
		if err := am.(sigfile.BatchInserter).InsertBatch(entries); err != nil {
			return fmt.Errorf("%s load: %w", b.name, err)
		}
		var baseQPS float64
		for _, workers := range []int{1, cfg.workers} {
			m, err := measureQPS(am, reqs, workers, time.Duration(cfg.seconds)*time.Second)
			if err != nil {
				return fmt.Errorf("%s workers=%d: %w", b.name, workers, err)
			}
			speedup := "1.00x"
			if workers == 1 {
				baseQPS = m.QPS
			} else if baseQPS > 0 {
				speedup = fmt.Sprintf("%.2fx", m.QPS/baseQPS)
			}
			fmt.Fprintf(w, "%-6s %10d %14.0f %10.3f %10.3f %10s\n",
				b.name, workers, m.QPS, m.P50Ms, m.P99Ms, speedup)
			m.Name = fmt.Sprintf("%s_w%d", b.name, workers)
			m.Facility = b.name
			rep.Workloads = append(rep.Workloads, m)
			if cfg.workers == 1 {
				break
			}
		}
	}
	if cfg.jsonPath != "" {
		if err := rep.WriteFile(cfg.jsonPath, false); err != nil {
			return err
		}
		fmt.Fprintf(w, "wrote %s\n", cfg.jsonPath)
	}
	return nil
}

// tpBuilder names one facility configuration of the throughput bench.
type tpBuilder struct {
	name string
	cfg  sigfile.Config
}

// runShardThroughput is the -shards form of the throughput bench: per
// facility it measures the unsharded instance and the K-way sharded one
// over the same data and request mix, at the same worker count, so the
// recorded ratio isolates what partitioned scatter-gather buys (or
// costs) on this machine's cores.
func runShardThroughput(w io.Writer, cfg throughputConfig, builders []tpBuilder, entries []sigfile.Entry, reqs []sigfile.SearchRequest) error {
	rep := benchfmt.New("sharded_search_throughput", cfg.seed)
	fmt.Fprintf(w, "sharded throughput: N=%d, batch=%d queries (Superset/Overlap mix), %ds per point, workers=%d\n",
		cfg.n, cfg.queries, cfg.seconds, cfg.workers)
	fmt.Fprintf(w, "%-6s %8s %10s %14s %10s %10s %10s\n",
		"fac", "shards", "workers", "searches/sec", "p50(ms)", "p99(ms)", "vs k=1")
	for _, b := range builders {
		if cfg.facility != "all" && cfg.facility != b.name {
			continue
		}
		var baseQPS float64
		for _, k := range []int{1, cfg.shards} {
			var opts []sigfile.OpenOption
			if k > 1 {
				opts = append(opts, sigfile.WithShards(k))
			}
			am, err := sigfile.Open(b.cfg, opts...)
			if err != nil {
				return fmt.Errorf("%s k=%d: %w", b.name, k, err)
			}
			if err := am.(sigfile.BatchInserter).InsertBatch(entries); err != nil {
				return fmt.Errorf("%s k=%d load: %w", b.name, k, err)
			}
			m, err := measureQPS(am, reqs, cfg.workers, time.Duration(cfg.seconds)*time.Second)
			if err != nil {
				return fmt.Errorf("%s k=%d: %w", b.name, k, err)
			}
			ratio := "1.00x"
			if k == 1 {
				baseQPS = m.QPS
			} else if baseQPS > 0 {
				ratio = fmt.Sprintf("%.2fx", m.QPS/baseQPS)
			}
			fmt.Fprintf(w, "%-6s %8d %10d %14.0f %10.3f %10.3f %10s\n",
				b.name, k, cfg.workers, m.QPS, m.P50Ms, m.P99Ms, ratio)
			m.Name = fmt.Sprintf("%s_w%d_k%d", b.name, cfg.workers, k)
			m.Facility = b.name
			m.Shards = k
			rep.Workloads = append(rep.Workloads, m)
		}
	}
	if cfg.jsonPath != "" {
		if err := rep.WriteFile(cfg.jsonPath, false); err != nil {
			return err
		}
		fmt.Fprintf(w, "wrote %s\n", cfg.jsonPath)
	}
	return nil
}

// measureQPS drives the request mix through a pool of workers until the
// budget elapses, timing every individual search, and returns completed
// searches per second with p50/p99 request latency in the shared
// benchfmt schema. Requests are handed out round-robin from a shared
// counter, so every worker draws from the same mix and the distribution
// covers all request shapes.
func measureQPS(am sigfile.AccessMethod, reqs []sigfile.SearchRequest, workers int, budget time.Duration) (benchfmt.Workload, error) {
	if workers < 1 {
		workers = 1
	}
	var (
		next     atomic.Int64
		firstErr atomic.Value
		wg       sync.WaitGroup
	)
	ctx := context.Background()
	lats := make([][]time.Duration, workers)
	start := time.Now()
	deadline := start.Add(budget)
	for wk := 0; wk < workers; wk++ {
		wk := wk
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				req := reqs[int(next.Add(1)-1)%len(reqs)]
				t0 := time.Now()
				if _, err := am.SearchContext(ctx, req.Pred, req.Query); err != nil {
					firstErr.CompareAndSwap(nil, err)
					return
				}
				lats[wk] = append(lats[wk], time.Since(t0))
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start).Seconds()
	if err, ok := firstErr.Load().(error); ok {
		return benchfmt.Workload{}, err
	}
	var all []time.Duration
	for _, l := range lats {
		all = append(all, l...)
	}
	if len(all) == 0 {
		return benchfmt.Workload{}, fmt.Errorf("no searches completed within the budget")
	}
	return benchfmt.Workload{
		Workers:  workers,
		Ops:      len(all),
		Searches: len(all),
		Seconds:  elapsed,
		QPS:      float64(len(all)) / elapsed,
		P50Ms:    benchfmt.Ms(benchfmt.Percentile(all, 0.50)),
		P99Ms:    benchfmt.Ms(benchfmt.Percentile(all, 0.99)),
	}, nil
}
