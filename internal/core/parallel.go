package core

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"sigfile/internal/bitset"
	"sigfile/internal/signature"
)

// This file is the concurrency substrate of the parallel search layer:
// a small work-pool primitive the facilities shard their page scans,
// slice reads and drop resolution over, plus the batched SearchMany
// entry point for serving-style workloads.
//
// The design constraint throughout is determinism: a parallel search
// must return byte-identical Results (OIDs and Stats) to the sequential
// one. Every parallel site therefore writes into a per-task slot and the
// caller folds the slots together in task order; nothing is accumulated
// in shared state during the fan-out.

// searchWorkers resolves the effective worker count of a search: the
// Parallelism option, 0 or 1 meaning sequential, and a negative value
// meaning "one worker per CPU".
func searchWorkers(opts SearchOptions) int {
	p := opts.Parallelism
	if p < 0 {
		p = runtime.NumCPU()
	}
	if p < 1 {
		return 1
	}
	return p
}

// forEachTask runs fn(task) for every task in [0, ntasks) on up to
// workers goroutines. With workers <= 1 (or a single task) it degrades
// to a plain loop on the calling goroutine, so the sequential and
// parallel paths execute the same code. Tasks are claimed from a shared
// counter, so uneven task costs balance across the pool. All tasks run
// even if one fails; the joined errors are returned so a fault is never
// masked by a faster worker's success.
//
// Cancellation is checked before each task claim: once ctx is done no
// new task starts, in-flight tasks finish (per-task slots stay
// consistent), and the returned error includes ctx.Err() — so
// errors.Is(err, ctx.Err()) holds for the caller.
func forEachTask(ctx context.Context, workers, ntasks int, fn func(task int) error) error {
	if ntasks <= 0 {
		return nil
	}
	if workers > ntasks {
		workers = ntasks
	}
	if workers <= 1 {
		var errs []error
		for i := 0; i < ntasks; i++ {
			if err := ctx.Err(); err != nil {
				errs = append(errs, err)
				break
			}
			if err := fn(i); err != nil {
				errs = append(errs, err)
			}
		}
		return errors.Join(errs...)
	}
	var (
		next  atomic.Int64
		wg    sync.WaitGroup
		errMu sync.Mutex
		errs  []error
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ctx.Err() == nil {
				task := int(next.Add(1)) - 1
				if task >= ntasks {
					return
				}
				if err := fn(task); err != nil {
					errMu.Lock()
					errs = append(errs, err)
					errMu.Unlock()
				}
			}
		}()
	}
	wg.Wait()
	if err := ctx.Err(); err != nil {
		errs = append(errs, err)
	}
	return errors.Join(errs...)
}

// shardRange splits [0, n) into nshards near-equal contiguous ranges and
// returns the bounds of shard i.
func shardRange(n, nshards, i int) (lo, hi int) {
	return i * n / nshards, (i + 1) * n / nshards
}

// addStats folds per-task stats into dst in task order. All fields are
// sums of non-negative per-task counts, so the fold is deterministic
// regardless of the order tasks *completed* in.
func addStats(dst *SearchStats, parts []SearchStats) {
	for i := range parts {
		dst.SlicesRead += parts[i].SlicesRead
		dst.IndexPages += parts[i].IndexPages
		dst.OIDPages += parts[i].OIDPages
		dst.ObjectFetches += parts[i].ObjectFetches
	}
}

// scatter runs fn for every part in [0, n) on up to workers goroutines,
// handing each its own stats slot, and returns the per-part results in
// part order with the slots folded into stats in that order — so the
// results and every count are those of one sequential pass at any
// parallelism.
func scatter[T any](ctx context.Context, workers, n int, stats *SearchStats, fn func(i int, part *SearchStats) (T, error)) ([]T, error) {
	out := make([]T, n)
	parts := make([]SearchStats, n)
	err := forEachTask(ctx, workers, n, func(i int) (err error) {
		out[i], err = fn(i, &parts[i])
		return err
	})
	if err != nil {
		return nil, err
	}
	addStats(stats, parts)
	return out, nil
}

// foldBits is the one combine step of the bit-sliced searches: it cuts
// the part list [0, n) into one contiguous block per worker, hands each
// worker its own nbits-bit accumulator (all ones for an AND fold, all
// zeros for an OR fold) and stats slot, and lets fold combine the block's
// pages into that accumulator as they are read. The worker accumulators
// and stats are then folded in worker order; AND and OR are commutative
// and the counts are sums, so the result is that of one sequential pass at
// any parallelism — and a search allocates one accumulator per worker
// however many parts it reads.
func foldBits(ctx context.Context, nbits, n int, and bool, workers int, stats *SearchStats, fold func(lo, hi int, acc *bitset.BitSet, part *SearchStats) error) (*bitset.BitSet, error) {
	newAcc := func() *bitset.BitSet {
		acc := bitset.New(nbits)
		if and {
			acc.Fill()
		}
		return acc
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		acc := newAcc()
		if err := fold(0, n, acc, stats); err != nil {
			return nil, err
		}
		return acc, nil
	}
	accs, err := scatter(ctx, workers, workers, stats, func(w int, part *SearchStats) (*bitset.BitSet, error) {
		acc := newAcc()
		lo, hi := shardRange(n, workers, w)
		return acc, fold(lo, hi, acc, part)
	})
	if err != nil {
		return nil, err
	}
	for _, acc := range accs[1:] {
		if and {
			accs[0].And(acc)
		} else {
			accs[0].Or(acc)
		}
	}
	return accs[0], nil
}

// SearchRequest is one search of a batch submitted to SearchMany.
type SearchRequest struct {
	Pred  signature.Predicate
	Query []string
	// Opts selects the retrieval strategy of this request; empty means
	// default. Per-request WithParallelism multiplies with the
	// batch-level fan-out, so serving workloads usually omit it and let
	// the batch spread across the pool.
	Opts []SearchOption
}

// SearchMany answers a batch of searches against one facility, fanning
// the requests across up to parallelism goroutines (0 or 1 = one at a
// time; negative = one per CPU). Result i corresponds to request i. If
// any request fails, the failed slots are nil and the joined errors are
// returned; the remaining results are still valid.
//
// The facilities in this package are safe for any number of concurrent
// Search calls (updates are excluded by their internal reader/writer
// lock), so SearchMany needs no coordination beyond the pool — it is the
// serving-style entry point: throughput scales with the pool while every
// individual Result stays identical to a sequential call.
func SearchMany(am AccessMethod, reqs []SearchRequest, parallelism int) ([]*Result, error) {
	return SearchManyContext(context.Background(), am, reqs, parallelism)
}

// SearchManyContext is SearchMany with a context: cancellation stops
// unstarted requests (their slots stay nil and the joined error includes
// ctx.Err()) and propagates into each in-flight search, which observes
// it at its own page-scan and worker-task boundaries. A trace sink on
// ctx receives one trace per request.
func SearchManyContext(ctx context.Context, am AccessMethod, reqs []SearchRequest, parallelism int) ([]*Result, error) {
	out := make([]*Result, len(reqs))
	workers := searchWorkers(SearchOptions{Parallelism: parallelism})
	err := forEachTask(ctx, workers, len(reqs), func(i int) error {
		res, err := am.SearchContext(ctx, reqs[i].Pred, reqs[i].Query, reqs[i].Opts...)
		if err != nil {
			return fmt.Errorf("core: SearchMany request %d: %w", i, err)
		}
		out[i] = res
		return nil
	})
	return out, err
}
