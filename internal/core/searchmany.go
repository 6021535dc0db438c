package core

import (
	"context"
	"errors"
	"fmt"

	"sigfile/internal/signature"
)

// SearchRequest is one search of a batch submitted to SearchMany.
type SearchRequest struct {
	Pred  signature.Predicate
	Query []string
	// Opts selects the retrieval strategy of this request; empty means
	// default.
	Opts []SearchOption
}

// SearchMany answers a batch of searches against one facility, one after
// another on the calling goroutine. Result i corresponds to request i.
// If any request fails, the failed slots are nil and the joined errors
// are returned; the remaining results are still valid.
//
// Every Result is identical to that of a single Search call. Callers
// wanting throughput run several SearchMany (or Search) calls
// concurrently: the facilities in this package are safe for any number
// of concurrent searches, which share the shell's read lock.
func SearchMany(am AccessMethod, reqs []SearchRequest) ([]*Result, error) {
	return SearchManyContext(context.Background(), am, reqs)
}

// SearchManyContext is SearchMany with a context: cancellation stops
// unstarted requests (their slots stay nil and the joined error includes
// ctx.Err()) and propagates into the running search, which observes it
// before its next page read or candidate fetch. A trace sink on ctx
// receives one trace per request.
func SearchManyContext(ctx context.Context, am AccessMethod, reqs []SearchRequest) ([]*Result, error) {
	out := make([]*Result, len(reqs))
	var errs []error
	for i, r := range reqs {
		if err := ctx.Err(); err != nil {
			errs = append(errs, err)
			break
		}
		res, err := am.SearchContext(ctx, r.Pred, r.Query, r.Opts...)
		if err != nil {
			errs = append(errs, fmt.Errorf("core: SearchMany request %d: %w", i, err))
			continue
		}
		out[i] = res
	}
	return out, errors.Join(errs...)
}
