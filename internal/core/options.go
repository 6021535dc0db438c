package core

import (
	"context"
	"math"

	"sigfile/internal/obs"
)

// This file is the functional-options surface of the search API. Search
// and SearchContext accept SearchOption values and resolve them to one
// SearchOptions value (newSearchOptions) that the shell and the indexes
// consume.

// TraceSink re-exports obs.TraceSink, the consumer of per-search traces,
// so SearchOptions can carry one without callers importing obs.
type TraceSink = obs.TraceSink

// SearchOption configures one search submitted through SearchContext.
type SearchOption func(*SearchOptions)

// WithMaxProbeElements limits how many query elements form the probe on
// Superset/Contains searches (the paper's smart object retrieval for
// T ⊇ Q, §5.1.3). Zero means "use every element".
func WithMaxProbeElements(k int) SearchOption {
	return func(o *SearchOptions) { o.MaxProbeElements = k }
}

// WithMaxZeroSlices limits how many zero-position bit slices a BSSF
// Subset search reads (the paper's smart strategy for T ⊆ Q, §5.2.2).
func WithMaxZeroSlices(z int) SearchOption {
	return func(o *SearchOptions) { o.MaxZeroSlices = z }
}

// WithSmartRetrieval lets the facility pick its own probe caps — the
// paper's smart object retrieval (§5.1.3, §5.2.2) without hand-tuned
// constants. The caps derive from the facility's live object count (see
// smartCaps); explicit WithMaxProbeElements/WithMaxZeroSlices values
// take precedence, and SSF ignores the option (its scan cost is fixed, so
// a weaker probe only adds false drops).
func WithSmartRetrieval() SearchOption {
	return func(o *SearchOptions) { o.Smart = true }
}

// WithTrace emits a per-phase trace of the search to sink. It overrides
// any sink riding the context (obs.ContextWithSink).
func WithTrace(sink obs.TraceSink) SearchOption {
	return func(o *SearchOptions) { o.Trace = sink }
}

// newSearchOptions resolves a SearchOption list to the struct form the
// shell and the indexes consume; an empty list is the default strategy.
func newSearchOptions(opts []SearchOption) SearchOptions {
	var o SearchOptions
	for _, opt := range opts {
		if opt != nil {
			opt(&o)
		}
	}
	return o
}

// traceSink resolves where a search's trace goes: an explicit WithTrace
// sink wins, otherwise the sink riding the context (obs.ContextWithSink),
// otherwise nil — tracing off.
func traceSink(ctx context.Context, opts SearchOptions) obs.TraceSink {
	if opts.Trace != nil {
		return opts.Trace
	}
	return obs.SinkFrom(ctx)
}

// smartCaps resolves WithSmartRetrieval into explicit caps for a facility
// of the given kind, element weight m and live object count, and clears
// the flag: the shell pins the caps once per logical search, so every
// segment and shard underneath filters with the same strength. Explicit
// WithMaxProbeElements/WithMaxZeroSlices values win. NIX probes a single
// element on T ⊇ Q — the strongest form of §5.1.3, since each lookup
// costs tree-height pages and the intersection only shrinks the
// candidate set resolution re-checks anyway. SSF gets no cap: its scan
// reads every signature page no matter how weak the probe is, so a cap
// only adds false drops.
func smartCaps(kind Kind, m, live int, opts SearchOptions) SearchOptions {
	if !opts.Smart {
		return opts
	}
	opts.Smart = false
	if opts.MaxProbeElements == 0 {
		switch kind {
		case KindNIX:
			opts.MaxProbeElements = 1
		case KindBSSF, KindFSSF:
			opts.MaxProbeElements = smartProbeCap(live, m)
		}
	}
	if opts.MaxZeroSlices == 0 && kind == KindBSSF {
		opts.MaxZeroSlices = smartZeroSliceCap(live)
	}
	return opts
}

// smartProbeCap is the probe cap WithSmartRetrieval selects for the
// signature facilities on T ⊇ Q: with slices at the paper's optimal
// density 1/2, each of the m bits an element contributes halves the
// surviving positions, so k = ⌈log₂(N+1)/m⌉ probed elements push the
// expected false-drop count below one while reading only k·m slices
// (BSSF) or k frames (FSSF) instead of all D_q's worth.
func smartProbeCap(count, m int) int {
	if count <= 0 || m <= 0 {
		return 1
	}
	k := int(math.Ceil(math.Log2(float64(count)+1) / float64(m)))
	if k < 1 {
		k = 1
	}
	return k
}

// smartZeroSliceCap is the zero-slice cap for BSSF's T ⊆ Q: each zero
// slice halves the surviving positions at density 1/2, so ⌈log₂(N+1)⌉
// slices suffice to push expected false drops below one — against the
// F − m_q slices of the exhaustive strategy.
func smartZeroSliceCap(count int) int {
	if count <= 0 {
		return 1
	}
	z := int(math.Ceil(math.Log2(float64(count) + 1)))
	if z < 1 {
		z = 1
	}
	return z
}
