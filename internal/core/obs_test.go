package core

import (
	"bytes"
	"context"
	"errors"
	"sync/atomic"
	"testing"

	"sigfile/internal/obs"
	"sigfile/internal/signature"
)

// allFixtures builds the four facilities (SSF, BSSF, NIX, FSSF) over the
// same synthetic data.
func allFixtures(t testing.TB, n, dt, v int, seed int64) []*fixture {
	t.Helper()
	fixtures := newFixtures(t, n, dt, v, seed)
	fssf, fsets := newFSSFFixture(t, n, dt, v, seed)
	return append(fixtures, &fixture{fssf, fsets})
}

// TestTraceSpansSumToStats is the tentpole invariant of the tracing
// layer: for every facility, predicate and query, the traced spans
// decompose the search into exactly the paper's three phases, and their
// page counts equal the SearchStats term by term — index-scan =
// IndexPages, oid-map = OIDPages, resolve = ObjectFetches — so the trace
// total is provably the search's RC.
func TestTraceSpansSumToStats(t *testing.T) {
	const n, dt, v = 300, 5, 50
	fixtures := allFixtures(t, n, dt, v, 71)
	queries := randomQueries(fixtures[0].sets, v, 10, 8, 72)
	for _, f := range fixtures {
		for _, pred := range allPredicates {
			for qi, q := range queries {
				var collector obs.Collector
				res, err := f.am.SearchContext(context.Background(), pred, q, WithTrace(&collector))
				if err != nil {
					t.Fatalf("%s %v q%d: %v", f.am.Name(), pred, qi, err)
				}
				traces := collector.Traces()
				if len(traces) != 1 {
					t.Fatalf("%s %v q%d: %d traces emitted, want 1", f.am.Name(), pred, qi, len(traces))
				}
				tr := traces[0]
				if tr.Facility != f.am.Name() || tr.Predicate != pred.String() {
					t.Errorf("%s %v q%d: trace labeled %s %s", f.am.Name(), pred, qi, tr.Facility, tr.Predicate)
				}
				checkSpan := func(ph obs.Phase, want int64) {
					got, ok := tr.SpanPages(ph)
					if !ok {
						t.Errorf("%s %v q%d: phase %s missing", f.am.Name(), pred, qi, ph)
						return
					}
					if got != want {
						t.Errorf("%s %v q%d: phase %s = %d pages, stats say %d",
							f.am.Name(), pred, qi, ph, got, want)
					}
				}
				checkSpan(obs.PhaseIndexScan, res.Stats.IndexPages)
				checkSpan(obs.PhaseOIDMap, res.Stats.OIDPages)
				checkSpan(obs.PhaseResolve, res.Stats.ObjectFetches)
				if tr.TotalPages() != res.Stats.TotalPages() {
					t.Errorf("%s %v q%d: trace total %d != stats total %d",
						f.am.Name(), pred, qi, tr.TotalPages(), res.Stats.TotalPages())
				}
			}
		}
	}
}

// TestTraceContextSink checks the other delivery route: a sink riding the
// context reaches the facility with no explicit WithTrace option, and an
// untraced SearchContext emits nothing.
func TestTraceContextSink(t *testing.T) {
	fixtures := newFixtures(t, 60, 4, 30, 73)
	am := fixtures[0].am
	var collector obs.Collector
	ctx := obs.ContextWithSink(context.Background(), &collector)
	if _, err := am.SearchContext(ctx, signature.Superset, []string{"elem-00001"}); err != nil {
		t.Fatal(err)
	}
	if len(collector.Traces()) != 1 {
		t.Fatalf("context sink got %d traces, want 1", len(collector.Traces()))
	}
	if _, err := am.SearchContext(context.Background(), signature.Superset, []string{"elem-00001"}); err != nil {
		t.Fatal(err)
	}
	if len(collector.Traces()) != 1 {
		t.Error("untraced search leaked a trace into an unrelated collector")
	}
}

// TestSearchContextPreCanceled: a canceled context fails fast at the
// first page read or candidate fetch with ctx.Err(), for every facility,
// and the facility answers the identical search correctly immediately
// afterwards (no corrupted state).
func TestSearchContextPreCanceled(t *testing.T) {
	const n, dt, v = 200, 5, 40
	fixtures := allFixtures(t, n, dt, v, 81)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	query := []string{"elem-00001", "elem-00002"}
	for _, f := range fixtures {
		for _, pred := range allPredicates {
			_, err := f.am.SearchContext(ctx, pred, query)
			if !errors.Is(err, context.Canceled) {
				t.Errorf("%s %v: err = %v, want context.Canceled", f.am.Name(), pred, err)
			}
			// The same search on a live context must still be exact.
			res, err := f.am.SearchContext(context.Background(), pred, query)
			if err != nil {
				t.Fatalf("%s %v after cancel: %v", f.am.Name(), pred, err)
			}
			if want := bruteForce(f.sets, pred, query); !sameOIDs(want, res.OIDs) {
				t.Errorf("%s %v after cancel: got %v want %v", f.am.Name(), pred, res.OIDs, want)
			}
		}
	}
}

// cancelSource is a SetSource that fires a context cancellation after a
// fixed number of resolutions — cancellation arrives mid-search, during
// the false-drop-resolution phase.
type cancelSource struct {
	src    SetSource
	cancel context.CancelFunc
	left   atomic.Int32
}

func (c *cancelSource) Set(oid uint64) ([]string, error) {
	if c.left.Add(-1) == 0 {
		c.cancel()
	}
	return c.src.Set(oid)
}

// TestSearchContextCancelMidSearch: cancellation during resolution stops
// the search with ctx.Err() and leaves the facility consistent.
func TestSearchContextCancelMidSearch(t *testing.T) {
	const n, dt, v = 200, 5, 30
	base := newFixtures(t, n, dt, v, 91)
	sets := base[0].sets
	src := &cancelSource{src: MapSource(sets)}
	scheme := signature.MustNew(120, 3)

	builders := []struct {
		name string
		make func() (AccessMethod, error)
	}{
		{"SSF", func() (AccessMethod, error) { return NewSSF(scheme, src, nil) }},
		{"BSSF", func() (AccessMethod, error) { return NewBSSF(scheme, src, nil) }},
		{"NIX", func() (AccessMethod, error) { return NewNIX(src, nil) }},
		{"FSSF", func() (AccessMethod, error) {
			fs, err := signature.NewFrameScheme(16, 8, 3)
			if err != nil {
				return nil, err
			}
			return NewFSSF(fs, src, nil)
		}},
	}
	// Overlap on a 2-element query drops many candidates, so resolution
	// has plenty of Set calls for the trigger to land inside.
	query := []string{"elem-00001", "elem-00002"}
	for _, b := range builders {
		am, err := b.make()
		if err != nil {
			t.Fatal(err)
		}
		for oid := uint64(1); oid <= uint64(n); oid++ {
			if err := am.Insert(oid, sets[oid]); err != nil {
				t.Fatalf("%s insert %d: %v", b.name, oid, err)
			}
		}
		ctx, cancel := context.WithCancel(context.Background())
		src.cancel = cancel
		src.left.Store(3)
		_, err = am.SearchContext(ctx, signature.Overlap, query)
		cancel()
		if !errors.Is(err, context.Canceled) {
			t.Errorf("%s mid-search cancel: err = %v, want context.Canceled", b.name, err)
		}
		// Disarm the trigger and re-run: exact answer, clean state.
		src.left.Store(-1 << 20)
		res, err := am.SearchContext(context.Background(), signature.Overlap, query)
		if err != nil {
			t.Fatalf("%s after mid-search cancel: %v", b.name, err)
		}
		if want := bruteForce(sets, signature.Overlap, query); !sameOIDs(want, res.OIDs) {
			t.Errorf("%s after mid-search cancel: got %v want %v", b.name, res.OIDs, want)
		}
	}
}

// TestSearchContextEquivalence: Search is SearchContext with a
// background context — identical OIDs and identical Stats for the same
// option list, for every facility and predicate, and the smart strategy
// never costs correctness.
func TestSearchContextEquivalence(t *testing.T) {
	const n, dt, v = 250, 5, 40
	fixtures := allFixtures(t, n, dt, v, 101)
	queries := randomQueries(fixtures[0].sets, v, 6, 6, 102)
	ctx := context.Background()
	for _, f := range fixtures {
		for _, pred := range allPredicates {
			for qi, q := range queries {
				want, err := f.am.Search(pred, q,
					WithMaxProbeElements(2), WithMaxZeroSlices(3))
				if err != nil {
					t.Fatalf("%s %v q%d search: %v", f.am.Name(), pred, qi, err)
				}
				got, err := f.am.SearchContext(ctx, pred, q,
					WithMaxProbeElements(2), WithMaxZeroSlices(3))
				if err != nil {
					t.Fatalf("%s %v q%d context: %v", f.am.Name(), pred, qi, err)
				}
				if !sameOIDs(want.OIDs, got.OIDs) || got.Stats != want.Stats {
					t.Errorf("%s %v q%d: SearchContext diverges from Search", f.am.Name(), pred, qi)
				}
				smartOpt, err := f.am.SearchContext(ctx, pred, q, WithSmartRetrieval())
				if err != nil {
					t.Fatalf("%s %v q%d smart option: %v", f.am.Name(), pred, qi, err)
				}
				// Smart retrieval must never cost correctness.
				if want := bruteForce(f.sets, pred, q); !sameOIDs(want, smartOpt.OIDs) {
					t.Errorf("%s %v q%d: smart retrieval wrong answer", f.am.Name(), pred, qi)
				}
			}
		}
	}
}

// TestInvalidPredicateSentinel: every facility reports an out-of-range
// predicate through the exported sentinel, matchable with errors.Is.
func TestInvalidPredicateSentinel(t *testing.T) {
	fixtures := allFixtures(t, 30, 4, 20, 111)
	for _, f := range fixtures {
		_, err := f.am.SearchContext(context.Background(), signature.Predicate(99), []string{"x"})
		if !errors.Is(err, signature.ErrInvalidPredicate) {
			t.Errorf("%s: err = %v, want ErrInvalidPredicate", f.am.Name(), err)
		}
	}
}

// TestTraceString pins the one-line EXPLAIN ANALYZE-style rendering shape
// the sigdb REPL prints.
func TestTraceString(t *testing.T) {
	fixtures := newFixtures(t, 60, 4, 30, 121)
	var collector obs.Collector
	_, err := fixtures[1].am.SearchContext(context.Background(), signature.Superset,
		[]string{"elem-00001"}, WithTrace(&collector))
	if err != nil {
		t.Fatal(err)
	}
	s := collector.Traces()[0].String()
	for _, want := range []string{"BSSF", "index-scan=", "oid-map=", "resolve=", "total="} {
		if !bytes.Contains([]byte(s), []byte(want)) {
			t.Errorf("trace string %q missing %q", s, want)
		}
	}
}
