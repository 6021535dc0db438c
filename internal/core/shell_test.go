package core

import (
	"context"
	"errors"
	"testing"

	"sigfile/internal/obs"
	"sigfile/internal/pagestore"
	"sigfile/internal/signature"
)

// TestShellContract runs the shell's search contract over every facility
// kind and every composition: what the shell owns must hold at any
// depth. An invalid predicate is reported through the sentinel, a
// canceled context through ctx.Err(), and one logical search is exactly
// one trace — whose spans sum to the SearchStats term by term — and
// exactly one sigfile_searches_total observation, however many segments
// and shards served it.
func TestShellContract(t *testing.T) {
	eachFacility(t, func(t *testing.T, am AccessMethod, _ *pagestore.FaultStore) {
		ctx := context.Background()
		searches := obs.Default().Counter("sigfile_searches_total", "facility", am.Name())

		if _, err := am.SearchContext(ctx, signature.Predicate(99), []string{"x"}); !errors.Is(err, signature.ErrInvalidPredicate) {
			t.Errorf("invalid predicate: err = %v, want ErrInvalidPredicate", err)
		}

		canceled, cancel := context.WithCancel(ctx)
		cancel()
		before := searches.Value()
		_, err := am.SearchContext(canceled, signature.Superset, []string{"common"})
		if !errors.Is(err, canceled.Err()) {
			t.Errorf("pre-canceled: err = %v, want %v", err, canceled.Err())
		}
		if got := searches.Value() - before; got != 1 {
			t.Errorf("pre-canceled: %d sigfile_searches_total observations, want 1", got)
		}

		for _, pred := range allPredicates {
			for _, smart := range []bool{false, true} {
				var opts []SearchOption
				if smart {
					opts = append(opts, WithSmartRetrieval())
				}
				var collector obs.Collector
				before := searches.Value()
				res, err := am.SearchContext(ctx, pred, []string{"alpha", "common"}, append(opts, WithTrace(&collector))...)
				if err != nil {
					t.Fatalf("%v smart=%v: %v", pred, smart, err)
				}
				if got := searches.Value() - before; got != 1 {
					t.Errorf("%v smart=%v: %d sigfile_searches_total observations, want 1", pred, smart, got)
				}
				if want := bruteForce(healthSource, pred, []string{"alpha", "common"}); !sameOIDs(want, res.OIDs) {
					t.Errorf("%v smart=%v: got %v want %v", pred, smart, res.OIDs, want)
				}
				traces := collector.Traces()
				if len(traces) != 1 {
					t.Fatalf("%v smart=%v: %d traces emitted, want 1", pred, smart, len(traces))
				}
				tr := traces[0]
				if tr.Facility != am.Name() || tr.Predicate != pred.String() {
					t.Errorf("%v smart=%v: trace labeled %s %s", pred, smart, tr.Facility, tr.Predicate)
				}
				for ph, want := range map[obs.Phase]int64{
					obs.PhaseIndexScan: res.Stats.IndexPages,
					obs.PhaseOIDMap:    res.Stats.OIDPages,
					obs.PhaseResolve:   res.Stats.ObjectFetches,
				} {
					if got, ok := tr.SpanPages(ph); !ok || got != want {
						t.Errorf("%v smart=%v: phase %s = %d pages (present %v), stats say %d", pred, smart, ph, got, ok, want)
					}
				}
				if tr.TotalPages() != res.Stats.TotalPages() {
					t.Errorf("%v smart=%v: trace total %d != stats total %d", pred, smart, tr.TotalPages(), res.Stats.TotalPages())
				}
			}
		}
	})
}

// TestSmartCaps pins the caps WithSmartRetrieval resolves to per facility
// kind: the one rule every composition depth shares.
func TestSmartCaps(t *testing.T) {
	sink := &obs.Collector{}
	smart := SearchOptions{Smart: true, Trace: sink}
	cases := []struct {
		name  string
		kind  Kind
		m, n  int
		opts  SearchOptions
		wantK int
		wantZ int
	}{
		{"BSSF paper design", KindBSSF, 2, 8000, smart, 7, 13},
		{"BSSF empty", KindBSSF, 2, 0, smart, 1, 1},
		{"FSSF probes only", KindFSSF, 3, 1000, smart, 4, 0},
		{"NIX probes one element", KindNIX, 0, 8000, smart, 1, 0},
		{"SSF ignores smart", KindSSF, 2, 8000, smart, 0, 0},
		{"explicit probe cap wins", KindBSSF, 2, 8000, SearchOptions{Smart: true, MaxProbeElements: 2}, 2, 13},
		{"explicit zero-slice cap wins", KindBSSF, 2, 8000, SearchOptions{Smart: true, MaxZeroSlices: 40}, 7, 40},
		{"not smart: untouched", KindBSSF, 2, 8000, SearchOptions{MaxProbeElements: 5}, 5, 0},
	}
	for _, c := range cases {
		got := smartCaps(c.kind, c.m, c.n, c.opts)
		if got.MaxProbeElements != c.wantK || got.MaxZeroSlices != c.wantZ {
			t.Errorf("%s: k=%d z=%d, want k=%d z=%d", c.name, got.MaxProbeElements, got.MaxZeroSlices, c.wantK, c.wantZ)
		}
		if got.Smart {
			t.Errorf("%s: Smart still set after resolution", c.name)
		}
		if got.Trace != c.opts.Trace {
			t.Errorf("%s: Trace changed to %v", c.name, got.Trace)
		}
	}
}
