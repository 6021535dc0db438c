package main

import (
	"fmt"
	"sort"
	"time"
)

// recorder collects what one load-generating goroutine observed.
type recorder struct {
	samples   [numOps][]sample
	pages     [numOps]int64 // Σ Stats.TotalPages of the gate pass's verified searches
	paged     [numOps]int64 // how many searches pages sums
	attempted int64
	failed    int64
	failures  []string // the first few, for the report
}

func newRecorder() *recorder {
	r := &recorder{}
	for i := range r.samples {
		r.samples[i] = make([]sample, 0, 1<<16)
	}
	return r
}

func (r *recorder) fail(format string, args ...any) {
	r.failed++
	if len(r.failures) < 5 {
		r.failures = append(r.failures, fmt.Sprintf(format, args...))
	}
}

func (r *recorder) ok(op opKind, windowStart, start time.Time, dur time.Duration) {
	r.samples[op] = append(r.samples[op], sample{at: int64(start.Sub(windowStart)), dur: int64(dur)})
}

func (r *recorder) countPages(op opKind, pages int64) {
	r.paged[op]++
	r.pages[op] += pages
}

func (r *recorder) merge(o *recorder) {
	for i := range r.samples {
		r.samples[i] = append(r.samples[i], o.samples[i]...)
		r.pages[i] += o.pages[i]
		r.paged[i] += o.paged[i]
	}
	r.attempted += o.attempted
	r.failed += o.failed
	for _, f := range o.failures {
		if len(r.failures) < 5 {
			r.failures = append(r.failures, f)
		}
	}
}

func (r *recorder) ops() int64 {
	var n int64
	for i := range r.samples {
		n += int64(len(r.samples[i]))
	}
	return n
}

// checkResult is the per-search gate: the answer must be strictly
// ascending and hold the planted object.
func checkResult(oids []uint64, planted uint64) string {
	for i := 1; i < len(oids); i++ {
		if oids[i-1] >= oids[i] {
			return fmt.Sprintf("result not ascending at %d: %d then %d", i, oids[i-1], oids[i])
		}
	}
	i := sort.Search(len(oids), func(i int) bool { return oids[i] >= planted })
	if i == len(oids) || oids[i] != planted {
		return fmt.Sprintf("planted OID %d missing from %d results", planted, len(oids))
	}
	return ""
}

// checkOracle compares an answer with the brute-force one.
func checkOracle(oids []uint64, want []uint64) string {
	if len(oids) != len(want) {
		return fmt.Sprintf("oracle has %d results, program returned %d", len(want), len(oids))
	}
	for i := range want {
		if oids[i] != want[i] {
			return fmt.Sprintf("result %d is OID %d, oracle says %d", i, oids[i], want[i])
		}
	}
	return ""
}

// The gate pass runs before the window opens, on a quiescent program:
// the stream's first gateQueries queries of each type, one at a time.
// Every answer is checked, the first oracleSample of each type against
// the brute-force oracle, and the page-count metrics are the means over
// this pass — the same queries against the same state on every run of a
// seed, so they repeat exactly however fast the machine is and whatever
// the window's inserts do later.
const (
	gateQueries  = 256
	oracleSample = 32
)

// gatePass runs the gate pass over qs. search runs one query and returns
// its answer and Stats.TotalPages; oidOf maps an object's index in sets
// to the OID the program gave it.
func gatePass(rec *recorder, qs []query, sets [][]string, oidOf func(int) uint64, search func(query) ([]uint64, int64, error)) {
	for i, q := range qs[:2*gateQueries] {
		rec.attempted++
		oids, pages, err := search(q)
		if err != nil {
			rec.fail("gate %v search: %v", q.op, err)
			continue
		}
		var msg string
		if i < 2*oracleSample {
			idx := bruteForce(sets, q)
			want := make([]uint64, len(idx))
			for k, j := range idx {
				want[k] = oidOf(j)
			}
			sort.Slice(want, func(a, b int) bool { return want[a] < want[b] })
			msg = checkOracle(oids, want)
		} else {
			msg = checkResult(oids, oidOf(q.planted))
		}
		if msg != "" {
			rec.fail("gate %v search: %s", q.op, msg)
			continue
		}
		rec.countPages(q.op, pages)
	}
}

// pageMetrics are the paper's retrieval cost, from the gate pass.
func (r *recorder) pageMetrics(m map[string]float64) {
	for _, op := range []opKind{opSuperset, opSubset} {
		if r.paged[op] > 0 {
			m["pages_per_"+op.String()] = float64(r.pages[op]) / float64(r.paged[op])
		}
	}
}

// The tail percentile is the highest that leaves ten samples beyond it
// in a sub-window of the slowest workload: lib_nix makes some 400
// searches of a type in each fifth of a 15 s window, and the insert
// phases 200 inserts in each fifth; p95 leaves 20 and 10.
const (
	tailPercentile = 95
	tailParts      = 5
)

// latencyMetrics fills <op>_p50_us and <op>_p95_us, for each of ops, from
// the samples taken over a stretch of length window: the median of the
// whole stretch, and the median of the tails of its fifths.
func (r *recorder) latencyMetrics(m map[string]float64, window time.Duration, ops ...opKind) {
	for _, op := range ops {
		if len(r.samples[op]) == 0 {
			continue
		}
		m[op.String()+"_p50_us"] = float64(percentile(sortedDurs(r.samples[op]), 50)) / 1e3
		m[fmt.Sprintf("%v_p%d_us", op, tailPercentile)] = subWindowTail(r.samples[op], int64(window), tailParts, tailPercentile) / 1e3
	}
}
