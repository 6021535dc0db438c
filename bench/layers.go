package main

import (
	"fmt"
)

// absorb adds another goroutine's aggregates (not its raw spans).
func (t *tracer) absorb(o *tracer) {
	for op := range t.agg {
		t.agg[op].ops += o.agg[op].ops
		t.agg[op].spanNS += o.agg[op].spanNS
		for name, c := range o.agg[op].children {
			mine := t.agg[op].children[name]
			if mine == nil {
				mine = &childAgg{}
				t.agg[op].children[name] = mine
			}
			mine.ns += c.ns
			mine.count += c.count
		}
	}
}

// traceMetrics turns the tracer's aggregates into the per-operation
// attribution: the operation's span, what its child spans cover, and the
// self time left. In-process the children are the page reads and the
// SetSource calls, so self time is the facility's own work (hashing,
// bitset folds, merging, the search shell); over the wire the child is
// the server's engine time, so self time is transport, codec and
// dispatch on both sides.
func (o *outcome) traceMetrics(tr *tracer, tracedRate, plainRate float64) {
	o.trace = tr
	for _, op := range []opKind{opSuperset, opSubset} {
		a := tr.agg[op]
		if a.ops == 0 {
			continue
		}
		n := float64(a.ops)
		var childNS, childN int64
		for name, c := range a.children {
			childNS += c.ns
			childN += c.count
			o.extras[fmt.Sprintf("trace.%s.%s_us", op, name)] = float64(c.ns) / n / 1e3
			o.extras[fmt.Sprintf("trace.%s.%s_calls", op, name)] = float64(c.count) / n
		}
		p := "trace." + op.String()
		o.layers[p+".span_us"] = float64(a.spanNS) / n / 1e3
		o.layers[p+".children_us"] = float64(childNS) / n / 1e3
		o.layers[p+".self_us"] = float64(a.spanNS-childNS) / n / 1e3
		o.layers[p+".child_spans"] = float64(childN) / n
	}
	o.layers["trace.ops_per_s"] = tracedRate
	o.layers["trace.overhead_ratio"] = tracedRate / plainRate
}

// registryMetrics reads the layers' own counters — the program's metrics
// registry, scraped before and after the window — which every workload
// has: facility search time and pages, page reads, B⁺-tree lookups.
func (o *outcome) registryMetrics(before, after promSamples) {
	searches := after.delta(before, "sigfile_search_duration_ms_count")
	if searches == 0 {
		return
	}
	o.layers["core.search_us_mean"] = after.delta(before, "sigfile_search_duration_ms_sum") * 1e3 / searches
	o.layers["core.pages_per_search"] = after.delta(before, "sigfile_search_pages_sum") / searches
	o.layers["pagestore.reads_per_search"] = after.delta(before, "sigfile_pagestore_reads_total") / searches
	o.layers["btree.lookups_per_search"] = after.delta(before, "sigfile_btree_lookups_total") / searches
}

// servedLayers adds what only a daemon has: its request and query
// histograms, and the part of a round trip that nothing accounts for.
func (o *outcome) servedLayers(before, after promSamples, r *recorder) {
	mean := func(family string) float64 {
		n := after.delta(before, family+"_count")
		if n == 0 {
			return 0
		}
		return after.delta(before, family+"_sum") * 1e3 / n
	}
	request, query := mean("sigfile_server_request_ms"), mean("sigfile_query_duration_ms")
	o.extras["server.request_us_mean"] = request
	o.extras["query.duration_us_mean"] = query
	if len(r.samples[opInsert]) == 0 {
		// The request histogram has no operation label: with inserts in
		// the window it is not the searches' request time.
		o.extras["server.dispatch_self_us"] = request - query
	}
	o.extras["query.engine_self_us"] = query - o.layers["core.search_us_mean"]
	if n := after.delta(before, "sigfile_search_duration_ms_count"); n > 0 {
		o.extras["oodb.gets_per_search"] = after.delta(before, "sigfile_oodb_gets_total") / n
	}
	o.extras["server.checkpoints"] = after.delta(before, "sigfile_server_checkpoints_total")
	o.extras["server.overloaded_total"] = after.delta(before, "sigfile_server_overloaded_total")
	var rttNS, n int64
	for op := range r.samples {
		for _, s := range r.samples[op] {
			rttNS += s.dur
			n++
		}
	}
	if n > 0 {
		o.extras["client.rtt_us_mean"] = float64(rttNS) / float64(n) / 1e3
		o.extras["served.outside_server_us"] = o.extras["client.rtt_us_mean"] - request
	}
}

// traceFile packages the raw spans that were kept, with their self
// times, and checks the arithmetic on them: for the sequential spans
// recorded here a parent's span must equal its self time plus its
// children's durations, to the nanosecond.
func (o *outcome) traceFile(env map[string]any) *traceFile {
	tf := &traceFile{
		Env:    env,
		Note:   "times are ns since the trace began; spans of one operation share op; self_ns[i] belongs to spans[i]",
		Layers: map[string]float64{},
	}
	for k, v := range o.layers {
		tf.Layers[k] = v
	}
	for k, v := range o.extras {
		tf.Layers[k] = v
	}
	if o.trace == nil {
		return tf
	}
	tf.Spans = o.trace.spans
	tf.SelfNS = selfTimes(tf.Spans)
	childSum := map[int]int64{}
	for _, s := range tf.Spans {
		if s.Parent >= 0 {
			childSum[s.Parent] += s.End - s.Start
		}
	}
	for i, s := range tf.Spans {
		if s.Parent < 0 {
			tf.SpanOps++
			if tf.SelfNS[i]+childSum[i] != s.End-s.Start {
				o.failed++
				o.failures = append(o.failures, fmt.Sprintf("trace: op %d: self %d + children %d ≠ span %d", s.Op, tf.SelfNS[i], childSum[i], s.End-s.Start))
			}
		}
	}
	for op := range o.trace.agg {
		tf.TotalOps += o.trace.agg[op].ops
	}
	return tf
}
