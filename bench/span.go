package main

import (
	"encoding/json"
	"os"
	"sort"
)

// span is one timed interval recorded by the harness around a call into
// a layer. Times are ns since the trace began; Parent indexes the span
// that caused it (-1 for an operation's root); spans of one operation
// share Op.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start"`
	End    int64  `json:"end"`
	Parent int    `json:"parent"`
	Op     int64  `json:"op"`
}

// selfTimes returns, for every span, its duration minus the part of its
// interval that its direct children cover. Overlapping children (a
// parallel fan-out) are counted once, and a child is clipped to its
// parent.
func selfTimes(spans []span) []int64 {
	children := make(map[int][]int, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		kids := children[i]
		sort.Slice(kids, func(a, b int) bool { return spans[kids[a]].Start < spans[kids[b]].Start })
		covered, reach := int64(0), s.Start
		for _, k := range kids {
			lo, hi := spans[k].Start, spans[k].End
			if lo < reach {
				lo = reach
			}
			if hi > s.End {
				hi = s.End
			}
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		self[i] = (s.End - s.Start) - covered
	}
	return self
}

// traceFile is what a traced run leaves in bench/out/<workload>.trace.json.
type traceFile struct {
	Env      map[string]any     `json:"env"`
	Note     string             `json:"note"`
	Layers   map[string]float64 `json:"layers"`
	Spans    []span             `json:"spans"`
	SelfNS   []int64            `json:"self_ns"`
	SpanOps  int                `json:"span_ops"`
	TotalOps int64              `json:"total_ops"`
}

func writeTrace(path string, tf *traceFile) error {
	data, err := json.Marshal(tf)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
