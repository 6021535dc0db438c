package main

import (
	"fmt"
	"sync/atomic"
	"time"

	"sigfile/internal/pagestore"
)

// tracer records the harness's spans. The in-process workloads drive the
// facility from one goroutine with the default (sequential) search
// options, so the tracer needs no lock: a child span always belongs to
// the operation that is open.
type tracer struct {
	on    atomic.Bool // read by the mixed workload's inserter while the main goroutine sets it
	epoch time.Time

	// The open operation.
	op       opKind
	opID     int64
	opStart  int64
	root     int // index of the open root span in spans, -1 when not kept
	children map[string]*childAgg

	// Per operation type, summed over every traced operation.
	agg [numOps]opAgg

	// Raw spans are kept for the first keepOps operations of each type
	// only: a 15 s window makes millions of page reads.
	keepOps int
	kept    [numOps]int
	spans   []span
}

type childAgg struct {
	ns    int64
	count int64
}

type opAgg struct {
	ops      int64
	spanNS   int64
	children map[string]*childAgg
}

func newTracer(keepOps int) *tracer {
	t := &tracer{epoch: time.Now(), keepOps: keepOps, root: -1}
	for i := range t.agg {
		t.agg[i].children = map[string]*childAgg{}
	}
	return t
}

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

func (t *tracer) begin(op opKind, id int64) {
	t.op, t.opID, t.root = op, id, -1
	t.children = t.agg[op].children
	if t.kept[op] < t.keepOps {
		t.kept[op]++
		t.root = len(t.spans)
		t.spans = append(t.spans, span{Name: "op." + op.String(), Parent: -1, Op: id})
	}
	t.opStart = t.now()
}

func (t *tracer) end() {
	end := t.now()
	a := &t.agg[t.op]
	a.ops++
	a.spanNS += end - t.opStart
	if t.root >= 0 {
		t.spans[t.root].Start, t.spans[t.root].End = t.opStart, end
	}
}

// child records one call into a layer made on behalf of the open
// operation.
func (t *tracer) child(name string, start, end int64) {
	c := t.children[name]
	if c == nil {
		c = &childAgg{}
		t.children[name] = c
	}
	c.ns += end - start
	c.count++
	if t.root >= 0 {
		t.spans = append(t.spans, span{Name: name, Start: start, End: end, Parent: t.root, Op: t.opID})
	}
}

// tracedStore decorates the pagestore.Store seam: every page read or
// write a facility makes through it becomes a child span.
type tracedStore struct {
	pagestore.Store
	tr *tracer
}

func (s *tracedStore) Open(name string) (pagestore.File, error) {
	f, err := s.Store.Open(name)
	if err != nil {
		return nil, err
	}
	return &tracedFile{File: f, tr: s.tr}, nil
}

type tracedFile struct {
	pagestore.File
	tr *tracer
}

func (f *tracedFile) ReadPage(id pagestore.PageID, buf []byte) error {
	if !f.tr.on.Load() {
		return f.File.ReadPage(id, buf)
	}
	start := f.tr.now()
	err := f.File.ReadPage(id, buf)
	f.tr.child("pagestore.read", start, f.tr.now())
	return err
}

func (f *tracedFile) WritePage(id pagestore.PageID, buf []byte) error {
	if !f.tr.on.Load() {
		return f.File.WritePage(id, buf)
	}
	start := f.tr.now()
	err := f.File.WritePage(id, buf)
	f.tr.child("pagestore.write", start, f.tr.now())
	return err
}

// setSource resolves OIDs against the generated instance: OID i+1 is
// object i. With a tracer attached it is the SetSource seam's decorator.
type setSource struct {
	sets [][]string
	tr   *tracer
}

func (s *setSource) Set(oid uint64) ([]string, error) {
	if oid < 1 || oid > uint64(len(s.sets)) {
		return nil, fmt.Errorf("bench: OID %d is not in the instance", oid)
	}
	if s.tr == nil || !s.tr.on.Load() {
		return s.sets[oid-1], nil
	}
	start := s.tr.now()
	set := s.sets[oid-1]
	s.tr.child("source.set", start, s.tr.now())
	return set, nil
}
