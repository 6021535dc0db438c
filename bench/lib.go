package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"sigfile"
)

// The in-process workloads: one goroutine, closed loop, a facility opened
// through the library facade on a checkpointed DurableStore. N is a
// quarter of the paper's 32000 so that building the nested index three
// times fits a run; V shrinks with it, so postings per element, pages
// per slice (one) and therefore pages per search are the paper's.
const (
	libN       = 8000
	libInserts = 3000 // acknowledged inserts timed after the read window: 2 s of them, because the disk has slow seconds
	streamLen  = 4096
	pageSize   = 4096
)

type libEnv struct {
	dir  string
	ds   *sigfile.DurableStore
	idx  sigfile.AccessMethod
	src  *setSource
	inst *instance
	qs   []query
}

// close closes the store; its files go with the run's directory.
func (e *libEnv) close() { e.ds.Close() }

// buildLib is one complete set-up: generate the instance and the query
// stream, bulk-load the facility, checkpoint.
func buildLib(cfg *config, kind sigfile.Kind, tr *tracer) (*libEnv, error) {
	inst := genInstance(cfg.seed, libN)
	e := &libEnv{inst: inst, qs: genQueries(cfg.seed, inst, streamLen), src: &setSource{sets: inst.sets, tr: tr}}
	dir, err := os.MkdirTemp(cfg.runDir, "lib-")
	if err != nil {
		return nil, err
	}
	e.dir = dir
	if e.ds, err = sigfile.OpenDurableStore(filepath.Join(dir, "store")); err != nil {
		return nil, err
	}
	var store sigfile.Store = e.ds
	if tr != nil {
		store = &tracedStore{Store: e.ds, tr: tr}
	}
	scheme, err := sigfile.NewScheme(sigWidth, sigWeight)
	if err == nil {
		e.idx, err = sigfile.Open(sigfile.Config{Kind: kind, Scheme: scheme, Source: e.src}, sigfile.WithStore(store))
	}
	if err == nil {
		entries := make([]sigfile.Entry, len(inst.sets))
		for i, s := range inst.sets {
			entries[i] = sigfile.Entry{OID: uint64(i + 1), Elems: s}
		}
		err = sigfile.InsertAll(e.idx, entries)
	}
	if err == nil {
		err = e.ds.Checkpoint()
	}
	if err != nil {
		e.close()
		return nil, fmt.Errorf("build %v: %w", kind, err)
	}
	return e, nil
}

func predicateOf(op opKind) sigfile.Predicate {
	if op == opSubset {
		return sigfile.Subset
	}
	return sigfile.Superset
}

// search runs query q and gates its answer. It returns the call's start
// and duration; ok is false when the op failed.
func (e *libEnv) search(q query, rec *recorder, tr *tracer) (start time.Time, dur time.Duration, ok bool) {
	rec.attempted++
	traced := tr != nil && tr.on.Load()
	if traced {
		tr.begin(q.op, rec.attempted)
	}
	start = time.Now()
	res, err := e.idx.Search(predicateOf(q.op), q.elems)
	dur = time.Since(start)
	if traced {
		tr.end()
	}
	if err != nil {
		rec.fail("%v search: %v", q.op, err)
		return start, dur, false
	}
	if msg := checkResult(res.OIDs, uint64(q.planted+1)); msg != "" {
		rec.fail("%v search: %s", q.op, msg)
		return start, dur, false
	}
	return start, dur, true
}

// drive runs the closed loop for d, from stream position next on, and
// returns how long it ran and where it stopped.
func (e *libEnv) drive(d time.Duration, rec *recorder, tr *tracer, next int) (time.Duration, int) {
	begin := time.Now()
	until := begin.Add(d)
	for time.Now().Before(until) {
		q := e.qs[next%len(e.qs)]
		next++
		if start, dur, ok := e.search(q, rec, tr); ok {
			rec.ok(q.op, begin, start, dur)
		}
	}
	return time.Since(begin), next
}

// gate is the gate pass. lib_bssf and lib_nix run the same instance and
// stream for a seed, so agreeing with the one oracle is agreeing with
// each other.
func (e *libEnv) gate(rec *recorder) {
	gatePass(rec, e.qs, e.inst.sets, func(i int) uint64 { return uint64(i + 1) },
		func(q query) ([]uint64, int64, error) {
			res, err := e.idx.Search(predicateOf(q.op), q.elems)
			if err != nil {
				return nil, 0, err
			}
			return res.OIDs, res.Stats.TotalPages(), nil
		})
}

func scrapeSelf() (promSamples, error) {
	var buf bytes.Buffer
	if err := sigfile.WriteMetricsPrometheus(&buf); err != nil {
		return nil, err
	}
	return parseProm(&buf)
}

// insertPhase times libInserts acknowledged inserts — Insert plus the
// store's Commit, which is what makes one durable — and then reads each
// back: a ⊇ search for the inserted set itself must return its OID. (Not
// an equals search: on a BSSF that reads every zero slice, ≈ 480 pages,
// and reading a window's inserts back took longer than set-up.)
func (e *libEnv) insertPhase(cfg *config, rec *recorder, out *outcome) error {
	sets := genInserts(cfg.seed, e.inst, libInserts)
	settle()
	before, err := scrapeSelf()
	if err != nil {
		return err
	}
	begin := time.Now()
	first := len(e.src.sets)
	for _, set := range sets {
		e.src.sets = append(e.src.sets, set)
		oid := uint64(len(e.src.sets))
		rec.attempted++
		start := time.Now()
		err := e.idx.Insert(oid, set)
		if err == nil {
			err = e.ds.Commit()
		}
		dur := time.Since(start)
		if err != nil {
			rec.fail("insert OID %d: %v", oid, err)
			continue
		}
		rec.ok(opInsert, begin, start, dur)
	}
	rec.latencyMetrics(out.e2e, time.Since(begin), opInsert)
	after, err := scrapeSelf()
	if err != nil {
		return err
	}
	out.e2e["pages_written_per_insert"] = after.delta(before, "sigfile_pagestore_writes_total") / float64(len(sets))
	failedBefore := rec.failed
	for i, set := range sets {
		oid := uint64(first + i + 1)
		rec.attempted++
		res, err := e.idx.Search(sigfile.Superset, set)
		if err != nil {
			rec.fail("read back OID %d: %v", oid, err)
		} else if msg := checkResult(res.OIDs, oid); msg != "" {
			rec.fail("read back OID %d: %s", oid, msg)
		}
	}
	out.extras["acked_writes_checked"] = float64(len(sets))
	out.extras["acked_writes_lost"] = float64(rec.failed - failedBefore)
	return nil
}

func runLib(cfg *config, kind sigfile.Kind) (*outcome, error) {
	out := newOutcome()
	var tr *tracer
	if cfg.trace {
		tr = newTracer(keptOps)
	}
	var env *libEnv
	var setups []float64
	for len(setups) < cfg.setups() {
		if env != nil {
			env.close()
			env = nil
			runtime.GC() // so one set-up's garbage is not the next one's peak
		}
		settle()
		start := time.Now()
		var err error
		if env, err = buildLib(cfg, kind, tr); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	defer env.close()
	out.setups = setups
	out.e2e["setup_s"] = median(setups)
	out.e2e["stored_bytes_per_user_byte"] = float64(env.idx.StoragePages()) * pageSize / float64(env.inst.userBytes)

	windowGC()
	resetPeakRSS()
	rec := newRecorder()
	// The warm-up is the gate pass and then, for what is left of its time,
	// the stream from its middle. The window walks the stream from its
	// start, so its first searches are the same on every run.
	warmEnd := time.Now().Add(cfg.warmup())
	env.gate(rec)
	rec.pageMetrics(out.e2e)
	env.drive(time.Until(warmEnd), newRecorder(), nil, len(env.qs)/2)

	if cfg.trace {
		if err := traceLib(cfg, env, rec, tr, out); err != nil {
			return nil, err
		}
	} else {
		cpu0 := selfCPU()
		elapsed, _ := env.drive(cfg.window(), rec, nil, 0)
		cpu := selfCPU() - cpu0
		out.windowMetrics(rec, elapsed, cpu)
		var err error
		if out.e2e["peak_rss_mb"], err = peakRSSMiB(os.Getpid()); err != nil {
			return nil, err
		}
		if err := env.insertPhase(cfg, rec, out); err != nil {
			return nil, err
		}
	}
	out.absorb(rec)
	return out, nil
}

// traceSlices is how many equal stretches a traced run cuts its window
// into, untraced and traced in turn: whatever drifts over the window —
// the ramp-up at its start, the machine's speed — falls on both sides of
// trace.overhead_ratio alike.
const traceSlices = 10

// traceLib is the traced run's window.
func traceLib(cfg *config, env *libEnv, rec *recorder, tr *tracer, out *outcome) error {
	before, err := scrapeSelf()
	if err != nil {
		return err
	}
	var ops [2]int64
	var ran [2]time.Duration
	next := 0
	for i := 0; i < traceSlices; i++ {
		traced := i % 2
		tr.on.Store(traced == 1)
		slice := newRecorder()
		var d time.Duration
		d, next = env.drive(cfg.window()/traceSlices, slice, tr, next)
		ops[traced] += slice.ops()
		ran[traced] += d
		rec.merge(slice)
	}
	tr.on.Store(false)
	after, err := scrapeSelf()
	if err != nil {
		return err
	}
	out.traceMetrics(tr, float64(ops[1])/ran[1].Seconds(), float64(ops[0])/ran[0].Seconds())
	out.registryMetrics(before, after)
	return nil
}
