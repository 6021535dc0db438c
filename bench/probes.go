package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"sigfile"
	api "sigfile/api/v1"
	"sigfile/internal/bitset"
	"sigfile/internal/btree"
	"sigfile/internal/oodb"
	"sigfile/internal/pagestore"
	"sigfile/internal/planner"
	"sigfile/internal/signature"
)

// This file holds every call the benchmark makes into a package under
// internal/ other than the pagestore seam: the standalone layer probes.
// They time one public function of one layer on a fixed input of the
// in-process workloads' size, the same in every workload's traced run,
// so a layer's number can be set beside the end-to-end one it feeds.

// sink keeps the compiler from dropping a probed call.
var sink any

// nsPerCall times fn: it finds a batch size that runs for about 2 ms,
// times nine batches and returns the median ns per call.
func nsPerCall(fn func()) float64 {
	n := 1
	for {
		start := time.Now()
		for i := 0; i < n; i++ {
			fn()
		}
		if d := time.Since(start); d >= 2*time.Millisecond || n >= 1<<20 {
			break
		}
		n *= 2
	}
	per := make([]float64, 9)
	for b := range per {
		start := time.Now()
		for i := 0; i < n; i++ {
			fn()
		}
		per[b] = float64(time.Since(start)) / float64(n)
	}
	return median(per)
}

func must(err error) {
	if err != nil {
		panic(probeError{err})
	}
}

// probeError carries a probe's failure out through must; layerProbes
// turns it back into an error.
type probeError struct{ err error }

// layerProbes runs the standalone probes and the facility matrix and
// adds their numbers to out.layers.
func layerProbes(cfg *config, out *outcome) (err error) {
	defer func() {
		if r := recover(); r != nil {
			pe, ok := r.(probeError)
			if !ok {
				panic(r)
			}
			err = fmt.Errorf("layer probe: %w", pe.err)
		}
	}()
	rng := rand.New(rand.NewSource(cfg.seed))
	inst := genInstance(cfg.seed, libN)
	qs := genQueries(cfg.seed, inst, 256)
	L := out.layers

	probeBitset(L, rng)
	probeSignature(L, qs)
	probePagestore(cfg, L)
	probeBtree(L, inst)
	probeOODB(L, inst)
	probeAPI(L, qs)
	descs := facilityMatrix(L, inst, qs)
	probePlanner(L, inst, descs)
	return probeTransport(cfg, L)
}

func randomBits(rng *rand.Rand, nbits int) *bitset.BitSet {
	b := bitset.New(nbits)
	for i := 0; i < nbits; i++ {
		if rng.Intn(2) == 0 {
			b.Set(i)
		}
	}
	return b
}

// probeBitset: the folds a BSSF search does — AND of the m·Dq ≈ 6 one
// slices of a ⊇ query, OR of the ≈ 338 zero slices of a ⊆ query — over
// slices of libN bits, and decoding one slice page.
func probeBitset(L map[string]float64, rng *rand.Rand) {
	srcs := make([]*bitset.BitSet, 338)
	for i := range srcs {
		srcs[i] = randomBits(rng, libN)
	}
	dst := bitset.New(libN)
	L["bitset.and_fold_ns"] = nsPerCall(func() { dst.Fill(); bitset.AndAll(dst, srcs[:6], 1) })
	L["bitset.or_fold_ns"] = nsPerCall(func() { dst.Reset(); bitset.OrAll(dst, srcs, 1) })
	page := make([]byte, pageSize)
	rng.Read(page)
	slice := bitset.New(pageSize * 8)
	L["bitset.load_page_ns"] = nsPerCall(func() { must(slice.LoadBinary(page)) })
}

func probeSignature(L map[string]float64, qs []query) {
	scheme, err := signature.New(sigWidth, sigWeight)
	must(err)
	i := 0
	L["signature.set_sig_dq3_ns"] = nsPerCall(func() { sink = scheme.SetSignatureStrings(qs[i%len(qs)&^1].elems); i += 2 })
	L["signature.set_sig_dq100_ns"] = nsPerCall(func() { sink = scheme.SetSignatureStrings(qs[i%len(qs)|1].elems); i += 2 })
}

// probePagestore: one page read from each store the product has, the
// durable one after a checkpoint (so the read goes to the page file and
// verifies its checksum), and one durable page write with its commit.
func probePagestore(cfg *config, L map[string]float64) {
	const pages = 64
	page := make([]byte, pageSize)
	fill := func(f pagestore.File) {
		for i := 0; i < pages; i++ {
			id, err := f.Allocate()
			must(err)
			page[0] = byte(i)
			must(f.WritePage(id, page))
		}
	}
	readLoop := func(f pagestore.File) float64 {
		i := 0
		return nsPerCall(func() { must(f.ReadPage(pagestore.PageID(i%pages), page)); i++ })
	}

	mem := sigfile.NewMemStore()
	f, err := mem.Open("probe")
	must(err)
	fill(f)
	L["pagestore.mem_read_ns"] = readLoop(f)
	must(mem.Close())

	disk, err := sigfile.NewDiskStore(filepath.Join(cfg.runDir, "probe-disk"))
	must(err)
	f, err = disk.Open("probe")
	must(err)
	fill(f)
	must(f.Sync())
	L["pagestore.disk_read_ns"] = readLoop(f)
	must(disk.Close())

	dir := filepath.Join(cfg.runDir, "probe-durable")
	ds, err := sigfile.OpenDurableStore(dir)
	must(err)
	f, err = ds.Open("probe")
	must(err)
	fill(f)
	must(ds.Checkpoint())
	L["pagestore.durable_read_ns"] = readLoop(f)

	const writes = 200
	size0, err := dirBytes(dir)
	must(err)
	durs := make([]float64, writes)
	for i := range durs {
		page[1] = byte(i)
		start := time.Now()
		must(f.WritePage(pagestore.PageID(i%pages), page))
		must(ds.Commit())
		durs[i] = float64(time.Since(start)) / 1e3
	}
	size1, err := dirBytes(dir)
	must(err)
	L["pagestore.durable_write_commit_us"] = median(durs)
	// Overwriting pages in place leaves the page files' sizes alone, so
	// the directory grew by what the write-ahead log took.
	L["pagestore.wal_bytes_per_page_write"] = float64(size1-size0) / writes
	must(ds.Close())
}

// probeBtree: the nested index's tree in memory, loaded with a quarter of
// the in-process instance's postings; the load is the insert measurement.
func probeBtree(L map[string]float64, inst *instance) {
	tree, err := btree.New(pagestore.NewMemFile())
	must(err)
	sets := inst.sets[:len(inst.sets)/4]
	start := time.Now()
	n := 0
	for i, set := range sets {
		for _, e := range set {
			must(tree.Insert([]byte(e), uint64(i+1)))
			n++
		}
	}
	L["btree.insert_ns"] = float64(time.Since(start)) / float64(n)
	var pages, lookups int64
	i := 0
	L["btree.lookup_ns"] = nsPerCall(func() {
		oids, p, err := tree.LookupPages([]byte(sets[i%len(sets)][0]))
		must(err)
		sink = oids
		pages += p
		lookups++
		i++
	})
	L["btree.lookup_pages"] = float64(pages) / float64(lookups)
}

// probeOODB: the object store the daemon resolves candidates against.
func probeOODB(L map[string]float64, inst *instance) {
	store, err := oodb.NewObjectStore(pagestore.NewMemFile())
	must(err)
	sets := inst.sets[:len(inst.sets)/4]
	start := time.Now()
	for i, set := range sets {
		must(store.Put(&oodb.Object{OID: oodb.OID(i + 1), Class: "Item", Attrs: map[string]oodb.Value{"elems": oodb.StringSet(set...)}}))
	}
	L["oodb.put_ns"] = float64(time.Since(start)) / float64(len(sets))
	i := 0
	L["oodb.get_ns"] = nsPerCall(func() {
		o, err := store.Get(oodb.OID(i%len(sets) + 1))
		must(err)
		sink = o
		i++
	})
}

// probeAPI: both codecs on the request and response of a ⊆ search — a
// 100-element query, a 10-OID answer — and the binary framing on a
// buffer.
func probeAPI(L map[string]float64, qs []query) {
	req := &api.SearchRequest{Pred: api.PredSubset, Query: qs[1].elems}
	resp := &api.SearchResponse{
		OIDs:      []uint64{3, 17, 170, 1700, 17000, 170000, 170001, 170002, 170003, 170004},
		Plan:      "index(BSSF Item.elems T ⊆ Q) smart[z=117]",
		Stats:     &api.SearchStats{QueryCardinality: 100, SlicesRead: 117, IndexPages: 117, OIDPages: 4, ObjectFetches: 30, Candidates: 30, Results: 10, FalseDrops: 20, TotalPages: 151},
		ElapsedUS: 812,
	}
	L["api.json_enc_search_req_ns"] = nsPerCall(func() {
		data, err := json.Marshal(req)
		must(err)
		sink = data
	})
	jsonResp, err := json.Marshal(resp)
	must(err)
	L["api.json_dec_search_resp_ns"] = nsPerCall(func() {
		var out api.SearchResponse
		must(json.Unmarshal(jsonResp, &out))
		sink = &out
	})
	L["api.bin_enc_search_req_ns"] = nsPerCall(func() { sink = api.EncodeSearchRequest(tenantName, req) })
	binResp := api.EncodeSearchResponse(resp)
	L["api.bin_dec_search_resp_ns"] = nsPerCall(func() {
		out, err := api.DecodeSearchResponse(binResp)
		must(err)
		sink = out
	})
	payload := api.EncodeSearchRequest(tenantName, req)
	var buf bytes.Buffer
	L["api.frame_roundtrip_ns"] = nsPerCall(func() {
		buf.Reset()
		must(api.WriteFrame(&buf, payload))
		got, err := api.ReadFrame(&buf)
		must(err)
		sink = got
	})
}

var matrixKinds = []struct {
	name string
	kind sigfile.Kind
}{{"ssf", sigfile.KindSSF}, {"bssf", sigfile.KindBSSF}, {"fssf", sigfile.KindFSSF}, {"nix", sigfile.KindNIX}}

// openLoaded opens a facility in memory and bulk-loads the instance.
func openLoaded(kind sigfile.Kind, inst *instance, src *setSource, opts ...sigfile.OpenOption) sigfile.AccessMethod {
	scheme, err := sigfile.NewScheme(sigWidth, sigWeight)
	must(err)
	idx, err := sigfile.Open(sigfile.Config{Kind: kind, Scheme: scheme, Source: src}, opts...)
	must(err)
	entries := make([]sigfile.Entry, len(inst.sets))
	for i, s := range inst.sets {
		entries[i] = sigfile.Entry{OID: uint64(i + 1), Elems: s}
	}
	must(sigfile.InsertAll(idx, entries))
	return idx
}

// searchCost is the mean cost of one search: time, pages, heap
// allocations and bytes, and results per candidate.
type searchCost struct{ ns, pages, allocs, bytes, useful float64 }

// timeSearches runs the stream's first 32 queries of one type against
// idx: one pass untimed, then five timed ones. The time is the median
// pass's; pages and allocation, which do not depend on the machine's
// mood, are the last pass's.
func timeSearches(idx sigfile.AccessMethod, qs []query, op opKind) searchCost {
	var picked []query
	for _, q := range qs {
		if q.op == op && len(picked) < 32 {
			picked = append(picked, q)
		}
	}
	n := float64(len(picked))
	var c searchCost
	var ns []float64
	for pass := 0; pass < 6; pass++ {
		var ms0, ms1 runtime.MemStats
		var totalPages, cands, results int64
		runtime.ReadMemStats(&ms0)
		start := time.Now()
		for _, q := range picked {
			res, err := idx.Search(predicateOf(op), q.elems)
			must(err)
			totalPages += res.Stats.TotalPages()
			cands += int64(res.Stats.Candidates)
			results += int64(res.Stats.Results)
		}
		elapsed := time.Since(start)
		runtime.ReadMemStats(&ms1)
		if pass == 0 {
			continue
		}
		ns = append(ns, float64(elapsed)/n)
		c = searchCost{
			pages:  float64(totalPages) / n,
			allocs: float64(ms1.Mallocs-ms0.Mallocs) / n,
			bytes:  float64(ms1.TotalAlloc-ms0.TotalAlloc) / n,
		}
		if cands > 0 {
			c.useful = float64(results) / float64(cands)
		}
	}
	c.ns = median(ns)
	return c
}

// timeInserts makes n single inserts and returns mean ns and, from the
// registry's page-write counter, mean pages written.
func timeInserts(idx sigfile.AccessMethod, inst *instance, src *setSource, n int) (ns, pages float64) {
	sets := genInserts(int64(len(src.sets)), inst, n)
	before, err := scrapeSelf()
	must(err)
	start := time.Now()
	for _, set := range sets {
		src.sets = append(src.sets, set)
		must(idx.Insert(uint64(len(src.sets)), set))
	}
	elapsed := time.Since(start)
	after, err := scrapeSelf()
	must(err)
	return float64(elapsed) / float64(n), after.delta(before, "sigfile_pagestore_writes_total") / float64(n)
}

// facilityMatrix measures every facility kind in memory on the
// in-process instance and stream: search cost by predicate in time,
// pages and allocation, and insert cost; then the log-structured and the
// sharded BSSF. It returns the BSSF's and the NIX's catalog snapshots for
// the planner probe.
func facilityMatrix(L map[string]float64, inst *instance, qs []query) []sigfile.FacilityStats {
	var descs []sigfile.FacilityStats
	for _, k := range matrixKinds {
		src := &setSource{sets: append([][]string(nil), inst.sets...)}
		idx := openLoaded(k.kind, inst, src)
		for _, op := range []opKind{opSuperset, opSubset} {
			p := fmt.Sprintf("core.%s.%s.", k.name, op)
			c := timeSearches(idx, qs, op)
			L[p+"ns_per_op"], L[p+"pages_per_op"], L[p+"allocs_per_op"], L[p+"bytes_per_op"] = c.ns, c.pages, c.allocs, c.bytes
			if k.kind == sigfile.KindBSSF {
				L[p+"results_per_candidate"] = c.useful
			}
		}
		if k.kind == sigfile.KindBSSF || k.kind == sigfile.KindNIX {
			descs = append(descs, idx.(sigfile.Describer).Describe())
		}
		p := "core." + k.name + ".insert."
		L[p+"ns_per_op"], L[p+"pages_per_op"] = timeInserts(idx, inst, src, 64)
	}

	src := &setSource{sets: append([][]string(nil), inst.sets...)}
	lsm := openLoaded(sigfile.KindBSSF, inst, src, sigfile.WithLSMMemtableSize(256), sigfile.WithLSMCompactAfter(4))
	// 1024 inserts cross four flushes and one compaction.
	L["core.lsm_bssf.insert.ns_per_op"], L["core.lsm_bssf.insert.pages_per_op"] = timeInserts(lsm, inst, src, 1024)
	L["core.lsm_bssf.superset.ns_per_op"] = timeSearches(lsm, qs, opSuperset).ns

	sharded := openLoaded(sigfile.KindBSSF, inst, &setSource{sets: inst.sets}, sigfile.WithShards(4))
	L["core.shard4_bssf.superset.ns_per_op"] = timeSearches(sharded, qs, opSuperset).ns
	L["core.shard4_bssf.subset.ns_per_op"] = timeSearches(sharded, qs, opSubset).ns
	return descs
}

// probePlanner: one cost-based choice between two facilities.
func probePlanner(L map[string]float64, inst *instance, descs []sigfile.FacilityStats) {
	p := planner.New()
	cat := planner.Catalog{N: len(inst.sets), Dt: setCard, V: inst.v}
	L["planner.plan_ns"] = nsPerCall(func() { sink = p.Plan(signature.Subset, subsetDq, cat, descs) })
}

// probeTransport: the cheapest round trip each protocol can make against
// a real daemon with no tenants — the floor under every request.
func probeTransport(cfg *config, L map[string]float64) error {
	dir := filepath.Join(cfg.runDir, "probe-daemon")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	d, err := startDaemon(cfg, dir)
	if err != nil {
		return err
	}
	defer d.kill()
	for _, p := range []struct {
		name   string
		binary bool
	}{{"transport.http_rtt_floor_us", false}, {"transport.bin_rtt_floor_us", true}} {
		c := d.dial(p.binary)
		durs := make([]float64, 0, 1000)
		for i := 0; i < 1100; i++ {
			start := time.Now()
			if _, err := c.Health(context.Background()); err != nil {
				c.Close()
				return fmt.Errorf("health round trip: %w", err)
			}
			if i >= 100 { // the first hundred open the connection and warm the path
				durs = append(durs, float64(time.Since(start))/1e3)
			}
		}
		c.Close()
		L[p.name] = median(durs)
	}
	return nil
}
