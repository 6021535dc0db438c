// Command sigload drives load against a sigfiled server and reports
// QPS and latency percentiles in the shared benchfmt JSON schema, so
// BENCH_server.json reads like BENCH_lsm.json and BENCH_shard.json.
//
// Workload shape matches cmd/sigbench's throughput mode: sets of ~8
// elements drawn Zipf-ish from a 400-element universe, searches split
// between superset (3-element query) and overlap (2-element query), an
// I:S mix splitting workers between inserters and searchers.
//
//	sigload -addr http://127.0.0.1:8080 -tenants 2 -workers 8 \
//	        -duration 10s -mix 1:4 -name mixed_1i4s -json BENCH_server.json
//
// With -model FILE every acknowledged insert is appended to FILE as one
// JSON line {tenant, oid, elems} — written even when the run is aborted
// — and `sigload -verify -model FILE` re-queries each acknowledged OID
// with an equals search, exiting nonzero if any is missing. Running
// -model under load, SIGTERMing the server, restarting it, then
// -verify is the no-lost-committed-writes check scripts/bench_server.sh
// performs.
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"sort"
	"strings"
	"sync"
	"time"

	api "sigfile/api/v1"
	"sigfile/client"
	"sigfile/internal/benchfmt"
)

// Workload-shape constants, matching cmd/sigbench throughput mode so
// the reports stay comparable.
const (
	universe   = 400 // element universe size V
	setCard    = 8   // elements per inserted set (D_t)
	supersetDq = 3   // superset query cardinality
	overlapDq  = 2   // overlap query cardinality
)

func element(i int) string { return fmt.Sprintf("elem-%03d", i) }

// randomSet draws setCard distinct elements.
func randomSet(rng *rand.Rand) []string {
	seen := map[int]bool{}
	out := make([]string, 0, setCard)
	for len(out) < setCard {
		e := rng.Intn(universe)
		if !seen[e] {
			seen[e] = true
			out = append(out, element(e))
		}
	}
	return out
}

func randomQuery(rng *rand.Rand) (pred string, q []string) {
	if rng.Intn(2) == 0 {
		pred = api.PredSuperset
		q = make([]string, 0, supersetDq)
		for len(q) < supersetDq {
			q = append(q, element(rng.Intn(universe)))
		}
	} else {
		pred = api.PredOverlap
		q = make([]string, 0, overlapDq)
		for len(q) < overlapDq {
			q = append(q, element(rng.Intn(universe)))
		}
	}
	return pred, q
}

// ackedWrite is one durably acknowledged insert, as logged to -model.
type ackedWrite struct {
	Tenant string   `json:"tenant"`
	OID    uint64   `json:"oid"`
	Elems  []string `json:"elems"`
}

// modelLog appends acknowledged writes to a file, flushing each line so
// the log survives the harness killing this process or the server.
type modelLog struct {
	mu sync.Mutex
	f  *os.File
}

func openModelLog(path string) (*modelLog, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	return &modelLog{f: f}, nil
}

func (m *modelLog) record(w ackedWrite) {
	data, _ := json.Marshal(w)
	m.mu.Lock()
	defer m.mu.Unlock()
	m.f.Write(append(data, '\n'))
}

func (m *modelLog) close() { m.f.Close() }

func main() {
	var (
		addr     = flag.String("addr", "http://127.0.0.1:8080", "server base URL (HTTP API)")
		binAddr  = flag.String("binary-addr", "", "binary protocol address (required with -proto binary)")
		proto    = flag.String("proto", "http", "wire protocol to drive: http | binary")
		tenantsN = flag.Int("tenants", 2, "number of tenants to drive (created if missing)")
		workers  = flag.Int("workers", 8, "concurrent workers")
		duration = flag.Duration("duration", 10*time.Second, "measurement duration")
		mix      = flag.String("mix", "0:1", "insert:search worker ratio, e.g. 0:1 (read-only), 1:4")
		preload  = flag.Int("preload", 400, "objects inserted per tenant before measuring")
		name     = flag.String("name", "", "workload name in the report (default derived from mix/proto)")
		jsonPath = flag.String("json", "", "write benchfmt report to this file")
		appendTo = flag.Bool("append", false, "merge workloads into an existing -json report")
		model    = flag.String("model", "", "append acknowledged writes to this JSONL file")
		verify   = flag.Bool("verify", false, "verify every write in -model is present, then exit")
		seed     = flag.Int64("seed", 1, "workload generator seed")
		kinds    = flag.String("kinds", "bssf", "comma-separated facility kinds for created tenants")
		lsm      = flag.Bool("lsm", false, "create tenants on the LSM write path")
	)
	flag.Parse()

	mgmt := client.New(*addr)
	defer mgmt.Close()

	if *verify {
		if *model == "" {
			fatal("sigload: -verify needs -model")
		}
		v, err := runVerify(mgmt, *model)
		if err != nil {
			fatal("sigload: verify: %v", err)
		}
		fmt.Printf("sigload: verify: %d acknowledged writes checked, %d missing\n", v.Checked, v.Missing)
		if *jsonPath != "" {
			rep := benchfmt.New("sigfiled_server", *seed)
			rep.Verify = v
			if err := rep.WriteFile(*jsonPath, *appendTo); err != nil {
				fatal("sigload: %v", err)
			}
		}
		if v.Missing > 0 {
			os.Exit(1)
		}
		return
	}

	insW, _, err := parseMix(*mix, *workers)
	if err != nil {
		fatal("sigload: %v", err)
	}

	// The data-path client: HTTP by default, binary when asked.
	data := mgmt
	protoName := "http"
	if *proto == "binary" {
		if *binAddr == "" {
			fatal("sigload: -proto binary needs -binary-addr")
		}
		data = client.Dial(*binAddr)
		defer data.Close()
		protoName = "binary"
	} else if *proto != "http" {
		fatal("sigload: unknown -proto %q", *proto)
	}

	ctx := context.Background()
	tenants := make([]string, *tenantsN)
	for i := range tenants {
		tenants[i] = fmt.Sprintf("load-%d", i)
	}
	cfg := api.TenantConfig{Kinds: strings.Split(*kinds, ","), LSM: *lsm}
	for _, tn := range tenants {
		if _, err := mgmt.CreateTenant(ctx, tn, cfg); err != nil {
			if api.CodeOf(err) != api.CodeAlreadyExists {
				fatal("sigload: create tenant %s: %v", tn, err)
			}
		}
	}

	var mlog *modelLog
	if *model != "" {
		if mlog, err = openModelLog(*model); err != nil {
			fatal("sigload: %v", err)
		}
		defer mlog.close()
	}

	// Preload so searches have something to find.
	preloadRng := rand.New(rand.NewSource(*seed))
	for _, tn := range tenants {
		for i := 0; i < *preload; i++ {
			elems := randomSet(preloadRng)
			oid, err := mgmt.Insert(ctx, tn, elems)
			if err != nil {
				fatal("sigload: preload %s: %v", tn, err)
			}
			if mlog != nil {
				mlog.record(ackedWrite{Tenant: tn, OID: oid, Elems: elems})
			}
		}
	}

	// Measured phase.
	type workerOut struct {
		ops, inserts, searches, errs int
		lats                         []time.Duration
	}
	stop := make(chan struct{})
	outs := make([]workerOut, *workers)
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < *workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(*seed + int64(w)*7919))
			insert := w < insW
			o := &outs[w]
			for {
				select {
				case <-stop:
					return
				default:
				}
				tn := tenants[rng.Intn(len(tenants))]
				t0 := time.Now()
				var err error
				if insert {
					elems := randomSet(rng)
					var oid uint64
					oid, err = data.Insert(ctx, tn, elems)
					if err == nil {
						o.inserts++
						if mlog != nil {
							mlog.record(ackedWrite{Tenant: tn, OID: oid, Elems: elems})
						}
					}
				} else {
					pred, q := randomQuery(rng)
					_, err = data.Search(ctx, tn, pred, q, nil)
					if err == nil {
						o.searches++
					}
				}
				if err != nil {
					o.errs++
					// Overload is the backpressure contract working, not a
					// failure; back off briefly and keep going.
					if api.CodeOf(err) == api.CodeOverloaded {
						time.Sleep(time.Millisecond)
					}
					continue
				}
				o.ops++
				o.lats = append(o.lats, time.Since(t0))
			}
		}(w)
	}
	time.Sleep(*duration)
	close(stop)
	wg.Wait()
	elapsed := time.Since(start)

	var total workerOut
	for i := range outs {
		total.ops += outs[i].ops
		total.inserts += outs[i].inserts
		total.searches += outs[i].searches
		total.errs += outs[i].errs
		total.lats = append(total.lats, outs[i].lats...)
	}
	wl := benchfmt.Workload{
		Name:     *name,
		Proto:    protoName,
		Mix:      *mix,
		Workers:  *workers,
		Ops:      total.ops,
		Inserts:  total.inserts,
		Searches: total.searches,
		Errors:   total.errs,
		Seconds:  elapsed.Seconds(),
		QPS:      float64(total.ops) / elapsed.Seconds(),
		P50Ms:    benchfmt.Ms(benchfmt.Percentile(total.lats, 0.50)),
		P99Ms:    benchfmt.Ms(benchfmt.Percentile(total.lats, 0.99)),
	}
	if wl.Name == "" {
		wl.Name = fmt.Sprintf("mix_%s_%s", strings.ReplaceAll(*mix, ":", "i"), protoName)
	}
	fmt.Printf("sigload: %s: %d ops in %.2fs = %.0f qps (p50 %.2fms, p99 %.2fms, %d errors)\n",
		wl.Name, wl.Ops, wl.Seconds, wl.QPS, wl.P50Ms, wl.P99Ms, wl.Errors)

	if *jsonPath != "" {
		rep := benchfmt.New("sigfiled_server", *seed)
		rep.Tenants = *tenantsN
		rep.Workloads = []benchfmt.Workload{wl}
		if err := rep.WriteFile(*jsonPath, *appendTo); err != nil {
			fatal("sigload: %v", err)
		}
	}
	if total.ops == 0 {
		fatal("sigload: zero completed operations — server unreachable or rejecting everything")
	}
}

// parseMix splits workers between inserters and searchers by an
// "I:S" ratio string.
func parseMix(mix string, workers int) (inserters, searchers int, err error) {
	var i, s int
	if _, err := fmt.Sscanf(mix, "%d:%d", &i, &s); err != nil || i < 0 || s < 0 || i+s == 0 {
		return 0, 0, fmt.Errorf("bad -mix %q (want I:S, e.g. 1:4)", mix)
	}
	inserters = workers * i / (i + s)
	if i > 0 && inserters == 0 {
		inserters = 1
	}
	return inserters, workers - inserters, nil
}

// runVerify re-queries every acknowledged write in the model file with
// an equals search and reports how many are missing.
func runVerify(c *client.Client, path string) (*benchfmt.Verify, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	v := &benchfmt.Verify{}
	missingByTenant := map[string]int{}
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	ctx := context.Background()
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		var w ackedWrite
		if err := json.Unmarshal([]byte(line), &w); err != nil {
			return nil, fmt.Errorf("model line %d: %w", v.Checked+1, err)
		}
		v.Checked++
		resp, err := c.Search(ctx, w.Tenant, api.PredEquals, w.Elems, nil)
		if err != nil {
			return nil, fmt.Errorf("verify oid %d: %w", w.OID, err)
		}
		found := false
		for _, oid := range resp.OIDs {
			if oid == w.OID {
				found = true
				break
			}
		}
		if !found {
			v.Missing++
			missingByTenant[w.Tenant]++
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(missingByTenant) > 0 {
		tns := make([]string, 0, len(missingByTenant))
		for tn := range missingByTenant {
			tns = append(tns, tn)
		}
		sort.Strings(tns)
		for _, tn := range tns {
			fmt.Fprintf(os.Stderr, "sigload: verify: tenant %s missing %d writes\n", tn, missingByTenant[tn])
		}
	}
	return v, nil
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
	os.Exit(1)
}
