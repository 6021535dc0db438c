// Command bench is the repository's one benchmark: in-process and served
// set search, measured end to end and attributed layer by layer. See
// README.md in this directory and BENCHMARK.json at the repository root.
//
//	bench/run.sh --workload lib_bssf --seed 1 --seconds 15 --trace 0
//
// It runs from the repository root (run.sh sees to that), reads the
// metric names and units from BENCHMARK.json, writes only under
// .bench_build/ and bench/out/, and prints one JSON object as the last
// line of its standard output.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"

	"sigfile"
	api "sigfile/api/v1"
)

const (
	sigfiledBin = ".bench_build/bin/sigfiled" // where run.sh builds the daemon
	traceDir    = "bench/out"                 // where a traced run leaves its trace file

	keptOps = 16 // operations of each type whose raw spans reach the trace file

	// gcPercent is this process's GOGC. At the default of 100 the
	// collector runs some thirty times a second under lib_bssf, about
	// half of all searches overlap a mark phase, and the median latency
	// sits on the knee between the two halves: it moved by a tenth from
	// run to run. At 400 a cycle is rare enough that the median is the
	// undisturbed search. Allocation still costs what it costs — in
	// cpu_ms_per_op, in the tail, and in the traced run's allocs_per_op.
	// The sigfiled child runs with its own default, and so do this
	// process's set-ups, which setup_s times as a user's would run.
	gcPercent = 400
)

// windowGC switches this process to the window's collector setting; the
// workloads call it when their set-ups are done.
func windowGC() { debug.SetGCPercent(gcPercent) }

type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	clients  int    // load-generating goroutines: part of the workload's definition
	runDir   string // scratch space of this run, removed at exit
}

func (c *config) window() time.Duration { return time.Duration(c.seconds * float64(time.Second)) }

// warmup is a tenth of the window, at least half a second: long enough
// for connections to open and the runtime to settle, and the same on
// every commit.
func (c *config) warmup() time.Duration {
	w := c.window() / 10
	if w < 500*time.Millisecond {
		w = 500 * time.Millisecond
	}
	return w
}

// setups is how many set-ups a run does: an untraced run three, whose
// median is setup_s; a traced run one.
func (c *config) setups() int {
	if c.trace {
		return 1
	}
	return 3
}

// outcome is what one run measured.
type outcome struct {
	e2e       map[string]float64
	layers    map[string]float64
	extras    map[string]float64 // measured, printed, but not in BENCHMARK.json: not produced by every workload
	counts    map[string]int     // samples behind the latency metrics
	attempted int64
	failed    int64
	failures  []string
	trace     *tracer
	tenths    []float64 // ops/s in each tenth of the window: where a stall fell
	setups    []float64 // every set-up's seconds; setup_s is their median
}

func newOutcome() *outcome {
	return &outcome{e2e: map[string]float64{}, layers: map[string]float64{}, extras: map[string]float64{}, counts: map[string]int{}}
}

func (o *outcome) absorb(r *recorder) {
	o.attempted += r.attempted
	o.failed += r.failed
	o.failures = append(o.failures, r.failures...)
	for op := opKind(0); op < numOps; op++ {
		o.counts[op.String()] = len(r.samples[op])
	}
}

// windowMetrics derives the end-to-end metrics of the measured window
// from what the load generators recorded; cpu is what the process under
// test used over it.
func (o *outcome) windowMetrics(r *recorder, elapsed, cpu time.Duration) {
	ops := float64(r.ops())
	o.e2e["ops_per_s"] = ops / elapsed.Seconds()
	o.e2e["cpu_ms_per_op"] = cpu.Seconds() * 1e3 / ops
	r.latencyMetrics(o.e2e, elapsed, opSuperset, opSubset)
	o.tenths = make([]float64, 10)
	for op := range r.samples {
		for _, s := range r.samples[op] {
			if i := int(s.at * 10 / int64(elapsed)); i >= 0 && i < 10 {
				o.tenths[i] += 10 / elapsed.Seconds()
			}
		}
	}
}

// metricDef is one entry of BENCHMARK.json's metric lists.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func loadBenchmarkFile() (*benchmarkFile, error) {
	data, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return nil, fmt.Errorf("run from the repository root: %w", err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &bf, nil
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine is the run's last line of standard output.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// workloads names every workload with its client count: one goroutine
// in-process; over the wire two, one connection each, because the mixed
// workload needs a writer beside a reader and the read workloads should
// load the daemon the same way.
var workloads = map[string]struct {
	clients int
	run     func(*config) (*outcome, error)
}{
	"lib_bssf": {1, func(c *config) (*outcome, error) { return runLib(c, sigfile.KindBSSF) }},
	"lib_nix":  {1, func(c *config) (*outcome, error) { return runLib(c, sigfile.KindNIX) }},
	"served_read_http": {2, func(c *config) (*outcome, error) {
		return runServed(c, servedSpec{tenant: readTenant})
	}},
	"served_read_bin": {2, func(c *config) (*outcome, error) {
		return runServed(c, servedSpec{tenant: readTenant, binary: true})
	}},
	"served_mixed_lsm": {2, func(c *config) (*outcome, error) {
		return runServed(c, servedSpec{tenant: mixedTenant, mixed: true})
	}},
}

var (
	readTenant  = api.TenantConfig{Kinds: []string{"bssf", "nix"}, F: sigWidth, M: sigWeight}
	mixedTenant = api.TenantConfig{Kinds: []string{"bssf"}, F: sigWidth, M: sigWeight,
		LSM: true, LSMMemtableOps: 256, LSMCompactAfter: 4, CheckpointSec: 1}
)

// commit reads the checked-out commit without running git: the driver's
// checkout is not a repository, and then the answer is "unknown".
func commit() string {
	head, err := os.ReadFile(".git/HEAD")
	if err != nil {
		return "unknown"
	}
	h := strings.TrimSpace(string(head))
	if ref, ok := strings.CutPrefix(h, "ref: "); ok {
		data, err := os.ReadFile(filepath.Join(".git", ref))
		if err != nil {
			return "unknown"
		}
		h = strings.TrimSpace(string(data))
	}
	return h
}

func envStamp(cfg *config) map[string]any {
	return map[string]any{
		"workload":     cfg.workload,
		"seed":         cfg.seed,
		"seconds":      cfg.seconds,
		"warmup_s":     cfg.warmup().Seconds(),
		"trace":        cfg.trace,
		"clients":      cfg.clients,
		"nproc":        runtime.NumCPU(),
		"gomaxprocs":   runtime.GOMAXPROCS(0),
		"go":           runtime.Version(),
		"harness_gogc": gcPercent,
		"commit":       commit(),
		"cpu":          cpuModel(),
		"flush_policy": flushPolicy,
	}
}

func printTable(title string, vals map[string]float64, defs []metricDef) {
	fmt.Printf("%s\n", title)
	unit := map[string]string{}
	for _, d := range defs {
		unit[d.Name] = d.Unit
	}
	names := make([]string, 0, len(vals))
	for n := range vals {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("  %-40s %14.4f %s\n", n, vals[n], unit[n])
	}
}

func run() error {
	cfg := &config{}
	var trace int
	flag.StringVar(&cfg.workload, "workload", "", "workload name (see BENCHMARK.json)")
	flag.Int64Var(&cfg.seed, "seed", 1, "seed of every generated input")
	flag.Float64Var(&cfg.seconds, "seconds", 15, "length of the measured window")
	flag.IntVar(&trace, "trace", 0, "1: traced run, prints the per-layer metrics; 0: the end-to-end metrics")
	compare := flag.String("compare", "", "two directories of result lines, comma-separated: print both and check they agree within the bounds")
	flag.Parse()
	cfg.trace = trace != 0

	bf, err := loadBenchmarkFile()
	if err != nil {
		return err
	}
	if *compare != "" {
		a, b, ok := strings.Cut(*compare, ",")
		if !ok {
			return errors.New("-compare wants dirA,dirB")
		}
		return compareSets(bf, a, b)
	}
	w, ok := workloads[cfg.workload]
	if !ok {
		return fmt.Errorf("unknown workload %q", cfg.workload)
	}
	if cfg.clients = w.clients; cfg.clients > runtime.NumCPU() {
		return fmt.Errorf("%s refused: its %d clients need a CPU each and this machine has %d; a client that has to share one measures the scheduler", cfg.workload, cfg.clients, runtime.NumCPU())
	}
	if cfg.seconds < 1 {
		return errors.New("-seconds must be at least 1")
	}
	if err := os.MkdirAll(".bench_build/run", 0o755); err != nil {
		return err
	}
	if cfg.runDir, err = os.MkdirTemp(".bench_build/run", cfg.workload+"-"); err != nil {
		return err
	}
	// Every set-up's files stay until the run is over and go in one sweep,
	// followed by a sync: on this sandbox's disk (ext4 mounted with
	// discard) a burst of deletions slows the fsyncs that come after it,
	// and neither this run's timed stretches nor the next run's should
	// pay for it.
	defer func() {
		os.RemoveAll(cfg.runDir)
		settle()
	}()

	env := envStamp(cfg)
	stamp, _ := json.Marshal(env)
	fmt.Printf("env %s\n", stamp)

	out, err := w.run(cfg)
	if err != nil {
		return err
	}
	defs, vals := bf.EndToEnd, out.e2e
	if cfg.trace {
		if err := layerProbes(cfg, out); err != nil {
			return err
		}
		defs, vals = bf.PerLayer, out.layers
		if err := os.MkdirAll(traceDir, 0o755); err != nil {
			return err
		}
		path := filepath.Join(traceDir, cfg.workload+".trace.json")
		if err := writeTrace(path, out.traceFile(env)); err != nil {
			return err
		}
		fmt.Printf("trace written to %s\n", path)
	}

	printTable(fmt.Sprintf("%s seed=%d window=%gs", cfg.workload, cfg.seed, cfg.seconds), vals, defs)
	// The failure gate by its names in ISSUE.md: the format lists no metric
	// that is 0, so these two are the result line's failed and correct.
	out.extras["failed_op_ratio"] = float64(out.failed) / float64(out.attempted)
	printTable("not in BENCHMARK.json (the failure gate; what only this workload measures)", out.extras, nil)
	fmt.Printf("samples: superset=%d subset=%d insert=%d; p%d is the median of the p%ds of %d sub-windows\n",
		out.counts["superset"], out.counts["subset"], out.counts["insert"], tailPercentile, tailPercentile, tailParts)
	fmt.Printf("set-ups (s): %.3f\n", out.setups)
	if out.tenths != nil {
		fmt.Printf("ops/s by tenth of the window: %.0f\n", out.tenths)
	}
	for _, f := range out.failures {
		fmt.Printf("FAILED: %s\n", f)
	}

	line := resultLine{Correct: out.failed == 0, Attempted: out.attempted, Failed: out.failed, Metrics: map[string]metricValue{}}
	for _, d := range defs {
		v, ok := vals[d.Name]
		if !ok {
			return fmt.Errorf("workload %s did not produce %s", cfg.workload, d.Name)
		}
		line.Metrics[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	if line.Attempted < 1 {
		return errors.New("no operation was attempted")
	}
	data, err := json.Marshal(line)
	if err != nil {
		return err
	}
	fmt.Printf("%s\n", data)
	return nil
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		os.Exit(1)
	}
}
