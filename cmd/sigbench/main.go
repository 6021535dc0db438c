// Command sigbench regenerates the tables and figures of "Evaluation of
// Signature Files as Set Access Facilities in OODBs" (SIGMOD 1993) from
// this reproduction's analytical cost model and, optionally, from
// measured runs of the real access facilities.
//
// Usage:
//
//	sigbench                         # run every experiment (model only)
//	sigbench -experiment fig8        # one artifact
//	sigbench -measured -scale 8      # add measured columns at 1/8 scale
//	sigbench -throughput -workers 8  # concurrent-search QPS + p50/p99 (not a paper artifact)
//	sigbench -throughput -shards 4   # K-way sharded vs unsharded QPS at the same worker count
//	sigbench -metrics                # drift + planner checks + metrics dump; exits 1 on failure
//	sigbench -list                   # enumerate experiment ids
//
// Experiment ids: fig1 fig2 fig4..fig10 (the paper's figures), tab5 tab6
// tab7 (its tables), xval (model-vs-measured cross-validation), drift (the
// tolerance-gated cost-model drift check), planner (the cost-based
// planner's chosen-plan-vs-measured gate) and the ablation-* studies
// documented in DESIGN.md.
//
// -metrics runs the drift check and the planner check against the
// paper's Table 2 design point at the chosen -scale, then dumps the
// process metrics registry (every sigfile_* counter and histogram the
// run populated) in Prometheus text exposition format, or flat JSON
// with -metrics-format json. The exit status is 1 when any drift point
// is outside tolerance or any chosen plan measures above the planner
// gate, so CI can gate on it directly.
package main

import (
	"flag"
	"fmt"
	"os"

	"sigfile/internal/experiments"
	"sigfile/internal/obs"
)

func main() {
	var (
		id       = flag.String("experiment", "", "experiment id to run (empty = all)")
		list     = flag.Bool("list", false, "list experiment ids and exit")
		measured = flag.Bool("measured", false, "also run the real facilities and print measured page counts")
		scale    = flag.Int("scale", 8, "divide the paper's N and V by this for measured runs")
		trials   = flag.Int("trials", 5, "random queries averaged per measured point")
		seed     = flag.Int64("seed", 1, "seed for measured workloads")

		metrics       = flag.Bool("metrics", false, "run the cost-model drift check, dump the metrics registry, exit 1 on drift")
		metricsFormat = flag.String("metrics-format", "prom", "metrics dump format: prom (Prometheus text) or json")

		throughput = flag.Bool("throughput", false, "measure concurrent-search QPS and latency percentiles instead of paper artifacts")
		facility   = flag.String("facility", "all", "throughput mode: ssf, bssf, nix, fssf or all")
		objects    = flag.Int("objects", 8192, "throughput mode: objects indexed")
		queries    = flag.Int("queries", 64, "throughput mode: distinct query shapes in the request mix")
		workers    = flag.Int("workers", 4, "throughput mode: concurrent searchers compared against workers=1")
		seconds    = flag.Int("seconds", 2, "throughput mode: wall-clock budget per point")
		shards     = flag.Int("shards", 0, "throughput mode: compare a K-way sharded facility against the unsharded one at the same worker count")
		mix        = flag.String("mix", "", "throughput mode: insert:search ratio (e.g. 4:1) — runs the write-heavy mixed workload, legacy vs LSM, instead of search QPS")
		mixOps     = flag.Int("mix-ops", 4096, "mixed mode: total operations in the stream")
		jsonOut    = flag.String("json", "", "throughput/mixed mode: also write the machine-readable benchfmt report here")
	)
	flag.Parse()

	if *metrics {
		opt := experiments.Options{Scale: *scale, Trials: *trials, Seed: *seed}
		if err := runMetrics(os.Stdout, opt, *metricsFormat); err != nil {
			fatal(err)
		}
		return
	}

	if *throughput {
		if *mix != "" {
			ins, sch, err := parseMix(*mix)
			if err != nil {
				fatal(err)
			}
			cfg := mixedConfig{
				ops: *mixOps, insRatio: ins, schRatio: sch,
				seed: *seed, jsonPath: *jsonOut,
			}
			if err := runMixed(os.Stdout, cfg); err != nil {
				fatal(err)
			}
			return
		}
		cfg := throughputConfig{
			facility: *facility, n: *objects, queries: *queries,
			workers: *workers, seconds: *seconds, shards: *shards,
			seed: *seed, jsonPath: *jsonOut,
		}
		if err := runThroughput(os.Stdout, cfg); err != nil {
			fatal(err)
		}
		return
	}

	if *list {
		for _, e := range experiments.All() {
			fmt.Printf("%-18s %-24s %s\n", e.ID, e.Artifact, e.Title)
		}
		return
	}

	opt := experiments.Options{Measured: *measured, Scale: *scale, Trials: *trials, Seed: *seed}
	if *id == "" {
		if err := experiments.RunAll(os.Stdout, opt); err != nil {
			fatal(err)
		}
		return
	}
	e, ok := experiments.ByID(*id)
	if !ok {
		fatal(fmt.Errorf("unknown experiment %q; try -list", *id))
	}
	fmt.Printf("==== %s — %s (%s) ====\n", e.ID, e.Artifact, e.Title)
	if err := e.Run(os.Stdout, opt); err != nil {
		fatal(err)
	}
}

// runMetrics is the -metrics mode: drift check and planner check first
// (their searches also populate the registry), then the metrics dump,
// then the verdict.
func runMetrics(w *os.File, opt experiments.Options, format string) error {
	fmt.Fprintln(w, "==== cost-model drift check (Table 2 design point) ====")
	driftFailures, err := experiments.RunDrift(w, opt)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "\n==== planner check (chosen plan vs measured) ====")
	planFailures, err := experiments.RunPlannerCheck(w, opt)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "\n==== metrics registry (%s) ====\n", format)
	switch format {
	case "prom":
		err = obs.Default().WritePrometheus(w)
	case "json":
		err = obs.Default().WriteJSON(w)
	default:
		err = fmt.Errorf("unknown -metrics-format %q (want prom or json)", format)
	}
	if err != nil {
		return err
	}
	if driftFailures > 0 {
		return fmt.Errorf("%d drift point(s) outside tolerance", driftFailures)
	}
	if planFailures > 0 {
		return fmt.Errorf("%d chosen plan(s) measured above the planner gate", planFailures)
	}
	fmt.Fprintln(w, "\ndrift and planner checks passed")
	return nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "sigbench:", err)
	os.Exit(1)
}
