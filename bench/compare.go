package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
)

// readSet reads <dir>/<workload>.jsonl — one result line per run — and
// returns each metric's median over the runs.
func readSet(dir, workload string) (map[string]float64, int, error) {
	f, err := os.Open(filepath.Join(dir, workload+".jsonl"))
	if err != nil {
		return nil, 0, err
	}
	defer f.Close()
	vals := map[string][]float64{}
	runs := 0
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for sc.Scan() {
		var line resultLine
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			return nil, 0, fmt.Errorf("%s: %w", f.Name(), err)
		}
		if !line.Correct {
			return nil, 0, fmt.Errorf("%s: a run had %d failed operations of %d", f.Name(), line.Failed, line.Attempted)
		}
		runs++
		for name, m := range line.Metrics {
			vals[name] = append(vals[name], m.Value)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, 0, err
	}
	if runs == 0 {
		return nil, 0, fmt.Errorf("%s: no runs", f.Name())
	}
	med := map[string]float64{}
	for name, v := range vals {
		med[name] = median(v)
	}
	return med, runs, nil
}

// worseBy is by how large a share of a the value b is worse than a;
// negative when b is better.
func worseBy(a, b float64, better string) float64 {
	if a == b {
		return 0 // also when both are 0
	}
	if better == "higher" {
		return (a - b) / a
	}
	return (b - a) / a
}

// compareSets prints two sets of runs of the same tree side by side and
// fails unless they agree: each end-to-end metric of either set within
// its bound of the other, and page counts of the in-process workloads —
// which one goroutine and no timers make exact — equal.
func compareSets(bf *benchmarkFile, dirA, dirB string) error {
	var bad []string
	for _, w := range bf.Workloads {
		a, runsA, err := readSet(dirA, w.Name)
		if err != nil {
			return err
		}
		b, runsB, err := readSet(dirB, w.Name)
		if err != nil {
			return err
		}
		fmt.Printf("%s (medians of %d and %d runs)\n", w.Name, runsA, runsB)
		fmt.Printf("  %-28s %14s %14s %8s %8s  %s\n", "metric", "set A", "set B", "apart", "bound", "unit")
		for _, d := range bf.EndToEnd {
			va, okA := a[d.Name]
			vb, okB := b[d.Name]
			if !okA || !okB {
				return fmt.Errorf("%s: a set has no %s", w.Name, d.Name)
			}
			apart := worseBy(va, vb, d.Better)
			if back := worseBy(vb, va, d.Better); back > apart {
				apart = back
			}
			bound, verdict := d.Bound, ""
			if d.Unit == "pages" && strings.HasPrefix(w.Name, "lib_") {
				bound = 0
			}
			if !(apart <= bound) { // so that NaN disagrees
				verdict = "  DISAGREE"
				bad = append(bad, w.Name+"/"+d.Name)
			}
			fmt.Printf("  %-28s %14.4f %14.4f %7.2f%% %7.2f%%  %s%s\n", d.Name, va, vb, 100*apart, 100*bound, d.Unit, verdict)
		}
	}
	if len(bad) > 0 {
		return fmt.Errorf("the two sets disagree on %s", strings.Join(bad, ", "))
	}
	fmt.Println("the two sets agree within every bound")
	return nil
}
