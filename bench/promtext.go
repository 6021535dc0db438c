package main

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// promSamples is one scrape of the Prometheus text format: the summed
// value of every metric family, labels folded away. A histogram shows up
// as its <name>_sum and <name>_count families (and <name>_bucket, which
// nothing here reads).
type promSamples map[string]float64

func parseProm(r io.Reader) (promSamples, error) {
	out := promSamples{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || line[0] == '#' {
			continue
		}
		// name{labels} value — a label value may hold spaces, so split at
		// the closing brace when there is one.
		name, rest := line, ""
		if i := strings.IndexByte(line, '{'); i >= 0 {
			j := strings.LastIndexByte(line, '}')
			if j < i {
				return nil, fmt.Errorf("metrics: unbalanced labels in %q", line)
			}
			name, rest = line[:i], line[j+1:]
		} else if i := strings.IndexByte(line, ' '); i >= 0 {
			name, rest = line[:i], line[i:]
		}
		fields := strings.Fields(rest)
		if len(fields) == 0 {
			return nil, fmt.Errorf("metrics: no value in %q", line)
		}
		v, err := strconv.ParseFloat(fields[0], 64)
		if err != nil {
			return nil, fmt.Errorf("metrics: value of %q: %w", line, err)
		}
		out[name] += v
	}
	return out, sc.Err()
}

// delta returns after − before for one family.
func (after promSamples) delta(before promSamples, name string) float64 {
	return after[name] - before[name]
}
