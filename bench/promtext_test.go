package main

import (
	"strings"
	"testing"
)

const promFixture = `# TYPE sigfile_pagestore_reads_total counter
sigfile_pagestore_reads_total 1200
# TYPE sigfile_searches_total counter
sigfile_searches_total{facility="BSSF"} 30
sigfile_searches_total{facility="NIX"} 12
# TYPE sigfile_server_write_queue_depth gauge
sigfile_server_write_queue_depth{tenant="a b}c"} 3
# TYPE sigfile_search_duration_ms histogram
sigfile_search_duration_ms_bucket{facility="BSSF",le="0.1"} 4
sigfile_search_duration_ms_bucket{facility="BSSF",le="+Inf"} 30
sigfile_search_duration_ms_sum{facility="BSSF"} 12.5
sigfile_search_duration_ms_count{facility="BSSF"} 30
sigfile_search_duration_ms_sum{facility="NIX"} 1e+01
sigfile_search_duration_ms_count{facility="NIX"} 12

`

func TestParseProm(t *testing.T) {
	got, err := parseProm(strings.NewReader(promFixture))
	if err != nil {
		t.Fatal(err)
	}
	for name, want := range map[string]float64{
		"sigfile_pagestore_reads_total":     1200,
		"sigfile_searches_total":            42, // labels folded
		"sigfile_server_write_queue_depth":  3,  // a label value with a space and a brace
		"sigfile_search_duration_ms_sum":    22.5,
		"sigfile_search_duration_ms_count":  42,
		"sigfile_search_duration_ms_bucket": 34,
		"sigfile_absent_total":              0,
	} {
		if got[name] != want {
			t.Errorf("%s = %v, want %v", name, got[name], want)
		}
	}
	before := promSamples{"sigfile_pagestore_reads_total": 200}
	if d := got.delta(before, "sigfile_pagestore_reads_total"); d != 1000 {
		t.Errorf("delta = %v, want 1000", d)
	}
}

func TestParsePromRejectsGarbage(t *testing.T) {
	for _, bad := range []string{"metric_without_value\n", "m{a=\"b\" 3\n", "m 3x\n", "m{a=\"b\"}\n"} {
		if _, err := parseProm(strings.NewReader(bad)); err == nil {
			t.Errorf("parseProm(%q) succeeded", bad)
		}
	}
}
