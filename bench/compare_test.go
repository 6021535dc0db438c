package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func writeSet(t *testing.T, lines ...string) string {
	t.Helper()
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "w.jsonl"), []byte(strings.Join(lines, "\n")), 0o644); err != nil {
		t.Fatal(err)
	}
	return dir
}

// Two sets that hold nothing must not pass as two sets that agree.
func TestCompareSetsIsNotVacuous(t *testing.T) {
	bf := &benchmarkFile{EndToEnd: []metricDef{{Name: "x_ms", Unit: "ms", Better: "lower", Bound: 0.1}}}
	bf.Workloads = append(bf.Workloads, struct {
		Name string `json:"name"`
	}{"w"})
	line := func(v string) string {
		return `{"correct":true,"attempted":1,"failed":0,"metrics":{"x_ms":{"value":` + v + `,"unit":"ms"}}}`
	}
	other := `{"correct":true,"attempted":1,"failed":0,"metrics":{"y_ms":{"value":1,"unit":"ms"}}}`
	good := writeSet(t, line("1.00"), line("1.04"))
	for name, c := range map[string]struct {
		a, b string
		ok   bool
	}{
		"agree":          {good, writeSet(t, line("1.05")), true},
		"apart":          {good, writeSet(t, line("1.30")), false},
		"empty file":     {good, writeSet(t), false},
		"metric missing": {writeSet(t, other), writeSet(t, other), false},
		"failed run":     {good, writeSet(t, strings.Replace(line("1"), "true", "false", 1)), false},
	} {
		if err := compareSets(bf, c.a, c.b); (err == nil) != c.ok {
			t.Errorf("%s: compareSets = %v", name, err)
		}
	}
	if got := worseBy(0, 0, "lower"); got != 0 {
		t.Errorf("worseBy(0, 0) = %v, want 0", got)
	}
}
