package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestSmoke runs every workload in smoke mode, plain and traced, and checks
// that each run passes its correctness gates and reports every metric
// BENCHMARK.json names, with the unit it gives.
func TestSmoke(t *testing.T) {
	s, err := loadSpec("..")
	if err != nil {
		t.Fatal(err)
	}
	out := filepath.Join(t.TempDir(), "records.jsonl")
	for _, trace := range []string{"0", "1"} {
		var stdout, stderr strings.Builder
		if code := run([]string{"-smoke", "-repo", "..", "--trace", trace, "-out", out}, &stdout, &stderr); code != 0 {
			t.Fatalf("smoke run with --trace %s exited %d:\n%s", trace, code, stderr.String())
		}
		lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
		var last result
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
			t.Fatalf("last line of standard output is not a result: %v", err)
		}
	}

	f, err := os.Open(out)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	got := map[string]record{}
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 16<<20)
	for sc.Scan() {
		var rec record
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			t.Fatal(err)
		}
		mode := "plain"
		if rec.Trace == 1 {
			mode = "traced"
		}
		got[rec.Workload+"/"+mode] = rec
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}

	if len(s.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the benchmark runs %d", len(s.Workloads), len(workloads))
	}
	for _, w := range s.Workloads {
		for mode, want := range map[string][]specMetric{"plain": s.EndToEnd, "traced": s.PerLayer} {
			rec, ok := got[w.Name+"/"+mode]
			if !ok {
				t.Errorf("%s: no %s record", w.Name, mode)
				continue
			}
			if !rec.Correct || rec.Failed != 0 || rec.Attempted < 1 {
				t.Errorf("%s %s: correct=%t attempted=%d failed=%d", w.Name, mode, rec.Correct, rec.Attempted, rec.Failed)
			}
			if len(rec.Metrics) != len(want) {
				t.Errorf("%s %s: %d metrics emitted, BENCHMARK.json names %d", w.Name, mode, len(rec.Metrics), len(want))
			}
			for _, m := range want {
				if gm, ok := rec.Metrics[m.Name]; !ok || gm.Unit != m.Unit {
					t.Errorf("%s %s: metric %s emitted as %+v (present %t), want unit %q", w.Name, mode, m.Name, gm, ok, m.Unit)
				}
			}
			if mode == "plain" {
				for _, m := range want {
					if rec.Metrics[m.Name].Value <= 0 {
						t.Errorf("%s: end-to-end metric %s is %v, want > 0", w.Name, m.Name, rec.Metrics[m.Name].Value)
					}
				}
			}
		}
	}
}

// TestQuartiles pins the quartile method to Python's
// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25].
func TestQuartiles(t *testing.T) {
	xs := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	if q1, q2, q3 := quartiles(xs); q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
}
