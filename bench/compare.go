package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
)

// spec is the part of BENCHMARK.json the benchmark itself reads.
type spec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func loadSpec(repo string) (*spec, error) {
	b, err := os.ReadFile(filepath.Join(repo, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var s spec
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &s, nil
}

// loadRecords reads the untraced, correct records of a file written by -out
// and groups each end-to-end value by workload and metric.
func loadRecords(path string) (map[string]map[string][]float64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := map[string]map[string][]float64{}
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 64<<20)
	for sc.Scan() {
		var rec record
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		if rec.Trace != 0 || !rec.Correct {
			continue
		}
		if out[rec.Workload] == nil {
			out[rec.Workload] = map[string][]float64{}
		}
		for name, m := range rec.Metrics {
			out[rec.Workload][name] = append(out[rec.Workload][name], m.Value)
		}
	}
	return out, sc.Err()
}

// quartiles returns the first quartile, median and third quartile of xs the
// way Python's statistics.quantiles(xs, n=4) computes them (the exclusive
// method); xs is sorted in place.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	sort.Float64s(xs)
	n := len(xs)
	if n == 1 {
		return xs[0], xs[0], xs[0]
	}
	q := func(i int) float64 {
		j := i * (n + 1) / 4
		j = max(1, min(j, n-1))
		delta := float64(i*(n+1) - j*4)
		return (xs[j-1]*(4-delta) + xs[j]*delta) / 4
	}
	return q(1), q(2), q(3)
}

// runCompare prints, for every end-to-end metric and workload, the two sets'
// medians and spreads (quartile distance over median) and a verdict:
// unresolved when either spread exceeds the metric's bound (unless every run
// of b beats every run of a), worse when b's median is worse than a's by
// more than the bound, better when it is better by more than a's spread,
// and same otherwise.
func runCompare(repo, pathA, pathB string, w io.Writer) error {
	s, err := loadSpec(repo)
	if err != nil {
		return err
	}
	a, err := loadRecords(pathA)
	if err != nil {
		return err
	}
	b, err := loadRecords(pathB)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%-14s %-17s %4s %12s %7s %4s %12s %7s %8s %6s  %s\n",
		"workload", "metric", "n(a)", "median(a)", "spread", "n(b)", "median(b)", "spread", "worse by", "bound", "verdict")
	tally := map[string]int{}
	for _, wl := range s.Workloads {
		for _, m := range s.EndToEnd {
			va, vb := a[wl.Name][m.Name], b[wl.Name][m.Name]
			if len(va) == 0 || len(vb) == 0 {
				fmt.Fprintf(w, "%-14s %-17s missing\n", wl.Name, m.Name)
				tally["missing"]++
				continue
			}
			na, nb := len(va), len(vb)
			q1a, meda, q3a := quartiles(va)
			q1b, medb, q3b := quartiles(vb)
			spreadA, spreadB := (q3a-q1a)/meda, (q3b-q1b)/medb
			// worse > 0 is the share by which b's median is worse than a's.
			worse := (medb - meda) / meda
			allBetter := va[0] > vb[len(vb)-1] // quartiles sorted both
			if m.Better == "higher" {
				worse = -worse
				allBetter = vb[0] > va[len(va)-1]
			}
			verdict := "same"
			switch {
			case allBetter:
				verdict = "better"
			case spreadA > m.Bound || spreadB > m.Bound:
				verdict = "unresolved"
			case worse > m.Bound:
				verdict = "worse"
			case -worse > spreadA:
				verdict = "better"
			}
			tally[verdict]++
			fmt.Fprintf(w, "%-14s %-17s %4d %12.4g %6.1f%% %4d %12.4g %6.1f%% %+7.1f%% %5.0f%%  %s\n",
				wl.Name, m.Name, na, meda, 100*spreadA, nb, medb, 100*spreadB, 100*worse, 100*m.Bound, verdict)
		}
	}
	fmt.Fprintf(w, "better %d, same %d, worse %d, unresolved %d, missing %d\n",
		tally["better"], tally["same"], tally["worse"], tally["unresolved"], tally["missing"])
	return nil
}
