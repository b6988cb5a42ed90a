// Command bench is the repository's benchmark. It runs one of four workloads
// over the Table-1 grammar corpus, checks every output for correctness, and
// prints its metrics by name and unit:
//
//	table1_batch   the library pipeline, parse → report, on all 42 grammars
//	compile_front  the parser-generator front end only, no search
//	serve_hot      in-process cexd on loopback, every request a cache hit
//	serve_cold     in-process cexd on loopback, every request a cache miss
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. A plain run reports the end-to-end
// metrics; a traced run (--trace 1) times each layer with stopwatches around
// calls into its public functions and reports the per-layer metrics instead.
// See README.md for the metric glossary and the reasons behind each workload.
//
// Usage, from the repository root:
//
//	bash bench/run.sh --workload serve_hot --seed 3 --seconds 20 --trace 0
//	bash bench/run.sh -compare a.jsonl b.jsonl
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"time"
)

// config is one run's settings.
type config struct {
	seed   int64
	window time.Duration
	traced bool
	smoke  bool
	repo   string // repository root: golden files and BENCHMARK.json live under it
	log    io.Writer
}

// outcome is what one workload run measured.
type outcome struct {
	attempted, failed int
	gate              []string // correctness-gate failures; any one fails the run
	e2e, layer        values
	rows              []row // per-grammar rows (traced library workloads)
}

// values maps a metric name to its measured value.
type values map[string]float64

// row is one per-grammar line of a traced run's results record.
type row map[string]any

func (o *outcome) failf(format string, args ...any) {
	if len(o.gate) < 20 {
		o.gate = append(o.gate, fmt.Sprintf(format, args...))
	}
}

type workload struct {
	name string
	run  func(*config) (*outcome, error)
}

var workloads = []workload{
	{"table1_batch", runTable1Batch},
	{"compile_front", runCompileFront},
	{"serve_hot", runServeHot},
	{"serve_cold", runServeCold},
}

// metricDef names a metric and its unit. BENCHMARK.json lists the same
// metrics; bench_test.go keeps the two in step.
type metricDef struct{ name, unit string }

var endToEndDefs = []metricDef{
	{"setup_s", "s"},
	{"throughput_per_s", "1/s"},
	{"latency_p50_ms", "ms"},
	{"latency_tail_ms", "ms"},
	{"peak_rss_mb", "MiB"},
}

// perLayerDefs is every per-layer metric. A traced run reports all of them;
// a layer the workload does not exercise reads 0.
var perLayerDefs = []metricDef{
	{"gdl.parse_ms", "ms"},
	{"gdl.fingerprint_us_p50", "us"},
	{"lr.build_ms", "ms"},
	{"lr.table_ms", "ms"},
	{"lr.states", "count"},
	{"lr.conflicts", "count"},
	{"core.compile_ms", "ms"},
	{"core.find_ms", "ms"},
	{"core.find_p50_ms", "ms"},
	{"core.find_p98_ms", "ms"},
	{"core.find_ms.Java.2", "ms"},
	{"core.find_ms.Java.4", "ms"},
	{"core.find_ms.C.4", "ms"},
	{"core.find_ms.java-ext2", "ms"},
	{"core.find_floor_ms", "ms"},
	{"core.unify_ms", "ms"},
	{"core.expanded", "count"},
	{"core.pushed", "count"},
	{"core.dedup_hits", "count"},
	{"core.peak_frontier", "count"},
	{"core.alloc_bytes", "B"},
	{"core.path_expanded", "count"},
	{"core.dedup_ratio", "ratio"},
	{"core.configs_per_s", "1/s"},
	{"core.unifying_share", "ratio"},
	{"core.capped_share", "ratio"},
	{"core.report_ms", "ms"},
	{"core.report_bytes", "B"},
	{"server.handler_us_p50", "us"},
	{"server.handler_us_p99", "us"},
	{"server.loopback_us_p50", "us"},
	{"server.response_kb", "KiB"},
	{"server.overhead_ms_p50", "ms"},
	{"server.result_hit_ratio", "ratio"},
	{"server.compile_hit_ratio", "ratio"},
	{"server.shed", "count"},
	{"server.partial", "count"},
	{"persist.journal_bytes", "B"},
	{"persist.boot_ms", "ms"},
	{"persist.loaded", "count"},
	{"runtime.alloc_mb", "MiB"},
	{"runtime.gc_cycles", "count"},
	{"runtime.gc_pause_ms", "ms"},
	{"bench.stopwatch_overhead_pct", "%"},
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the object printed as the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// record is one run as appended to the -out file: the result plus what
// produced it, and the per-grammar rows of traced library runs.
type record struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Trace    int    `json:"trace"`
	result
	Rows []row `json:"rows,omitempty"`
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: table1_batch, compile_front, serve_hot or serve_cold (empty = all four in turn)")
	seed := fs.Int64("seed", 1, "seed of every random draw")
	seconds := fs.Float64("seconds", 20, "length of the measured window, in seconds")
	trace := fs.Int("trace", 0, "1 = traced run: report per-layer instead of end-to-end metrics")
	smoke := fs.Bool("smoke", false, "smoke mode: the smoke grammars only, tiny windows (all four workloads in under 10 s)")
	repo := fs.String("repo", ".", "root of the repository checkout")
	out := fs.String("out", "", "append each run's full record, per-grammar rows included, as one JSON line to this file")
	compare := fs.Bool("compare", false, "compare two files of records written by -out: bench -compare a.jsonl b.jsonl")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "bench: -compare takes two record files")
			return 2
		}
		if err := runCompare(*repo, fs.Arg(0), fs.Arg(1), stdout); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 2
		}
		return 0
	}
	if fs.NArg() != 0 || (*trace != 0 && *trace != 1) || *seconds <= 0 {
		fmt.Fprintln(stderr, "bench: usage: bench --workload <name> --seed <n> --seconds <s> --trace <0|1>")
		return 2
	}
	cfg := &config{
		seed:   *seed,
		window: time.Duration(*seconds * float64(time.Second)),
		traced: *trace == 1,
		smoke:  *smoke,
		repo:   *repo,
		log:    stderr,
	}
	if cfg.smoke {
		cfg.window = 250 * time.Millisecond
	}
	if _, err := os.Stat(goldenDir(cfg.repo)); err != nil {
		fmt.Fprintf(stderr, "bench: %s does not look like the repository root: %v\n", cfg.repo, err)
		return 2
	}

	var todo []workload
	for _, w := range workloads {
		if *name == "" || *name == w.name {
			todo = append(todo, w)
		}
	}
	if len(todo) == 0 {
		fmt.Fprintf(stderr, "bench: unknown workload %q\n", *name)
		return 2
	}
	status := 0
	for _, w := range todo {
		o, err := w.run(cfg)
		if err != nil {
			fmt.Fprintf(stderr, "bench: %s: %v\n", w.name, err)
			return 1
		}
		rec := record{Workload: w.name, Seed: cfg.seed, Trace: *trace, result: o.result(cfg.traced), Rows: o.rows}
		for _, g := range o.gate {
			fmt.Fprintf(stderr, "bench: %s: correctness gate failed: %s\n", w.name, g)
		}
		if *out != "" {
			if err := appendRecord(*out, &rec); err != nil {
				fmt.Fprintln(stderr, "bench:", err)
				return 1
			}
		}
		line, err := json.Marshal(rec.result)
		if err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
		fmt.Fprintln(stdout, string(line))
		if !rec.Correct {
			status = 1
		}
	}
	return status
}

// result assembles the printed object: the end-to-end metrics, or under
// tracing the per-layer ones.
func (o *outcome) result(traced bool) result {
	defs, vals := endToEndDefs, o.e2e
	if traced {
		defs, vals = perLayerDefs, o.layer
	}
	r := result{
		Correct:   len(o.gate) == 0 && o.failed == 0 && o.attempted > 0,
		Attempted: o.attempted,
		Failed:    o.failed,
		Metrics:   make(map[string]metric, len(defs)),
	}
	for _, d := range defs {
		r.Metrics[d.name] = metric{Value: vals[d.name], Unit: d.unit}
	}
	return r
}

func appendRecord(path string, rec *record) error {
	b, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	_, werr := f.Write(append(b, '\n'))
	return errors.Join(werr, f.Close())
}
