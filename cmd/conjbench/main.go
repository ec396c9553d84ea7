// Command conjbench is the repository's benchmark: it runs one workload of
// the checking pipeline end to end, prints every metric by name with its
// unit, checks that the outputs are correct, and ends with one JSON line:
//
//	{"correct": true, "attempted": 412, "failed": 0, "metrics": {"ops_per_s": {"value": 20.6, "unit": "1/s"}, ...}}
//
// Usage (from the repository root; run.sh builds the binary first):
//
//	bash cmd/conjbench/run.sh -workload grid-cold|report|serve-mixed|hunt|all
//	     [-seed 1] [-seconds 25] [-trace 0|1] [-scale full|small] [-update]
//
// Without -trace the run measures the end-to-end metrics with no tracing.
// -trace 1 measures the per-layer metrics instead and writes the spans to
// trace-<workload>.json in the build directory ($CARGO_TARGET_DIR, else
// .bench_build at the repository root), in Chrome trace-event format.
// -workload all runs every workload in its own child process, so memory
// numbers stay per workload. -update rewrites testdata/expected.json from
// a default-seed run. See README.md for the workloads, metrics and bounds.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"time"
)

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of the pipeline sees, reported by every
// workload without tracing; BENCHMARK.json's end_to_end list names the
// same set. Op latencies are printed as notes, not metrics: every loop is
// closed, so across runs they moved with 1/ops_per_s (correlation 0.97 on
// grid-cold), as did CPU time per op (0.99).
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"ops_per_s", "1/s"},
	{"retained_heap_mb", "MB"},
}

// perLayer are the per-module metrics of the traced run; BENCHMARK.json's
// per_layer list names the same set. Every workload reports all of them:
// those it declares unmeasured as 0, every other one as measured. Counts
// and *_ms are per op.
var perLayer = []metricDef{
	{"minic.self_ms", "ms"},
	{"frontend.self_ms", "ms"},
	{"frontend.fn_relowered", "count"},
	{"opt.self_ms", "ms"},
	{"opt.passes_run", "count"},
	{"opt.passes_skipped", "count"},
	{"opt.snapshot_hit_ratio", "ratio"},
	{"codegen.self_ms", "ms"},
	{"codegen.calls", "count"},
	{"debugger.self_ms", "ms"},
	{"debugger.executions", "count"},
	{"conjecture.self_ms", "ms"},
	{"conjecture.violations", "count"},
	{"triage.self_ms", "ms"},
	{"triage.probes", "count"},
	{"triage.untriaged_ratio", "ratio"},
	{"schedreduce.self_ms", "ms"},
	{"schedreduce.probes", "count"},
	{"reduce.self_ms", "ms"},
	{"reduce.candidates", "count"},
	{"reduce.accept_ratio", "ratio"},
	{"cache.hit_ratio", "ratio"},
	{"cache.entries", "count"},
	{"engine.frontends", "count"},
	{"engine.compiles", "count"},
	{"engine.traces", "count"},
	{"engine.overhead_ms", "ms"},
	{"serve.p99_ms", "ms"},
	{"serve.max_rps_at_slo", "1/s"},
	{"serve.check_p99_ms", "ms"},
	{"serve.sweep_p99_ms", "ms"},
	{"serve.hot_p50_ms", "ms"},
	{"serve.ttfb_ms", "ms"},
	{"serve.rejected", "count"},
	{"serve.deadline", "count"},
	{"serve.respcache_hit_ratio", "ratio"},
	{"hunt.batch_p50_ms", "ms"},
	{"hunt.buckets", "count"},
	{"corpus.dup_ratio", "ratio"},
	{"corpus.encode_ms", "ms"},
	{"loadgen.lag_p99_ms", "ms"},
	{"loadgen.backlog_max", "count"},
	{"trace.overhead_ratio", "ratio"},
}

// workload is one workload's runner and the per-layer metrics its traced
// run does not measure.
type workload struct {
	name       string
	run        func(*runConfig) (*result, error)
	unmeasured []string
}

// Per-layer metric groups that whole workloads leave unmeasured.
var (
	// replayed are the layers and counts only a layer replay measures.
	replayed = []string{"minic.self_ms", "frontend.self_ms", "opt.self_ms", "codegen.self_ms", "debugger.self_ms",
		"conjecture.self_ms", "conjecture.violations", "triage.self_ms", "triage.probes", "triage.untriaged_ratio",
		"schedreduce.self_ms", "schedreduce.probes", "reduce.self_ms", "reduce.candidates", "reduce.accept_ratio",
		"engine.overhead_ms"}
	// reporting are the layers of turning a violation into a report.
	reporting = []string{"triage.self_ms", "triage.probes", "triage.untriaged_ratio", "schedreduce.self_ms",
		"schedreduce.probes", "reduce.self_ms", "reduce.candidates", "reduce.accept_ratio"}
	serving = []string{"serve.p99_ms", "serve.max_rps_at_slo", "serve.check_p99_ms", "serve.sweep_p99_ms",
		"serve.hot_p50_ms", "serve.ttfb_ms", "serve.rejected", "serve.deadline", "serve.respcache_hit_ratio",
		"loadgen.lag_p99_ms", "loadgen.backlog_max"}
	hunting = []string{"hunt.batch_p50_ms", "hunt.buckets", "corpus.dup_ratio", "corpus.encode_ms"}
)

// workloads are the workloads in the order -workload all runs them. On
// serve-mixed and hunt the layers run inside the server and Engine.Hunt,
// where the benchmark has no spans (it records spans only around its own
// calls), so those traced runs time only their requests and rounds.
var workloads = []workload{
	{"grid-cold", runGrid, slices.Concat(reporting, serving, hunting)},
	{"report", runReport, slices.Concat([]string{"debugger.self_ms", "conjecture.self_ms", "conjecture.violations"}, serving, hunting)},
	{"serve-mixed", runServe, slices.Concat(replayed, hunting)},
	{"hunt", runHunt, slices.Concat(replayed, serving)},
}

// runSeconds is the default length of a timed phase, BENCHMARK.json's
// run_seconds.
const runSeconds = 25

// runConfig is one run's settings.
type runConfig struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	small    bool
	update   bool
	root     string // repository root (testdata/golden, the pinned expectations)
	out      string // directory the trace file is written to: the build directory, or a test's own
	conns    int    // engine workers and HTTP connections: nproc
}

// deadline is when the timed phase started at t0 must stop.
func (c *runConfig) deadline(t0 time.Time) time.Time {
	return t0.Add(time.Duration(c.seconds * float64(time.Second)))
}

// result is what one workload run measured.
type result struct {
	attempted, failed int
	// mismatches describes every correctness check that failed; each also
	// counts as a failed op.
	mismatches []string
	values     map[string]float64
	// notes are informational lines (tails with their sample counts, SLO
	// verdicts) printed before the metrics.
	notes []string
}

func newResult() *result { return &result{values: map[string]float64{}} }

func (r *result) set(name string, v float64) { r.values[name] = v }

func (r *result) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// mismatch records a failed correctness check.
func (r *result) mismatch(format string, args ...any) {
	r.mismatches = append(r.mismatches, fmt.Sprintf(format, args...))
	r.failed++
}

func main() {
	var cfg runConfig
	scale := flag.String("scale", "full", "input scale: full or small (the smoke-test size)")
	flag.StringVar(&cfg.workload, "workload", "all", "workload: grid-cold, report, serve-mixed, hunt or all")
	flag.Int64Var(&cfg.seed, "seed", 1, "seed the workload's inputs are generated from")
	// The benchmark protocol passes BENCHMARK.json's run_seconds here on
	// every run, so both sides of a comparison measure for the same time.
	flag.Float64Var(&cfg.seconds, "seconds", runSeconds, "length of the timed phase in seconds")
	// An int, not a bool flag, so that "-trace 0" parses.
	trace := flag.Int("trace", 0, "1: measure the per-layer metrics with tracing and write trace-<workload>.json")
	flag.BoolVar(&cfg.update, "update", false, "rewrite testdata/expected.json from this run (default seed only)")
	flag.Parse()
	cfg.conns = runtime.NumCPU()
	switch *scale {
	case "full":
	case "small":
		cfg.small = true
	default:
		fatal(fmt.Errorf("unknown -scale %q", *scale))
	}
	switch *trace {
	case 0:
	case 1:
		cfg.trace = true
	default:
		fatal(fmt.Errorf("-trace must be 0 or 1, not %d", *trace))
	}
	if cfg.seconds <= 0 {
		fatal(errors.New("-seconds must be positive"))
	}
	root, err := findRoot()
	if err != nil {
		fatal(err)
	}
	cfg.root = root
	if cfg.out = os.Getenv("CARGO_TARGET_DIR"); cfg.out == "" {
		cfg.out = filepath.Join(root, ".bench_build")
	}
	if cfg.workload == "all" {
		os.Exit(runAll(os.Args[1:]))
	}
	for _, w := range workloads {
		if w.name == cfg.workload {
			if cfg.trace {
				if err := os.MkdirAll(cfg.out, 0o755); err != nil {
					fatal(err)
				}
			}
			os.Exit(report(&cfg, w))
		}
	}
	fatal(fmt.Errorf("unknown workload %q", cfg.workload))
}

// runAll re-executes this binary once per workload with the same flags,
// so each workload's memory is measured in a fresh process, and returns
// the worst exit code.
func runAll(args []string) int {
	self, err := os.Executable()
	if err != nil {
		fatal(err)
	}
	code := 0
	for _, w := range workloads {
		fmt.Printf("== %s\n", w.name)
		// The last -workload on a command line wins.
		cmd := exec.Command(self, append(args, "-workload", w.name)...)
		cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
		if err := cmd.Run(); err != nil {
			fmt.Fprintf(os.Stderr, "conjbench: %s: %v\n", w.name, err)
			code = 1
		}
	}
	return code
}

// report runs one workload, prints its metrics and the JSON result line,
// and returns the exit code: non-zero when an op failed or an output was
// wrong.
func report(cfg *runConfig, w workload) int {
	res, err := w.run(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "conjbench: %s: %v\n", cfg.workload, err)
		return 1
	}
	for _, m := range res.mismatches {
		fmt.Fprintf(os.Stderr, "conjbench: %s: wrong output: %s\n", cfg.workload, m)
	}
	if err := emit(os.Stdout, cfg.trace, w.unmeasured, res); err != nil {
		fmt.Fprintf(os.Stderr, "conjbench: %s: %v\n", cfg.workload, err)
		return 1
	}
	if res.failed > 0 || res.attempted == 0 {
		return 1
	}
	return 0
}

// metricValue is one metric in the JSON result line.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine is the JSON object a run prints last.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// emit prints the notes, one "name value unit" line per metric of the
// run's set (end-to-end, or per-layer when traced), and the JSON result
// line. A per-layer metric in unmeasured reads 0; any other metric the run
// did not measure is an error, as is a nonzero unmeasured one.
func emit(w io.Writer, traced bool, unmeasured []string, res *result) error {
	for _, n := range res.notes {
		fmt.Fprintf(w, "# %s\n", n)
	}
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	line := resultLine{Correct: len(res.mismatches) == 0, Attempted: res.attempted, Failed: res.failed,
		Metrics: map[string]metricValue{}}
	for _, d := range defs {
		v, ok := res.values[d.name]
		switch skip := traced && slices.Contains(unmeasured, d.name); {
		case skip && v != 0:
			return fmt.Errorf("%s is declared unmeasured but read %g", d.name, v)
		case !skip && !ok:
			return fmt.Errorf("%s was not measured", d.name)
		}
		fmt.Fprintf(w, "%s %s %s\n", d.name, strconv.FormatFloat(v, 'g', -1, 64), d.unit)
		line.Metrics[d.name] = metricValue{v, d.unit}
	}
	body, err := json.Marshal(line)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(w, string(body))
	return err
}

// findRoot walks up from the working directory to the repository root:
// the directory holding both the repository's go.mod and this command.
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if fileExists(filepath.Join(dir, "go.mod")) && fileExists(filepath.Join(dir, "cmd", "conjbench", "go.mod")) {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("cannot find the repository root (run from inside the repository)")
		}
		dir = parent
	}
}

func fileExists(path string) bool {
	_, err := os.Stat(path)
	return err == nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "conjbench:", err)
	os.Exit(2)
}
