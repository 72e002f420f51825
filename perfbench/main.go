// Command perfbench is the taskml benchmark. It drives the three runs a
// user starts — the Table I training pipeline (train), the remote Gram
// reduction (reduce) and the always-on serving load (serve) — through the
// library's public functions, times those calls from outside, checks every
// output against an independent reference, and prints one JSON result line.
//
// Usage (from the repository root; run.sh builds the binary first):
//
//	bash perfbench/run.sh --workload train --seed 1 --seconds 20 --trace 0
//
// With --trace 0 the result carries the end-to-end metrics; with --trace 1
// it carries the per-layer metrics, and the run also writes a Chrome trace
// and a per-layer self-time table under --out. See README.md for the
// workloads, the metrics and which layer metric should move which
// end-to-end metric.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	"taskml/internal/exec"
)

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of the system sees, reported with tracing
// off. Every workload reports every one of them; what "one operation" is
// differs by workload (see README.md).
var endToEnd = []metricDef{
	{"latency_p50_ms", "ms"},
	{"latency_tail_ms", "ms"},
	{"throughput_per_s", "1/s"},
	{"peak_rss_mb", "MB"},
	{"setup_s", "s"},
}

// perLayer are the single-layer metrics of the traced run. A layer a
// workload leaves idle reports 0.
var perLayer = []metricDef{
	{"core.dataset_s", "s"},
	{"preproc.pca_s", "s"},
	{"mat.eigsym_s", "s"},
	{"svm.cv_s", "s"},
	{"knn.cv_s", "s"},
	{"forest.cv_s", "s"},
	{"eddl.cv_s", "s"},
	{"mat.gram_ms", "ms"},
	{"exec.coord_mb", "MB"},
	{"exec.peer_mb", "MB"},
	{"exec.dispatched", "count"},
	{"exec.ref_hit_rate", "ratio"},
	{"exec.fallbacks", "count"},
	{"exec.overhead_ms", "ms"},
	{"compss.tasks", "count"},
	{"compss.queued_s", "s"},
	{"compss.busy_frac", "ratio"},
	{"serve.admit_us", "us"},
	{"serve.push_us", "us"},
	{"serve.batch_mean", "windows"},
	{"serve.queue_max", "windows"},
	{"serve.score_ms", "ms"},
	{"serve.shed", "count"},
	{"serve.rejected", "count"},
	{"driver.lag_p99_ms", "ms"},
	{"trace.overhead_frac", "ratio"},
}

// runConfig is what every workload receives.
type runConfig struct {
	seed    int64
	seconds time.Duration
	trace   bool
	outDir  string
	log     io.Writer
}

// outcome is one workload run's report. problems lists every failed output
// check; metrics holds the end-to-end metrics (trace off) or the per-layer
// metrics (trace on) by name.
type outcome struct {
	attempted, failed int
	problems          []string
	metrics           map[string]float64
}

// fail records a wrong output: a failed operation that also fails the run.
func (o *outcome) fail(format string, args ...any) {
	o.failed++
	if len(o.problems) < 20 {
		o.problems = append(o.problems, fmt.Sprintf(format, args...))
	}
}

// maxErrors is how many operations may return an error before a run gives
// up.
const maxErrors = 3

// errored records an attempted operation the library failed with an error
// rather than a wrong output: it is counted and left out of the timings,
// and the run goes on.
func (o *outcome) errored(log io.Writer, what string, err error) error {
	o.attempted++
	o.failed++
	fmt.Fprintf(log, "perfbench: %s failed: %v\n", what, err)
	if o.failed > maxErrors {
		return fmt.Errorf("%d operations failed, last: %w", o.failed, err)
	}
	return nil
}

var workloads = map[string]func(runConfig) (*outcome, error){
	"train":  runTrain,
	"reduce": runReduce,
	"serve":  runServe,
}

func main() {
	exec.MaybeWorkerMain() // loopback workers re-exec this binary
	// A reader that goes away must not kill the run before it has closed
	// its worker fleet: writes to a broken pipe return an error instead.
	signal.Ignore(syscall.SIGPIPE)
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: train | reduce | serve")
	seed := fs.Int64("seed", 1, "workload seed")
	seconds := fs.Int("seconds", 20, "measured seconds")
	traced := fs.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	outDir := fs.String("out", ".bench_build/perfbench", "directory for the traced run's Chrome trace and self-time table")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	wl, ok := workloads[*name]
	if !ok || *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload train|reduce|serve, --seconds ≥ 1, --trace 0|1\n")
		return 2
	}
	// The workloads are defined for a two-core client: cap the scheduler
	// so larger machines run the same shape.
	if runtime.GOMAXPROCS(0) > 2 {
		runtime.GOMAXPROCS(2)
	}
	cfg := runConfig{
		seed: *seed, seconds: time.Duration(*seconds) * time.Second,
		trace: *traced == 1, outDir: *outDir, log: stderr,
	}
	out, err := wl(cfg)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", *name, err)
		return 1
	}
	defs := endToEnd
	if cfg.trace {
		defs = perLayer
	}
	type metric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]metric{}
	for _, d := range defs {
		v, ok := out.metrics[d.name]
		if !ok && !cfg.trace {
			fmt.Fprintf(stderr, "perfbench: %s: end-to-end metric %s not measured\n", *name, d.name)
			return 1
		}
		metrics[d.name] = metric{Value: v, Unit: d.unit}
	}
	for _, p := range out.problems {
		fmt.Fprintf(stderr, "perfbench: %s: check failed: %s\n", *name, p)
	}
	correct := len(out.problems) == 0
	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{correct, out.attempted, out.failed, metrics})
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !correct {
		return 1
	}
	return 0
}

// peakRSSMB is the benchmark process's own peak resident set size so far;
// the worker processes it spawns are not included. Each workload reads it
// after a fixed amount of work rather than at the end of the run: the
// coordinator retains memory per operation, so a reading at the end would
// grow with throughput.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}
