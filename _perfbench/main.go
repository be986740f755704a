// Command perfbench is the repository benchmark. One invocation runs one
// workload against code built from the same checkout and prints, as the
// last line of standard output, one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end metrics; with -trace 1 they
// are the per-layer metrics of a traced run. Run it through run.sh, which
// builds this program and gpowerd first:
//
//	bash _perfbench/run.sh --workload predict-batch --seed 1 --seconds 10 --trace 0
//
// README.md in this directory explains the workloads and the metrics.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"sort"
	"strings"
	"time"
)

// metric is one named value of the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricSet collects the metrics of one run, keyed by name.
type metricSet map[string]metric

func (m metricSet) set(name, unit string, v float64) { m[name] = metric{Value: v, Unit: unit} }

// result is the last line a run prints.
type result struct {
	Correct   bool      `json:"correct"`
	Attempted int64     `json:"attempted"`
	Failed    int64     `json:"failed"`
	Metrics   metricSet `json:"metrics"`
}

// config is what every workload receives.
type config struct {
	seed    uint64
	seconds float64
	trace   bool
	gpowerd string // path of the gpowerd binary (serving workloads)
	out     string // directory for trace files and other run output
}

// outcome is what a workload hands back: operations attempted and failed,
// the end-to-end metrics and, in a traced run, the per-layer metrics.
type outcome struct {
	attempted, failed int64
	e2e, layer        metricSet
}

func newOutcome() *outcome { return &outcome{e2e: metricSet{}, layer: metricSet{}} }

// fail records n failed operations with the reason on standard error.
func (o *outcome) fail(n int64, format string, args ...any) {
	o.failed += n
	fmt.Fprintf(os.Stderr, "perfbench: FAILED: "+format+"\n", args...)
}

// workloads maps each workload name to the function that runs it.
var workloads = map[string]func(context.Context, *config) (*outcome, error){
	"predict-batch": runPredictBatch,
	"govern-stream": runGovernStream,
	"fit-fleet":     runFitFleet,
	"fleet-sim":     runFleetSim,
}

// e2eUnits and layerUnits name every metric a run must print, with its
// unit; they match BENCHMARK.json.
var e2eUnits = map[string]string{
	"setup_s":               "s",
	"p50_ms":                "ms",
	"max_rps":               "1/s",
	"server_cpu_ms_per_req": "ms",
	"fit_s":                 "s",
	"fit_mape_pct":          "%",
	"sim_events_per_s":      "1/s",
	"peak_rss_mb":           "MB",
}

func main() {
	workload := flag.String("workload", "", "workload to run: predict-batch, govern-stream, fit-fleet or fleet-sim")
	seed := flag.Uint64("seed", 1, "seed the workload's inputs are generated from")
	seconds := flag.Float64("seconds", 10, "length of the measured phase, in seconds")
	trace := flag.Int("trace", 0, "1 runs the traced variant and prints per-layer metrics")
	gpowerd := flag.String("gpowerd", "", "path of the gpowerd binary")
	out := flag.String("out", ".bench_build", "directory for trace files")
	flag.Parse()

	run, ok := workloads[*workload]
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (want one of %s)\n", *workload, strings.Join(workloadNames(), ", "))
		os.Exit(2)
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: -seconds must be positive and -trace 0 or 1")
		os.Exit(2)
	}
	cfg := &config{seed: *seed, seconds: *seconds, trace: *trace == 1, gpowerd: *gpowerd, out: *out}
	res, err := execute(context.Background(), run, cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *workload, err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// execute runs one workload and assembles the result line, refusing to
// print one that misses a metric, carries a non-finite value or a unit
// other than the declared one.
func execute(ctx context.Context, run func(context.Context, *config) (*outcome, error), cfg *config) (*result, error) {
	if err := os.MkdirAll(cfg.out, 0o755); err != nil {
		return nil, err
	}
	o, err := run(ctx, cfg)
	if err != nil {
		return nil, err
	}
	if o.attempted < 1 {
		return nil, fmt.Errorf("no operation attempted")
	}
	ms := o.e2e
	want := e2eUnits
	if cfg.trace {
		ms, want = o.layer, layerUnits
	}
	for name, unit := range want {
		m, ok := ms[name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", name)
		}
		if m.Unit != unit {
			return nil, fmt.Errorf("metric %s has unit %q, want %q", name, m.Unit, unit)
		}
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return nil, fmt.Errorf("metric %s is %v", name, m.Value)
		}
	}
	for name := range ms {
		if _, ok := want[name]; !ok {
			return nil, fmt.Errorf("metric %s is not declared", name)
		}
	}
	return &result{Correct: o.failed == 0, Attempted: o.attempted, Failed: o.failed, Metrics: ms}, nil
}

// setupReps is how many times a run sets up (and, where set-up includes
// a fit, fits); setup_s and fit_s are the medians.
const setupReps = 5

// span returns the given share of the run's measured seconds.
func (c *config) span(share float64) time.Duration {
	return time.Duration(share * c.seconds * float64(time.Second))
}
