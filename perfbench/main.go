// Command perfbench is the repository benchmark. It drives the lpmem
// registry, the trace/simulator/sweep stack and an in-process lpmemd
// through their public functions, times every call from outside, checks
// every output, and prints one JSON result line:
//
//	go run . -workload registry|simulate|serve -seed N -seconds S -trace 0|1 -root ..
//
// With -trace 0 the line carries the end-to-end metrics, which every
// workload reports: set-up time, peak memory, the time of one unit of the
// workload's work, and the median and p99 latency of its single calls.
// With -trace 1 a separate traced run records spans around each layer
// call and reports the per-layer metrics instead; it runs all three
// workloads in turn, so every layer is measured whichever is named.
// README.md documents the workloads, the metric map and how the
// benchmark relates to lpmembench.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"lpmem"
)

// options is one benchmark invocation.
type options struct {
	workload string
	seed     int64
	seconds  float64
	traced   bool
	// golden is the testdata/golden directory every registry output is
	// compared against; work is a scratch directory for stores and the
	// span dump, removed (except the dump) when the run ends.
	golden string
	work   string
	// exps and accesses shrink the workloads for tests: nil means the
	// whole registry, 0 means simAccesses.
	exps     []lpmem.Experiment
	accesses int
}

func (o options) experiments() []lpmem.Experiment {
	if o.exps != nil {
		return o.exps
	}
	return lpmem.Experiments()
}

func (o options) traceLen() int {
	if o.accesses > 0 {
		return o.accesses
	}
	return simAccesses
}

// budget is the measurement window.
func (o options) budget() time.Duration {
	return time.Duration(o.seconds * float64(time.Second))
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run parses the flags, runs one workload and prints its result line.
// Exit codes: 0 measured (the line says whether outputs were correct),
// 1 the workload could not run, 2 usage.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	var traceFlag int
	var root string
	fs.StringVar(&o.workload, "workload", "", "registry, simulate or serve")
	fs.Int64Var(&o.seed, "seed", 1, "workload seed (registry ignores it: its goldens fix its inputs)")
	fs.Float64Var(&o.seconds, "seconds", 25, "measurement window in seconds")
	fs.IntVar(&traceFlag, "trace", 0, "1 reports per-layer metrics from a traced run")
	fs.StringVar(&root, "root", ".", "repository root: goldens are read from <root>/testdata/golden, scratch files go to <root>/.bench_build/run")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if traceFlag != 0 && traceFlag != 1 {
		fmt.Fprintf(stderr, "perfbench: -trace must be 0 or 1, got %d\n", traceFlag)
		return 2
	}
	o.traced = traceFlag == 1
	o.golden = filepath.Join(root, "testdata", "golden")
	o.work = filepath.Join(root, ".bench_build", "run")
	if o.seconds <= 0 {
		fmt.Fprintf(stderr, "perfbench: -seconds must be positive\n")
		return 2
	}
	if _, ok := workloadRuns[o.workload]; !ok {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q (registry, simulate, serve)\n", o.workload)
		return 2
	}
	return execute(o, stdout, stderr)
}

// workloadRuns are the untraced runs, which report the end-to-end
// metrics.
var workloadRuns = map[string]func(options, *report) error{
	"registry": runRegistry,
	"simulate": runSimulate,
	"serve":    runServe,
}

// ledgerSections are the traced run's sections in the order they run;
// each returns its tracing overhead in percent.
var ledgerSections = []struct {
	workload string
	run      func(options, *report) (float64, error)
}{
	{"registry", traceRegistry},
	{"simulate", traceSimulate},
	{"serve", traceServe},
}

// runLedger is the traced run. It is the same for every workload: it
// runs the traced section of each workload in turn, so every per-layer
// metric is reported whichever workload is named. The named workload's
// section gives tracing.overhead_pct; the runtime metrics cover the
// whole run.
func runLedger(o options, rep *report) error {
	rt := startRuntimeSampler()
	for _, s := range ledgerSections {
		pct, err := s.run(o, rep)
		if err != nil {
			return fmt.Errorf("traced %s section: %w", s.workload, err)
		}
		if s.workload == o.workload {
			rep.set("tracing.overhead_pct", pct, "%")
		}
	}
	rt.finish(rep)
	return nil
}

// execute runs one workload and prints its result line; see run for
// the exit codes.
func execute(o options, stdout, stderr io.Writer) int {
	if err := os.MkdirAll(o.work, 0o755); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	rep := newReport(stderr)
	if o.traced {
		rep.spans = newRecorder()
	}
	runWorkload := workloadRuns[o.workload]
	if o.traced {
		runWorkload = runLedger
	}
	if err := runWorkload(o, rep); err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", o.workload, err)
		return 1
	}
	if rep.spans != nil {
		path := filepath.Join(o.work, fmt.Sprintf("spans-%s-seed%d.jsonl", o.workload, o.seed))
		if err := rep.spans.writeFile(path); err != nil {
			fmt.Fprintf(stderr, "perfbench: %v\n", err)
			return 1
		}
		fmt.Fprintf(stderr, "perfbench: %d spans written to %s\n", rep.spans.len(), path)
		rep.addSelfTimes()
	}
	line, err := rep.line()
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report accumulates a run's checked operations and metrics. Checks
// may come from concurrent generator workers, hence the mutex.
type report struct {
	mu        sync.Mutex
	attempted int
	failed    int
	metrics   map[string]metric
	log       io.Writer
	// spans is nil on untraced runs.
	spans *recorder
}

func newReport(log io.Writer) *report {
	return &report{metrics: map[string]metric{}, log: log}
}

// maxLoggedFailures bounds the failure lines a broken tree prints.
const maxLoggedFailures = 20

// check counts one attempted operation, failed unless ok.
func (r *report) check(ok bool, format string, args ...interface{}) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.attempted++
	if ok {
		return
	}
	r.failed++
	if r.failed <= maxLoggedFailures {
		fmt.Fprintf(r.log, "perfbench: check failed: %s\n", fmt.Sprintf(format, args...))
	}
}

// set records a metric.
func (r *report) set(name string, value float64, unit string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.metrics[name] = metric{Value: value, Unit: unit}
}

// setWork reports the end-to-end figures every workload shares besides
// set-up and memory: work_s, the time of one unit of the workload's work,
// and the median and p99 of its single calls' latencies in ms.
func (r *report) setWork(workS float64, callsMS []float64) {
	r.set("work_s", workS, "s")
	r.set("call_p50_ms", median(callsMS), "ms")
	r.set("call_p99_ms", quantile(callsMS, 0.99), "ms")
}

// addSelfTimes reports each layer's self time from the recorded spans.
func (r *report) addSelfTimes() {
	for layer, d := range r.spans.selfTimes() {
		r.set("self_ms."+layer, ms(d), "ms")
	}
}

// line renders the result line. A run that attempted nothing has not
// measured anything and is an error, not a result.
func (r *report) line() ([]byte, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.attempted == 0 {
		return nil, fmt.Errorf("no operation was attempted")
	}
	return json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{r.failed == 0, r.attempted, r.failed, r.metrics})
}

// quantile returns the q-quantile (0..1) of xs by linear interpolation
// between closest ranks; xs need not be sorted and is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// repeat runs setup n times and returns the median wall time in
// seconds; the last call's state is the one the workload keeps.
func repeat(n int, setup func() error) (float64, error) {
	var secs []float64
	for i := 0; i < n; i++ {
		start := time.Now()
		if err := setup(); err != nil {
			return 0, err
		}
		secs = append(secs, time.Since(start).Seconds())
	}
	return median(secs), nil
}

// peakRSSMB reads the process's resident-set high-water mark (VmHWM).
func peakRSSMB() (float64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("reading peak RSS: %w", err)
	}
	var kb float64
	for _, line := range strings.Split(string(b), "\n") {
		if n, _ := fmt.Sscanf(line, "VmHWM: %f kB", &kb); n == 1 {
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM line in /proc/self/status")
}
