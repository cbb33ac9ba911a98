// Command perfbench is the repository's benchmark: one command that runs
// one of four seeded, closed-loop workloads for a fixed time, checks every
// output for correctness, and prints every metric by name with its unit.
//
//	bash perfbench/run.sh --workload select-cold --seed 1 --seconds 25 --trace 0
//
// With --trace 0 it reports the end-to-end metrics; with --trace 1 it makes
// a separate traced run of the same seeded sequence and reports the
// per-layer ledger instead. The last line of standard output is one JSON
// object with the keys correct, attempted, failed and metrics. Every run
// also writes a fresh report (stamped with the source digest, seed and
// start time) under .bench_build/perfbench-reports/. See README.md for the
// workloads, the metrics and the layer map.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"time"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's final line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// options configure one run. tiny shrinks every workload's inputs; only the
// self-tests set it.
type options struct {
	seed    int64
	seconds float64
	tiny    bool
	// corrupt, when set, receives every unit's outputs before they are
	// checked; the self-tests use it to prove the checks fire.
	corrupt func(unit int, out any)
}

// workload is one seeded benchmark workload. setup builds what a user pays
// for at start; with keep it installs the result as the state measured,
// without it (a set-up probe during the run) it builds and releases it,
// leaving the measured state untouched. unit runs timed unit i of the
// seeded sequence for one caller. check verifies unit i's outputs outside
// the timed region.
type workload interface {
	setup(ctx context.Context, keep bool) error
	// callers is the closed-loop caller count.
	callers() int
	unit(ctx context.Context, caller, i int) (any, error)
	check(i int, out any) error
	// unitOf names the timed unit and the tail percentile reported on it.
	unitOf() (name string, tailQ float64)
	// extra adds workload-specific end-to-end metrics (miss_p50_ms) and
	// checks after the timed run; done releases the workload's resources.
	extra(r *report, outs []outcome) error
	// traced runs the per-layer ledger and returns its metrics.
	traced(ctx context.Context, budget time.Duration, tr *tracer) (map[string]float64, error)
	done()
}

// preparer is a workload whose seeded inputs and reference answers are
// built once before setup is timed.
type preparer interface {
	inputs(ctx context.Context) error
}

var workloads = map[string]func(opts options) workload{
	"select-cold":   newSelectCold,
	"sweep-gemm":    newSweepGemm,
	"sweep-catalog": newSweepCatalog,
	"serve-mixed":   newServeMixed,
}

// setupProbes is how many times a timed run pauses to probe set-up. The
// probes are spread evenly over the timed window, so the machine's drift
// over the run reaches setup_s as it reaches the timed metrics; setup_s is
// their median. A probe repeats set-up until probeMin has passed and takes
// the mean, so a set-up of microseconds is still timed over milliseconds.
const (
	setupProbes = 12
	probeMin    = 20 * time.Millisecond
)

// endToEnd lists the metrics an untraced run reports.
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"throughput_per_s", "1/s"},
	{"p50_ms", "ms"},
	{"tail_ms", "ms"},
	{"miss_p50_ms", "ms"},
	{"peak_heap_mb", "MB"},
}

// warmUp caps the untimed warm-up before the timed window (a tenth of the
// run when that is shorter).
const warmUp = 2 * time.Second

// Index ranges of the seeded sequence: the timed run uses 0, 1, ...; the
// warm-up and the traced run's phases start far beyond it, so a request
// that must be a fresh miss is never one the same process sent before.
const (
	warmBase  = 1 << 22
	traceBase = 1 << 23
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: select-cold, sweep-gemm, sweep-catalog or serve-mixed")
	seed := fs.Int64("seed", 1, "workload seed")
	seconds := fs.Float64("seconds", 25, "measured seconds")
	traceFlag := fs.Int("trace", 0, "1 = traced per-layer run, 0 = end-to-end run")
	root := fs.String("root", ".", "repository root (reports go to <root>/.bench_build/perfbench-reports)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	mk, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload (%s), --seconds > 0 and --trace 0|1\n", workloadNames())
		return 2
	}
	started := time.Now()
	opts := options{seed: *seed, seconds: *seconds}
	rep, err := measure(context.Background(), mk(opts), opts, *traceFlag == 1)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", *name, err)
		return 1
	}
	rep.Stamp = stamp{
		Source:     sourceDigest(*root),
		Workload:   *name,
		Seed:       *seed,
		Seconds:    *seconds,
		Trace:      *traceFlag == 1,
		Started:    started.UTC().Format(time.RFC3339Nano),
		GoMaxProcs: runtime.GOMAXPROCS(0),
	}
	path, err := rep.write(*root)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: writing report: %v\n", err)
		return 1
	}
	fmt.Fprintf(stderr, "perfbench: report written to %s\n", path)
	for _, f := range rep.Failures {
		fmt.Fprintf(stderr, "perfbench: FAILED: %s\n", f)
	}
	line, err := json.Marshal(rep.result())
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !rep.Correct {
		return 1
	}
	return 0
}

func workloadNames() string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return fmt.Sprint(names)
}

// measure runs one workload end to end: set-up, warm-up, the timed
// closed loop, then the checks; or, when traced, the per-layer ledger.
func measure(ctx context.Context, w workload, opts options, traced bool) (*report, error) {
	defer w.done()
	rep := newReport()
	budget := time.Duration(opts.seconds * float64(time.Second))
	if p, ok := w.(preparer); ok {
		if err := p.inputs(ctx); err != nil {
			return nil, fmt.Errorf("inputs: %w", err)
		}
	}
	if err := w.setup(ctx, true); err != nil {
		return nil, fmt.Errorf("setup: %w", err)
	}
	if traced {
		tr := newTracer()
		layers, err := w.traced(ctx, budget, tr)
		if err != nil {
			rep.fail("traced run: %v", err)
		}
		for _, m := range perLayer {
			v, ok := layers[m.name]
			if !ok && err == nil {
				rep.fail("traced run did not measure %s", m.name)
			}
			rep.add(m.name, v, m.unit, nil)
		}
		rep.Spans = tr.len()
		rep.Attempted, rep.FailedOps = tr.attempted, tr.failed
		if err != nil && rep.FailedOps == 0 {
			rep.FailedOps = 1
		}
		rep.tracer = tr
		rep.Correct = len(rep.Failures) == 0
		return rep, nil
	}
	unitName, tailQ := w.unitOf()
	rep.Unit = unitName

	// Warm-up: lazy set-up finishes and caches the process keeps fill
	// before timing; the first unit's outputs also seed the references.
	warmEnd := time.Now().Add(min(budget/10, warmUp))
	for i := warmBase; i == warmBase || time.Now().Before(warmEnd); i++ {
		out, err := w.unit(ctx, 0, i)
		if err == nil {
			err = w.check(i, out)
		}
		if err != nil {
			return nil, fmt.Errorf("warm-up: %w", err)
		}
	}
	runtime.GC()
	lat, wall, rt, outs, err := closedLoop(ctx, w, opts, budget)
	if err != nil {
		return nil, err
	}
	rep.add("setup_s", median(rt.setups), "s", rt.setups)
	for _, o := range outs {
		rep.Attempted++
		if o.err != nil {
			rep.FailedOps++
			if rep.FailedOps <= 5 {
				rep.fail("unit %d: %v", o.i, o.err)
			}
		}
	}
	if rep.FailedOps > 5 {
		rep.fail("%d units failed in all", rep.FailedOps)
	}
	if len(lat) == 0 {
		return nil, fmt.Errorf("no unit completed in %v", budget)
	}
	rep.add("throughput_per_s", float64(len(lat))/wall.Seconds(), "1/s", nil)
	rep.addTiming("p50_ms", lat, 0.5)
	if err := rep.addTail(lat, tailQ); err != nil {
		rep.fail("%v", err)
	}
	rep.add("peak_heap_mb", rt.peakHeapMB, "MB", nil)
	rep.GCCycles = rt.gcCycles
	rep.AllocKBPerUnit = rt.allocKB / float64(len(lat))
	if err := w.extra(rep, outs); err != nil {
		rep.fail("%v", err)
	}
	for _, m := range endToEnd {
		if _, ok := rep.Metrics[m.name]; !ok {
			rep.fail("no %s measured", m.name)
		}
	}
	rep.Correct = len(rep.Failures) == 0
	return rep, nil
}
