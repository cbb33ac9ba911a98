package main

import (
	"context"
	"fmt"
	"runtime"
	"time"
)

// perLayer lists every per-layer metric a traced run reports, named by
// the module it measures. A layer a workload never reaches reads 0 on that
// workload (README.md maps each metric to the workload that moves it).
var perLayer = []struct{ name, unit string }{
	{"analysis.analyze_ms", "ms"},
	{"feas.derive_ms", "ms"},
	{"feas.static_skips", "count"},
	{"core.select_ms", "ms"},
	{"core.solve_ms", "ms"},
	{"core.modelgen_ms", "ms"},
	{"core.solver_calls", "count"},
	{"core.unsat_calls", "count"},
	{"core.useful_ratio", "ratio"},
	{"smt.nodes", "count"},
	{"smt.ns_per_node", "ns"},
	{"ppcg.compile_us_per_point", "us"},
	{"gpusim.simulate_us_per_point", "us"},
	{"symbolic.derive_ms", "ms"},
	{"symbolic.eval_us_per_point", "us"},
	{"eatss.eval_dispatch_us_per_point", "us"},
	{"sweep.residual_points", "count"},
	{"sweep.engine_us_per_point", "us"},
	{"sweep.parallel_speedup", "ratio"},
	{"serve.do_hit_ms", "ms"},
	{"serve.do_miss_ms", "ms"},
	{"serve.http_overhead_ms", "ms"},
	{"parser.parse_ms", "ms"},
	{"lint.lint_ms", "ms"},
	{"serve.selection_hit_ratio", "ratio"},
	{"serve.program_hit_ratio", "ratio"},
	{"serve.solves", "count"},
	{"serve.coalesced", "count"},
	{"serve.shed", "count"},
	{"runtime.alloc_kb_per_op", "KB"},
	{"runtime.gc_cycles_per_op", "count"},
	{"ledger.residual_ratio", "ratio"},
	{"ledger.tracing_overhead_ratio", "ratio"},
}

// residualBound is the largest share of a traced op's wall time the
// layer spans may leave unattributed; a traced run above it fails.
const residualBound = 0.10

// ledgerRun is the part of every traced run the workloads share: the
// workload's real unit run untraced (allocation and GC cost per op), and
// the layer replay run alternately untraced and traced. It fills the runtime
// and ledger metrics into m and returns the traced ledger.
func ledgerRun(ctx context.Context, w workload, budget time.Duration, tr *tracer, replay func(i int, tr *tracer) error, m map[string]float64) (ledger, error) {
	runtime.GC()
	before := readRuntime(mGC, mAllocs)
	n := 0
	for start := time.Now(); n == 0 || time.Since(start) < budget/4; n++ {
		out, err := w.unit(ctx, 0, n)
		if err == nil {
			err = w.check(n, out)
		}
		if err != nil {
			return ledger{}, fmt.Errorf("unit %d: %w", n, err)
		}
	}
	after := readRuntime(mGC, mAllocs)
	m["runtime.alloc_kb_per_op"] = (after[1] - before[1]) / 1024 / float64(n)
	m["runtime.gc_cycles_per_op"] = (after[0] - before[0]) / float64(n)

	// Untraced and traced replays alternate op by op, so drift in the
	// machine's speed hits both sides alike.
	off := &tracer{}
	var walls [2]time.Duration
	runtime.GC()
	start := time.Now()
	for i := 0; i == 0 || time.Since(start) < budget/2; i++ {
		for k, t := range []*tracer{off, tr} {
			t0 := time.Now()
			if err := replay(i, t); err != nil {
				return ledger{}, err
			}
			walls[k] += time.Since(t0)
		}
	}
	m["ledger.tracing_overhead_ratio"] = walls[1].Seconds()/walls[0].Seconds() - 1
	l := tr.ledger()
	m["ledger.residual_ratio"] = l.residualRatio()
	if r := l.residualRatio(); r > residualBound {
		return l, fmt.Errorf("ledger: %.1f%% of traced op time is outside every layer span (bound %.0f%%)", 100*r, 100*residualBound)
	}
	return l, nil
}
