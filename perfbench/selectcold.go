package main

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"time"

	eatss "repro"
	"repro/internal/analysis"
	"repro/internal/codegen"
	"repro/internal/core"
	"repro/internal/feas"
	"repro/internal/gpusim"
	"repro/internal/ppcg"
)

// pair is one (kernel, GPU) input of the paper's protocol: GA100 with the
// EXTRALARGE parameters (params nil), Xavier with STANDARD.
type pair struct {
	k      *eatss.AffineKernel
	g      *eatss.GPU
	params map[string]int64
}

func (p pair) String() string { return p.k.Name + "/" + p.g.Name }

// catalogPairs resolves the catalog x {GA100, Xavier} inputs.
func catalogPairs(tiny bool) ([]pair, error) {
	names := eatss.Kernels()
	if tiny {
		names = []string{"jacobi-1d", "syrk"}
	}
	var out []pair
	for _, name := range names {
		k, err := eatss.Kernel(name)
		if err != nil {
			return nil, err
		}
		std, err := eatss.StandardParams(name)
		if err != nil {
			return nil, err
		}
		out = append(out, pair{k: k, g: eatss.GA100()}, pair{k: k, g: eatss.Xavier(), params: std})
	}
	return out, nil
}

// chosen is what a caller takes from one SelectBest: the tiles, the split
// they were solved under and the simulated performance-per-Watt.
type chosen struct {
	Tiles       map[string]int64
	Split       float64
	PPW         float64
	SolverCalls int
}

func chosenOf(b *eatss.Best) chosen {
	return chosen{Tiles: b.Chosen.Selection.Tiles, Split: b.Chosen.SharedFrac, PPW: b.Chosen.Result.PPW, SolverCalls: b.SolverCalls}
}

// selectCold is the paper's end-to-end protocol from nothing: one caller
// runs eatss.Analyze plus Program.SelectBest over every pair, in a seeded
// order. The timed unit is one full pass over the pairs.
type selectCold struct {
	opts  options
	pairs []pair
	ref   []chosen // certified reference per pair, from the first pass
}

func newSelectCold(opts options) workload { return &selectCold{opts: opts} }

// setup is what the caller pays at start: resolving its kernels, their
// params and the GPUs. The library keeps no other state between calls.
func (w *selectCold) setup(_ context.Context, keep bool) error {
	pairs, err := catalogPairs(w.opts.tiny)
	if err == nil && keep {
		w.pairs = pairs
	}
	return err
}

func (w *selectCold) callers() int              { return 1 }
func (w *selectCold) unitOf() (string, float64) { return "pass", 0.9 }
func (w *selectCold) extra(r *report, _ []outcome) error {
	r.add("miss_p50_ms", r.Metrics["p50_ms"].Value, "ms", nil)
	return nil
}
func (w *selectCold) done() {}

// order is pass i's seeded visiting order.
func (w *selectCold) order(i int) []int {
	return rand.New(rand.NewSource(w.opts.seed*7919 + int64(i))).Perm(len(w.pairs))
}

func (w *selectCold) unit(ctx context.Context, _, i int) (any, error) {
	out := make([]chosen, len(w.pairs))
	for _, j := range w.order(i) {
		p := w.pairs[j]
		prog, err := eatss.AnalyzeCtx(ctx, p.k, p.params)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		best, err := prog.SelectBest(p.g, eatss.FP64)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		if w.ref == nil {
			// The first pass's selections become the reference only once
			// every candidate passes the independent certifier.
			for _, c := range best.Candidates {
				if err := eatss.Certify(prog.Kernel(), p.g, c.Selection); err != nil {
					return nil, fmt.Errorf("%s: split %.2f: %w", p, c.SharedFrac, err)
				}
			}
		}
		out[j] = chosenOf(best)
	}
	return out, nil
}

// check compares a pass to the certified reference: every selection must
// repeat exactly.
func (w *selectCold) check(_ int, out any) error {
	got := out.([]chosen)
	if w.ref == nil {
		w.ref = got
		return nil
	}
	for j, c := range got {
		if !reflect.DeepEqual(c, w.ref[j]) {
			return fmt.Errorf("%s: selection %+v differs from the certified %+v", w.pairs[j], c, w.ref[j])
		}
	}
	return nil
}

// replayStats are the counts the core layer reports about its own calls.
type replayStats struct {
	solveNs, nodes          int64
	solverCalls, unsat, sat int
	staticSkips             int
}

// selectBestTraced drives the SelectBest protocol through the layers it
// is made of — analysis, feas, core, ppcg, gpusim — recording a span
// around each call, and returns what the library's SelectBest chooses.
func selectBestTraced(ctx context.Context, p pair, tr *tracer, root int32, st *replayStats) (chosen, error) {
	kk := p.k
	if p.params != nil {
		kk = p.k.WithParams(p.params)
	}
	s := tr.begin("analysis.analyze", root)
	prog := analysis.AnalyzeCtx(ctx, kk, nil)
	tr.end(s)
	var out chosen
	found := false
	for _, split := range eatss.SharedSplits {
		var sel *core.Selection
		err := fmt.Errorf("no warp fraction tried")
		for _, wf := range eatss.WarpFractions {
			s = tr.begin("feas.derive", root)
			region := feas.Derive(prog, p.g, feas.ModelConfig(split, wf, eatss.FP64))
			tr.end(s)
			if region.Empty != nil {
				st.staticSkips++
				continue
			}
			s = tr.begin("core.select", root)
			sel, err = core.SelectTilesAnalyzed(ctx, prog, p.g, core.Options{
				SplitFactor: split, WarpFraction: wf, Precision: eatss.FP64, ProblemSizeAware: true,
			})
			tr.end(s)
			if err == nil {
				st.sat++
				st.solverCalls += sel.SolverCalls
				st.solveNs += int64(sel.Search.Elapsed)
				st.nodes += sel.Search.Nodes
				break
			}
			st.unsat++
		}
		if err != nil {
			continue
		}
		out.SolverCalls += sel.SolverCalls
		s = tr.begin("ppcg.compile", root)
		mk, err := ppcg.CompileAnalyzed(ctx, prog, nil, sel.Tiles, p.g, codegen.Options{UseShared: split > 0, Precision: eatss.FP64})
		tr.end(s)
		if err != nil {
			continue
		}
		s = tr.begin("gpusim.simulate", root)
		res := gpusim.SimulateCtx(ctx, mk, p.g)
		tr.end(s)
		if !found || res.PPW > out.PPW {
			out.Tiles, out.Split, out.PPW = sel.Tiles, split, res.PPW
			found = true
		}
	}
	if !found {
		return out, fmt.Errorf("%s: no feasible configuration", p)
	}
	return out, nil
}

func (w *selectCold) traced(ctx context.Context, budget time.Duration, tr *tracer) (map[string]float64, error) {
	m := map[string]float64{}
	var st replayStats
	passes := 0
	replay := func(i int, t *tracer) error {
		for _, j := range w.order(i) {
			p := w.pairs[j]
			root := t.begin("op", -1)
			var ps replayStats
			got, err := selectBestTraced(ctx, p, t, root, &ps)
			t.end(root)
			if t.on {
				t.attempted++
			}
			if err == nil && !reflect.DeepEqual(got, w.ref[j]) {
				err = fmt.Errorf("%s: traced selection %+v differs from the library's %+v", p, got, w.ref[j])
			}
			if err != nil {
				if t.on {
					t.failed++
				}
				return err
			}
			if t.on {
				st.solveNs += ps.solveNs
				st.nodes += ps.nodes
				st.solverCalls += ps.solverCalls
				st.unsat += ps.unsat
				st.sat += ps.sat
				st.staticSkips += ps.staticSkips
			}
		}
		if t.on {
			passes++
		}
		return nil
	}
	l, err := ledgerRun(ctx, w, budget, tr, replay, m)
	if err != nil {
		return m, err
	}
	perPass := func(v float64) float64 { return v / float64(passes) }
	m["analysis.analyze_ms"] = perPass(l.selfNs["analysis.analyze"]) / 1e6
	m["feas.derive_ms"] = perPass(l.selfNs["feas.derive"]) / 1e6
	m["feas.static_skips"] = perPass(float64(st.staticSkips))
	m["core.select_ms"] = perPass(l.selfNs["core.select"]) / 1e6
	m["core.solve_ms"] = perPass(float64(st.solveNs)) / 1e6
	m["core.modelgen_ms"] = m["core.select_ms"] - m["core.solve_ms"]
	m["core.solver_calls"] = perPass(float64(st.solverCalls))
	m["core.unsat_calls"] = perPass(float64(st.unsat))
	m["core.useful_ratio"] = float64(st.sat) / float64(st.sat+st.unsat)
	m["smt.nodes"] = perPass(float64(st.nodes))
	m["smt.ns_per_node"] = float64(st.solveNs) / float64(st.nodes)
	m["ppcg.compile_us_per_point"] = l.perCallUs("ppcg.compile")
	m["gpusim.simulate_us_per_point"] = l.perCallUs("gpusim.simulate")
	fillZero(m)
	return m, nil
}

// fillZero reports 0 for every per-layer metric of a layer the workload
// does not reach.
func fillZero(m map[string]float64) {
	for _, pl := range perLayer {
		if _, ok := m[pl.name]; !ok {
			m[pl.name] = 0
		}
	}
}
