package main

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	eatss "repro"
	"repro/internal/analysis"
	"repro/internal/arch"
	"repro/internal/codegen"
	"repro/internal/gpusim"
	"repro/internal/ppcg"
	"repro/internal/symbolic"
)

// sweepSum is what the checks keep of one sweep: a digest of every
// surviving point (tiles and result), the argmax-PPW point and the stats.
type sweepSum struct {
	Digest   uint64
	Survived int
	Argmax   string
	Skipped  int
	Residual int
}

func tilesKey(t map[string]int64) string {
	names := make([]string, 0, len(t))
	for n := range t {
		names = append(names, n)
	}
	sort.Strings(names)
	var b strings.Builder
	for _, n := range names {
		b.WriteString(n)
		b.WriteByte('=')
		b.WriteString(strconv.FormatInt(t[n], 10))
		b.WriteByte(' ')
	}
	return b.String()
}

func summarize(pts []eatss.SpacePoint, st eatss.ExploreStats) sweepSum {
	h := fnv.New64a()
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	var names []string
	if len(pts) > 0 {
		for n := range pts[0].Tiles {
			names = append(names, n)
		}
		sort.Strings(names)
	}
	best := -1
	for i, p := range pts {
		put(uint64(len(p.Tiles)))
		for _, n := range names {
			put(uint64(p.Tiles[n]))
		}
		r := p.Result
		for _, f := range []float64{r.TimeSec, r.GFLOPS, r.AvgPowerW, r.EnergyJ, r.PPW} {
			put(math.Float64bits(f))
		}
		put(uint64(r.Flops))
		put(uint64(r.L2Sectors))
		put(uint64(r.DRAMBytes))
		if best < 0 || r.PPW > pts[best].Result.PPW {
			best = i
		}
	}
	s := sweepSum{Digest: h.Sum64(), Survived: len(pts), Skipped: st.Skipped, Residual: st.Residual}
	if best >= 0 {
		s.Argmax = tilesKey(pts[best].Tiles)
	}
	return s
}

// parityTol is the relative tolerance between the simulator and the
// closed-form backend on floating-point outputs; integer counters must
// match exactly (the library's own parity contract).
const parityTol = 1e-9

func relDiff(a, b float64) float64 {
	if a == b {
		return 0
	}
	return math.Abs(a-b) / math.Max(math.Abs(a), math.Abs(b))
}

// crossCheck evaluates a seeded sample of a sweep's points through the
// other evaluation backend and compares the results.
func crossCheck(ctx context.Context, prog *eatss.Program, g *eatss.GPU, cfg eatss.RunConfig, pts []eatss.SpacePoint, seed int64, n int) error {
	rng := rand.New(rand.NewSource(seed))
	for k := 0; k < n && len(pts) > 0; k++ {
		p := pts[rng.Intn(len(pts))]
		other, _, err := prog.RunEvalCtx(ctx, g, p.Tiles, cfg)
		if err != nil {
			return fmt.Errorf("%s %s: other backend: %w", prog.Kernel().Name, tilesKey(p.Tiles), err)
		}
		a, b := p.Result, other
		if a.Flops != b.Flops || a.L2Sectors != b.L2Sectors || a.DRAMBytes != b.DRAMBytes ||
			relDiff(a.EnergyJ, b.EnergyJ) > parityTol || relDiff(a.GFLOPS, b.GFLOPS) > parityTol || relDiff(a.PPW, b.PPW) > parityTol {
			return fmt.Errorf("%s on %s %s: backends disagree: %+v vs %+v", prog.Kernel().Name, g.Name, tilesKey(p.Tiles), a, b)
		}
	}
	return nil
}

func workers() int { return runtime.GOMAXPROCS(0) }

// sweepGemm is the paper's gemm 15^3 study on GA100: the default
// compile+simulate evaluator, no memoization, one worker per CPU.
type sweepGemm struct {
	opts  options
	prog  *eatss.Program
	space []map[string]int64
	ref   *sweepSum
}

func newSweepGemm(opts options) workload { return &sweepGemm{opts: opts} }

var gemmCfg = eatss.RunConfig{UseShared: true}

func (w *sweepGemm) setup(ctx context.Context, keep bool) error {
	k, err := eatss.Kernel("gemm")
	if err != nil {
		return err
	}
	prog, err := eatss.AnalyzeCtx(ctx, k, nil)
	if err != nil {
		return err
	}
	space := prog.PaperSpace()
	if w.opts.tiny {
		space = prog.Space([]int64{16, 64, 256})
	}
	if keep {
		w.prog, w.space = prog, space
	}
	return nil
}

func (w *sweepGemm) callers() int              { return 1 }
func (w *sweepGemm) unitOf() (string, float64) { return "sweep", 0.9 }
func (w *sweepGemm) done()                     {}
func (w *sweepGemm) extra(r *report, _ []outcome) error {
	r.add("miss_p50_ms", r.Metrics["p50_ms"].Value, "ms", nil)
	return nil
}

// gemmOut is one sweep's output: the points and the stats.
type gemmOut struct {
	pts []eatss.SpacePoint
	st  eatss.ExploreStats
}

func (w *sweepGemm) unit(ctx context.Context, _, _ int) (any, error) {
	pts, st := w.prog.ExploreSpaceOpt(ctx, eatss.GA100(), w.space, gemmCfg, eatss.SweepOptions{Workers: workers(), Cache: eatss.NoCache})
	if st.Aborted || st.Evaluated == 0 {
		return nil, fmt.Errorf("sweep evaluated %d points (aborted %t)", st.Evaluated, st.Aborted)
	}
	return &gemmOut{pts, st}, nil
}

func (w *sweepGemm) check(_ int, out any) error {
	o := out.(*gemmOut)
	s := summarize(o.pts, o.st)
	if w.ref == nil {
		cfg := gemmCfg
		cfg.Evaluator = eatss.EvalSymbolic
		if err := crossCheck(context.Background(), w.prog, eatss.GA100(), cfg, o.pts, w.opts.seed, 64); err != nil {
			return err
		}
		w.ref = &s
		return nil
	}
	if s != *w.ref {
		return fmt.Errorf("sweep differs from the reference: %+v vs %+v", s, *w.ref)
	}
	return nil
}

// engineRun measures the sweep engine from outside: one sweep at one
// worker, one at one worker per CPU, and the summed direct evaluations of
// the same points.
func engineRun(budget time.Duration, sweep func(workers int), direct func() time.Duration, points int, m map[string]float64) {
	var t1, tn, td time.Duration
	n := 0
	for deadline := time.Now().Add(budget); n == 0 || time.Now().Before(deadline); {
		t0 := time.Now()
		sweep(1)
		t1 += time.Since(t0)
		t0 = time.Now()
		sweep(workers())
		tn += time.Since(t0)
		td += direct()
		n++
	}
	per1 := t1.Seconds() / float64(n)
	m["sweep.parallel_speedup"] = t1.Seconds() / tn.Seconds()
	m["sweep.engine_us_per_point"] = (per1 - td.Seconds()/float64(n)) / float64(points) * 1e6
}

func (w *sweepGemm) traced(ctx context.Context, budget time.Duration, tr *tracer) (map[string]float64, error) {
	m := map[string]float64{}
	g := eatss.GA100()
	// The replay stages the analysis the way Program does, then compiles
	// and simulates every point, as each sweep worker does.
	aprog := analysis.AnalyzeCtx(ctx, w.prog.Kernel(), nil)
	copts := codegen.Options{UseShared: gemmCfg.UseShared, Precision: gemmCfg.Precision}
	replay := func(_ int, t *tracer) error {
		root := t.begin("op", -1)
		pts := make([]eatss.SpacePoint, 0, len(w.space))
		for _, tiles := range w.space {
			s := t.begin("ppcg.compile", root)
			mk, err := ppcg.CompileAnalyzed(ctx, aprog, nil, tiles, g, copts)
			t.end(s)
			if err != nil {
				continue
			}
			s = t.begin("gpusim.simulate", root)
			res := gpusim.SimulateCtx(ctx, mk, g)
			t.end(s)
			pts = append(pts, eatss.SpacePoint{Tiles: tiles, Result: res})
		}
		t.end(root)
		if t.on {
			t.attempted++
		}
		if s := summarize(pts, eatss.ExploreStats{Skipped: len(w.space) - len(pts)}); s != *w.ref {
			if t.on {
				t.failed++
			}
			return fmt.Errorf("traced sweep differs from the library's: %+v vs %+v", s, *w.ref)
		}
		return nil
	}
	l, err := ledgerRun(ctx, w, budget, tr, replay, m)
	if err != nil {
		return m, err
	}
	m["ppcg.compile_us_per_point"] = l.perCallUs("ppcg.compile")
	m["gpusim.simulate_us_per_point"] = l.perCallUs("gpusim.simulate")
	sweep := func(n int) {
		w.prog.ExploreSpaceOpt(ctx, g, w.space, gemmCfg, eatss.SweepOptions{Workers: n, Cache: eatss.NoCache})
	}
	direct := func() time.Duration {
		var d time.Duration
		for _, tiles := range w.space {
			t0 := time.Now()
			mk, err := ppcg.CompileAnalyzed(ctx, aprog, nil, tiles, g, copts)
			if err == nil {
				gpusim.SimulateCtx(ctx, mk, g)
			}
			d += time.Since(t0)
		}
		return d
	}
	engineRun(budget/4, sweep, direct, len(w.space), m)
	fillZero(m)
	return m, nil
}

// sweepCatalog is the closed-form path: every catalog kernel on both GPUs
// swept over a reduced tile space with the auto evaluator, each pass
// staging the analysis (and so the closed-form plan) afresh.
type sweepCatalog struct {
	opts   options
	pairs  []pair
	spaces [][]map[string]int64
	points int
	ref    []sweepSum
}

func newSweepCatalog(opts options) workload { return &sweepCatalog{opts: opts} }

var catalogCfg = eatss.RunConfig{UseShared: true, Evaluator: eatss.EvalAuto}

// catalogSizes is the reduced per-dimension tile space.
var catalogSizes = ppcg.GeometricSizes(4, 128)

func (w *sweepCatalog) setup(_ context.Context, keep bool) error {
	pairs, err := catalogPairs(w.opts.tiny)
	if err != nil {
		return err
	}
	sizes := catalogSizes
	if w.opts.tiny {
		sizes = []int64{16, 64}
	}
	var spaces [][]map[string]int64
	points := 0
	for _, p := range pairs {
		sp := eatss.Space(p.k, sizes)
		spaces = append(spaces, sp)
		points += len(sp)
	}
	if keep {
		w.pairs, w.spaces, w.points = pairs, spaces, points
	}
	return nil
}

func (w *sweepCatalog) callers() int              { return 1 }
func (w *sweepCatalog) unitOf() (string, float64) { return "pass", 0.9 }
func (w *sweepCatalog) done()                     {}
func (w *sweepCatalog) extra(r *report, _ []outcome) error {
	r.add("miss_p50_ms", r.Metrics["p50_ms"].Value, "ms", nil)
	return nil
}

func (w *sweepCatalog) order(i int) []int {
	return rand.New(rand.NewSource(w.opts.seed*7919 + int64(i))).Perm(len(w.pairs))
}

// catalogOut is one pass: per pair, the sweep summary (and, on the first
// pass only, the points and Program for the backend cross-check).
type catalogOut struct {
	sums  []sweepSum
	pts   [][]eatss.SpacePoint
	progs []*eatss.Program
}

func (w *sweepCatalog) unit(ctx context.Context, _, i int) (any, error) {
	out := &catalogOut{sums: make([]sweepSum, len(w.pairs))}
	keep := w.ref == nil
	if keep {
		out.pts = make([][]eatss.SpacePoint, len(w.pairs))
		out.progs = make([]*eatss.Program, len(w.pairs))
	}
	for _, j := range w.order(i) {
		p := w.pairs[j]
		prog, err := eatss.AnalyzeCtx(ctx, p.k, p.params)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		pts, st := prog.ExploreSpaceOpt(ctx, p.g, w.spaces[j], catalogCfg, eatss.SweepOptions{Workers: workers(), Cache: eatss.NoCache})
		if st.Aborted {
			return nil, fmt.Errorf("%s: sweep aborted", p)
		}
		out.sums[j] = summarize(pts, st)
		if keep {
			out.pts[j], out.progs[j] = pts, prog
		}
	}
	return out, nil
}

func (w *sweepCatalog) check(_ int, out any) error {
	o := out.(*catalogOut)
	if w.ref == nil {
		cfg := catalogCfg
		cfg.Evaluator = eatss.EvalSimulate
		for j, p := range w.pairs {
			if err := crossCheck(context.Background(), o.progs[j], p.g, cfg, o.pts[j], w.opts.seed+int64(j), 4); err != nil {
				return err
			}
		}
		w.ref = o.sums
		return nil
	}
	for j, s := range o.sums {
		if s != w.ref[j] {
			return fmt.Errorf("%s: sweep differs from the reference: %+v vs %+v", w.pairs[j], s, w.ref[j])
		}
	}
	return nil
}

func (w *sweepCatalog) traced(ctx context.Context, budget time.Duration, tr *tracer) (map[string]float64, error) {
	m := map[string]float64{}
	scfg := symbolic.Config{UseShared: catalogCfg.UseShared, Precision: catalogCfg.Precision}
	copts := codegen.Options{UseShared: catalogCfg.UseShared, Precision: catalogCfg.Precision}
	// The replay stages each pair's analysis and closed-form plan, then
	// evaluates every point through the plan, simulating the residual
	// points the plan does not cover — the auto evaluator's dispatch.
	residual := 0
	replay := func(i int, t *tracer) error {
		root := t.begin("op", -1)
		all := make([][]eatss.SpacePoint, len(w.pairs))
		fellBack := make([]int, len(w.pairs))
		for _, j := range w.order(i) {
			p := w.pairs[j]
			kk := p.k
			if p.params != nil {
				kk = p.k.WithParams(p.params)
			}
			s := t.begin("analysis.analyze", root)
			aprog := analysis.AnalyzeCtx(ctx, kk, nil)
			t.end(s)
			s = t.begin("symbolic.derive", root)
			plan, derr := symbolic.Derive(aprog, p.g, scfg, nil)
			t.end(s)
			pts := make([]eatss.SpacePoint, 0, len(w.spaces[j]))
			var fallback []map[string]int64
			s = t.begin("symbolic.eval", root)
			for _, tiles := range w.spaces[j] {
				if derr != nil {
					fallback = append(fallback, tiles)
					pts = append(pts, eatss.SpacePoint{Tiles: tiles})
					continue
				}
				res, err := plan.Eval(tiles)
				if errors.Is(err, symbolic.ErrResidual) {
					fallback = append(fallback, tiles)
					pts = append(pts, eatss.SpacePoint{Tiles: tiles})
					continue
				}
				if err == nil {
					pts = append(pts, eatss.SpacePoint{Tiles: tiles, Result: res})
				}
			}
			t.end(s)
			if len(fallback) > 0 {
				// Residual points: per-point compile and simulate.
				if t.on {
					residual += len(fallback)
				}
				pts = simulateResidual(ctx, t, root, aprog, p.g, copts, pts)
			}
			all[j], fellBack[j] = pts, len(fallback)
		}
		t.end(root)
		if t.on {
			t.attempted++
		}
		for j, pts := range all {
			sum := summarize(pts, eatss.ExploreStats{Skipped: len(w.spaces[j]) - len(pts), Residual: fellBack[j]})
			if sum != w.ref[j] {
				if t.on {
					t.failed++
				}
				return fmt.Errorf("%s: traced sweep differs from the library's: %+v vs %+v", w.pairs[j], sum, w.ref[j])
			}
		}
		return nil
	}
	l, err := ledgerRun(ctx, w, budget, tr, replay, m)
	if err != nil {
		return m, err
	}
	m["analysis.analyze_ms"] = l.perOpMs("analysis.analyze")
	m["symbolic.derive_ms"] = l.perOpMs("symbolic.derive")
	m["symbolic.eval_us_per_point"] = l.selfNs["symbolic.eval"] / float64(l.ops) / float64(w.points) / 1e3
	m["ppcg.compile_us_per_point"] = l.perCallUs("ppcg.compile")
	m["gpusim.simulate_us_per_point"] = l.perCallUs("gpusim.simulate")
	res := 0
	for _, s := range w.ref {
		res += s.Residual
	}
	m["sweep.residual_points"] = float64(res)

	// Dispatch and engine cost on Programs whose plans are already staged:
	// Program.RunEvalCtx per point minus Plan.Eval per point, and the
	// 1-worker sweep minus the summed RunEvalCtx calls.
	progs := make([]*eatss.Program, len(w.pairs))
	plans := make([]*symbolic.Plan, len(w.pairs))
	for j, p := range w.pairs {
		prog, err := eatss.AnalyzeCtx(ctx, p.k, p.params)
		if err != nil {
			return m, err
		}
		// The first evaluation stages the plan on the Program; whether
		// that point maps does not matter here.
		_, _, _ = prog.RunEvalCtx(ctx, p.g, w.spaces[j][0], catalogCfg)
		kk := p.k
		if p.params != nil {
			kk = p.k.WithParams(p.params)
		}
		plans[j], _ = symbolic.Derive(analysis.AnalyzeCtx(ctx, kk, nil), p.g, scfg, nil)
		progs[j] = prog
	}
	var dispatch, direct time.Duration
	rounds := 0
	deadline := time.Now().Add(budget / 8)
	for rounds == 0 || time.Now().Before(deadline) {
		for j, p := range w.pairs {
			t0 := time.Now()
			for _, tiles := range w.spaces[j] {
				progs[j].RunEvalCtx(ctx, p.g, tiles, catalogCfg)
			}
			dispatch += time.Since(t0)
			if plans[j] == nil {
				continue
			}
			t0 = time.Now()
			for _, tiles := range w.spaces[j] {
				plans[j].Eval(tiles)
			}
			direct += time.Since(t0)
		}
		rounds++
	}
	pts := float64(rounds * w.points)
	m["eatss.eval_dispatch_us_per_point"] = (dispatch - direct).Seconds() / pts * 1e6
	sweep := func(n int) {
		for j, p := range w.pairs {
			progs[j].ExploreSpaceOpt(ctx, p.g, w.spaces[j], catalogCfg, eatss.SweepOptions{Workers: n, Cache: eatss.NoCache})
		}
	}
	evalAll := func() time.Duration {
		t0 := time.Now()
		for j, p := range w.pairs {
			for _, tiles := range w.spaces[j] {
				progs[j].RunEvalCtx(ctx, p.g, tiles, catalogCfg)
			}
		}
		return time.Since(t0)
	}
	engineRun(budget/8, sweep, evalAll, w.points, m)
	fillZero(m)
	return m, nil
}

// simulateResidual compiles and simulates the points the closed form left
// without a result (Result.Flops == 0), dropping those that do not map.
func simulateResidual(ctx context.Context, t *tracer, root int32, aprog *analysis.Program, g *arch.GPU, copts codegen.Options, pts []eatss.SpacePoint) []eatss.SpacePoint {
	out := pts[:0]
	for _, p := range pts {
		if p.Result.Flops != 0 {
			out = append(out, p)
			continue
		}
		s := t.begin("ppcg.compile", root)
		mk, err := ppcg.CompileAnalyzed(ctx, aprog, nil, p.Tiles, g, copts)
		t.end(s)
		if err != nil {
			continue
		}
		s = t.begin("gpusim.simulate", root)
		p.Result = gpusim.SimulateCtx(ctx, mk, g)
		t.end(s)
		out = append(out, p)
	}
	return out
}
