package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	eatss "repro"
	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/feas"
	"repro/internal/serve"
)

// tinyRun measures one workload on tiny inputs for two seconds, long
// enough for every tail percentile to keep ten samples beyond it.
func tinyRun(t *testing.T, name string, traced bool, corrupt func(int, any)) *report {
	t.Helper()
	opts := options{seed: 3, seconds: 2, tiny: true, corrupt: corrupt}
	rep, err := measure(context.Background(), workloads[name](opts), opts, traced)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	return rep
}

// spec is BENCHMARK.json as far as the self-tests read it.
type spec struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func loadSpec(t *testing.T) spec {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var s spec
	if err := json.Unmarshal(b, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

// TestSpecMatchesCode pins BENCHMARK.json to the workloads and metrics
// the code reports.
func TestSpecMatchesCode(t *testing.T) {
	s := loadSpec(t)
	if len(s.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the code %d", len(s.Workloads), len(workloads))
	}
	for _, w := range s.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("workload %s has no implementation", w.Name)
		}
	}
	if len(s.EndToEnd) != len(endToEnd) || len(s.PerLayer) != len(perLayer) {
		t.Fatalf("metric counts differ: spec %d/%d, code %d/%d", len(s.EndToEnd), len(s.PerLayer), len(endToEnd), len(perLayer))
	}
	for i, m := range endToEnd {
		if s.EndToEnd[i].Name != m.name || s.EndToEnd[i].Unit != m.unit {
			t.Errorf("end_to_end[%d]: spec %+v, code %+v", i, s.EndToEnd[i], m)
		}
	}
	for i, m := range perLayer {
		if s.PerLayer[i].Name != m.name || s.PerLayer[i].Unit != m.unit {
			t.Errorf("per_layer[%d]: spec %+v, code %+v", i, s.PerLayer[i], m)
		}
	}
}

// TestTinyWorkloads runs every workload at tiny size, untraced and
// traced, and checks that each reports exactly its metrics, correctly.
func TestTinyWorkloads(t *testing.T) {
	for name := range workloads {
		t.Run(name, func(t *testing.T) {
			rep := tinyRun(t, name, false, nil)
			if !rep.Correct || rep.FailedOps != 0 || rep.Attempted == 0 {
				t.Fatalf("untraced run: correct %t, %d of %d failed: %v", rep.Correct, rep.FailedOps, rep.Attempted, rep.Failures)
			}
			if len(rep.Metrics) != len(endToEnd) {
				t.Errorf("untraced run reports %d metrics, want %d", len(rep.Metrics), len(endToEnd))
			}
			for _, m := range endToEnd {
				if got := rep.Metrics[m.name]; got.Unit != m.unit || got.Value <= 0 {
					t.Errorf("%s = %+v, want a positive value in %s", m.name, got.metric, m.unit)
				}
			}
			if tail := rep.Metrics["tail_ms"].Spread; tail == nil || tail.Beyond < 10 {
				t.Errorf("tail_ms reported with %+v", tail)
			}
			if s := rep.Metrics["setup_s"].Spread; s == nil || s.N != setupProbes {
				t.Errorf("setup_s is the median of %+v, want %d probes", s, setupProbes)
			}
			rep = tinyRun(t, name, true, nil)
			if !rep.Correct || rep.FailedOps != 0 || rep.Attempted == 0 {
				t.Fatalf("traced run: correct %t, %d of %d failed: %v", rep.Correct, rep.FailedOps, rep.Attempted, rep.Failures)
			}
			if len(rep.Metrics) != len(perLayer) {
				t.Errorf("traced run reports %d metrics, want %d", len(rep.Metrics), len(perLayer))
			}
			for _, m := range perLayer {
				if got, ok := rep.Metrics[m.name]; !ok || got.Unit != m.unit {
					t.Errorf("%s = %+v, want a value in %s", m.name, got.metric, m.unit)
				}
			}
			if r := rep.Metrics["ledger.residual_ratio"].Value; r <= 0 || r > residualBound {
				t.Errorf("ledger.residual_ratio = %g, want in (0, %g]", r, residualBound)
			}
		})
	}
}

// TestChecksFire injects a wrong answer into every timed unit of each
// workload: the run must count the failures and fail.
func TestChecksFire(t *testing.T) {
	wrongTile := func(tiles map[string]int64) map[string]int64 {
		out := map[string]int64{}
		for k, v := range tiles {
			out[k] = v + 1
		}
		return out
	}
	corrupt := map[string]func(int, any){
		"select-cold": func(_ int, out any) {
			c := out.([]chosen)
			c[0].Tiles = wrongTile(c[0].Tiles)
		},
		"sweep-gemm": func(_ int, out any) {
			o := out.(*gemmOut)
			o.pts[len(o.pts)/2].Result.EnergyJ *= 1.001
		},
		"sweep-catalog": func(_ int, out any) {
			o := out.(*catalogOut)
			o.sums[0].Digest ^= 1
		},
		"serve-mixed": func(_ int, out any) {
			a := out.(*answer)
			if a.resp.Selection != nil {
				a.resp.Selection.Tiles = wrongTile(a.resp.Selection.Tiles)
			}
			if a.resp.Result != nil {
				a.resp.Result.PPW++
			}
			if a.resp.Mapping != nil {
				a.resp.Mapping.CUDA += " "
			}
			if a.resp.Analysis != nil {
				a.resp.Analysis.Fingerprint += "x"
			}
			a.resp.Diags = append(a.resp.Diags, serve.DiagView{Code: "injected"})
		},
	}
	for name := range workloads {
		t.Run(name, func(t *testing.T) {
			rep := tinyRun(t, name, false, corrupt[name])
			if rep.Correct || rep.FailedOps == 0 {
				t.Fatalf("corrupted run passed: correct %t, %d of %d failed", rep.Correct, rep.FailedOps, rep.Attempted)
			}
		})
	}
}

// TestCertifyRejectsWrongTile: the certifier select-cold relies on
// rejects a selection whose tiles no longer match the solver's witness.
func TestCertifyRejectsWrongTile(t *testing.T) {
	k := eatss.MustKernel("gemm")
	sel, err := eatss.SelectTiles(k, eatss.GA100(), eatss.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if err := eatss.Certify(k, eatss.GA100(), sel); err != nil {
		t.Fatalf("library selection not certified: %v", err)
	}
	for name := range sel.Tiles {
		sel.Tiles[name]++
		break
	}
	if eatss.Certify(k, eatss.GA100(), sel) == nil {
		t.Fatal("a wrong tile passed certification")
	}
}

// missSolve is what a miss makes the server do, as far as the self-tests
// compare it: the solver's tile bounds, its answer and its search.
type missSolve struct {
	Bounds []feas.Bound
	Tiles  map[string]int64
	Nodes  int64
	Calls  int
}

func solveMiss(t *testing.T, e missEntry, params map[string]int64) missSolve {
	t.Helper()
	g, err := eatss.GPUByName(e.g)
	if err != nil {
		t.Fatal(err)
	}
	opts := eatss.DefaultOptions()
	opts.WarpFraction = e.wf
	prog := analysis.AnalyzeCtx(context.Background(), e.k.WithParams(params), nil)
	region := feas.Derive(prog, g, feas.ModelConfig(opts.SplitFactor, e.wf, opts.Precision))
	sel, err := core.SelectTilesAnalyzed(context.Background(), prog, g, opts)
	if err != nil {
		t.Fatalf("%s on %s, params %v, warp fraction %g: %v", e.k.Name, e.g, params, e.wf, err)
	}
	return missSolve{region.Bounds, sel.Tiles, sel.Search.Nodes, sel.SolverCalls}
}

func newServeInputs(t *testing.T) *serveMixed {
	t.Helper()
	w := newServeMixed(options{seed: 1}).(*serveMixed)
	if err := w.inputs(context.Background()); err != nil {
		t.Fatal(err)
	}
	return w
}

// TestMissOffsetsKeepTheSolve checks every serve-mixed cold-pool entry:
// it is satisfiable at the warp fraction it is sent with (never 0.125),
// and the param offsets a miss may carry, up to the largest, leave its
// tile bounds, its tiles and its solver search unchanged, so every miss of
// an entry is the same work.
func TestMissOffsetsKeepTheSolve(t *testing.T) {
	w := newServeInputs(t)
	if len(w.pool)%2 == 0 {
		t.Errorf("miss pool has %d entries; an odd count keeps miss_p50_ms inside one entry's latencies", len(w.pool))
	}
	cycle := w.cycleLen()
	for _, e := range w.pool {
		if e.wf < 0.25 {
			t.Errorf("%s: sent at warp fraction %g", e.k.Name, e.wf)
		}
		want := solveMiss(t, e, e.params)
		largest := map[string]int64{}
		for n, v := range e.params {
			largest[n] = v
		}
		for _, n := range e.free {
			largest[n] += offsetSpan - 1
		}
		cases := []map[string]int64{largest}
		for _, q := range []int{0, 1, offsetSpan - 2, (offsetSpan-1)*(offsetSpan-1) - 1} {
			cases = append(cases, w.missParams(e, q*cycle))
		}
		for _, params := range cases {
			for n, v := range params {
				if d := v - e.params[n]; d < 0 || d >= offsetSpan {
					t.Errorf("%s: a miss offsets %s by %d", e.k.Name, n, d)
				}
			}
			if got := solveMiss(t, e, params); !reflect.DeepEqual(got, want) {
				t.Errorf("%s on %s: params %v solve %+v, the base params %+v", e.k.Name, e.g, params, got, want)
			}
		}
	}
}

// TestMissKeysStayMisses replays the order in which runs send requests to
// one server and checks that no miss sends its entry's hot-key params and
// that a miss key, when it repeats, comes only after more other misses
// than either cache tier holds, so the server has evicted it. The phase lengths allow for a machine (or a commit) four
// times faster than the one the benchmark was tuned on.
func TestMissKeysStayMisses(t *testing.T) {
	w := newServeInputs(t)
	type span struct{ from, n int }
	orders := map[string][]span{
		"untraced": {{warmBase, 100_000}, {0, 600_000}},
		"traced":   {{0, 150_000}, {w.replayBase(), 300_000}},
	}
	for name, order := range orders {
		last := map[string]int{}
		misses, minGap := 0, -1
		for _, sp := range order {
			for i := sp.from; i < sp.from+sp.n; i++ {
				v := w.seq[i%len(w.seq)]
				if v >= 0 {
					continue
				}
				e := w.pool[-1-v]
				params := w.missParams(e, i)
				if reflect.DeepEqual(params, e.params) {
					t.Fatalf("%s: request %d sends %s with its hot key's params", name, i, e.k.Name)
				}
				key := fmt.Sprint(e.k.Name, params)
				if p, ok := last[key]; ok && (minGap < 0 || misses-p-1 < minGap) {
					minGap = misses - p - 1
				}
				last[key] = misses
				misses++
			}
		}
		if minGap >= 0 && minGap < 2*cacheSize {
			t.Errorf("%s: a miss key repeats after only %d other misses (cache tiers hold %d)", name, minGap, cacheSize)
		}
		t.Logf("%s: %d misses, %d distinct keys, shortest repeat gap %d", name, misses, len(last), minGap)
	}
}

// TestTailRefusedBelowTenSamples: no tail is reported with fewer than ten
// samples beyond it.
func TestTailRefusedBelowTenSamples(t *testing.T) {
	r := newReport()
	if err := r.addTail(make([]float64, 90), 0.9); err == nil {
		t.Fatal("p90 of 90 samples reported")
	}
	if err := r.addTail(make([]float64, 100), 0.9); err != nil {
		t.Fatal(err)
	}
}

// TestReportNeverOverwritten: every run writes its own file; an existing
// report is never reopened or appended to.
func TestReportNeverOverwritten(t *testing.T) {
	root := t.TempDir()
	r := newReport()
	r.Stamp = stamp{Workload: "w", Seed: 1, Started: "2000-01-01T00:00:00Z"}
	if _, err := r.write(root); err != nil {
		t.Fatal(err)
	}
	if _, err := r.write(root); err == nil {
		t.Fatal("a second report with the same stamp overwrote the first")
	}
}
