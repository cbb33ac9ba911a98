package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// outcome is one timed unit's latency and check verdict.
type outcome struct {
	i   int
	lat float64 // ms
	err error
}

// rtStats are what the timed window measured besides the units: the
// runtime/metrics deltas (pauses excluded) and the set-up probes.
type rtStats struct {
	peakHeapMB float64
	gcCycles   float64
	allocKB    float64
	setups     []float64 // seconds per set-up, one per probe
}

const (
	mHeap   = "/gc/heap/live:bytes"
	mGC     = "/gc/cycles/total:gc-cycles"
	mAllocs = "/gc/heap/allocs:bytes"
)

func readRuntime(names ...string) []float64 {
	s := make([]metrics.Sample, len(names))
	for i, n := range names {
		s[i].Name = n
	}
	metrics.Read(s)
	out := make([]float64, len(names))
	for i := range s {
		if s[i].Value.Kind() == metrics.KindUint64 {
			out[i] = float64(s[i].Value.Uint64())
		}
	}
	return out
}

// probeSetup times set-up without installing it: it repeats set-up until
// probeMin has passed and returns the mean. closedLoop calls it right
// after a full GC.
func probeSetup(ctx context.Context, w workload) (float64, error) {
	n := 0
	t0 := time.Now()
	for n == 0 || time.Since(t0) < probeMin {
		if err := w.setup(ctx, false); err != nil {
			return 0, fmt.Errorf("set-up probe: %w", err)
		}
		n++
	}
	return time.Since(t0).Seconds() / float64(n), nil
}

// closedLoop runs the workload's callers for the budget. Each caller takes
// the next unit index of the seeded sequence, times it, then checks its
// outputs outside the timed region, so a slow answer delays that caller's
// next request (a closed loop).
//
// setupProbes times during the window, every caller stops at a barrier
// between units. With nothing running, a full GC leaves the retained heap,
// which is read for peak_heap_mb, and then set-up is probed. A heap sample
// without the forced GC would include whatever garbage the last cycle
// marked live while it ran, an amount that grows with how long marking
// took and so with the machine's load. The pauses are left out of the
// wall time, the budget and the runtime deltas, so neither the forced GCs
// nor the probes reach the timed metrics.
func closedLoop(ctx context.Context, w workload, opts options, budget time.Duration) ([]float64, time.Duration, rtStats, []outcome, error) {
	var (
		next   atomic.Int64
		gate   sync.RWMutex // callers hold it shared per unit; a pause holds it exclusively
		paused atomic.Int64 // ns spent in pauses
		rt     rtStats
		peak   float64
		pauseD [2]float64 // GC cycles and allocated bytes during pauses
	)
	before := readRuntime(mGC, mAllocs)
	start := time.Now()
	active := func() time.Duration { return time.Since(start) - time.Duration(paused.Load()) }
	n := w.callers()
	res := make([][]outcome, n)
	var wg sync.WaitGroup
	for c := 0; c < n; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for {
				gate.RLock()
				if active() >= budget {
					gate.RUnlock()
					return
				}
				i := int(next.Add(1) - 1)
				t0 := time.Now()
				out, err := w.unit(ctx, c, i)
				lat := float64(time.Since(t0)) / float64(time.Millisecond)
				if err == nil {
					if opts.corrupt != nil {
						opts.corrupt(i, out)
					}
					err = w.check(i, out)
				}
				gate.RUnlock()
				res[c] = append(res[c], outcome{i: i, lat: lat, err: err})
			}
		}(c)
	}
	finished := make(chan struct{})
	go func() { wg.Wait(); close(finished) }()

	// The pauses, at the middle of each of setupProbes equal slices of the
	// budget.
	var probeErr error
	for k := 0; k < setupProbes && probeErr == nil; k++ {
		at := budget * time.Duration(2*k+1) / (2 * setupProbes)
		wait := time.NewTimer(at - active())
		select {
		case <-finished:
			wait.Stop()
		case <-wait.C:
		}
		gate.Lock()
		p0 := time.Now()
		r0 := readRuntime(mGC, mAllocs)
		runtime.GC()
		peak = max(peak, readRuntime(mHeap)[0])
		var d float64
		if d, probeErr = probeSetup(ctx, w); probeErr == nil {
			rt.setups = append(rt.setups, d)
		}
		runtime.GC() // the probe's garbage is not the callers' to collect
		r1 := readRuntime(mGC, mAllocs)
		pauseD[0] += r1[0] - r0[0]
		pauseD[1] += r1[1] - r0[1]
		paused.Add(int64(time.Since(p0)))
		gate.Unlock()
	}
	<-finished
	wall := time.Since(start) - time.Duration(paused.Load())
	after := readRuntime(mGC, mAllocs)
	var all []outcome
	for _, r := range res {
		all = append(all, r...)
	}
	sort.Slice(all, func(a, b int) bool { return all[a].i < all[b].i })
	lat := make([]float64, len(all))
	for i, o := range all {
		lat[i] = o.lat
	}
	rt.peakHeapMB = peak / (1 << 20)
	rt.gcCycles = after[0] - before[0] - pauseD[0]
	rt.allocKB = (after[1] - before[1] - pauseD[1]) / 1024
	return lat, wall, rt, all, probeErr
}

// quantile is the linearly interpolated q-quantile of sorted xs.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return sorted[lo] + (sorted[hi]-sorted[lo])*(pos-float64(lo))
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

func median(xs []float64) float64 { return quantile(sortedCopy(xs), 0.5) }

// spread is the noise diagnostic kept beside every timing metric: the
// run's own quartiles and sample count.
type spread struct {
	N   int     `json:"n"`
	P25 float64 `json:"p25"`
	P50 float64 `json:"p50"`
	P75 float64 `json:"p75"`
	// Tail fields are set only on tail_ms.
	TailPct float64 `json:"tail_pct,omitempty"`
	Beyond  int     `json:"beyond,omitempty"`
}

type reportMetric struct {
	metric
	Spread *spread `json:"spread,omitempty"`
}

type stamp struct {
	Source     string  `json:"source_digest"`
	Workload   string  `json:"workload"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Trace      bool    `json:"trace"`
	Started    string  `json:"started"`
	GoMaxProcs int     `json:"gomaxprocs"`
}

// report is the full record of one run, written fresh to its own file.
type report struct {
	Stamp          stamp                   `json:"stamp"`
	Correct        bool                    `json:"correct"`
	Attempted      int64                   `json:"attempted"`
	FailedOps      int64                   `json:"failed"`
	FailedRatio    float64                 `json:"failed_ratio"`
	Unit           string                  `json:"unit,omitempty"`
	GCCycles       float64                 `json:"gc_cycles,omitempty"`
	AllocKBPerUnit float64                 `json:"alloc_kb_per_unit,omitempty"`
	Spans          int                     `json:"spans,omitempty"`
	Metrics        map[string]reportMetric `json:"metrics"`
	Failures       []string                `json:"failures,omitempty"`
	// tracer holds a traced run's spans, written beside the report.
	tracer *tracer
}

func newReport() *report { return &report{Metrics: map[string]reportMetric{}} }

func (r *report) fail(format string, args ...any) {
	r.Failures = append(r.Failures, fmt.Sprintf(format, args...))
	r.Correct = false
}

// add records a metric; samples, when given, add the run's quartiles.
func (r *report) add(name string, v float64, unit string, samples []float64) {
	m := reportMetric{metric: metric{Value: v, Unit: unit}}
	if len(samples) > 0 {
		s := sortedCopy(samples)
		m.Spread = &spread{N: len(s), P25: quantile(s, 0.25), P50: quantile(s, 0.5), P75: quantile(s, 0.75)}
	}
	r.Metrics[name] = m
}

// addTiming records the q-quantile of lat (ms) with its spread.
func (r *report) addTiming(name string, lat []float64, q float64) {
	r.add(name, quantile(sortedCopy(lat), q), "ms", lat)
}

// addTail records tail_ms at the fixed percentile tailQ, refusing it when
// fewer than ten samples lie beyond.
func (r *report) addTail(lat []float64, tailQ float64) error {
	// Samples above the interpolated quantile's position.
	beyond := len(lat) - 1 - int(math.Floor(tailQ*float64(len(lat)-1)+1e-9))
	if beyond < 10 {
		return fmt.Errorf("tail_ms: p%g of %d samples has only %d beyond it (need 10); refusing to report", 100*tailQ, len(lat), beyond)
	}
	r.addTiming("tail_ms", lat, tailQ)
	s := r.Metrics["tail_ms"]
	s.Spread.TailPct = 100 * tailQ
	s.Spread.Beyond = beyond
	r.Metrics["tail_ms"] = s
	return nil
}

func (r *report) result() result {
	out := result{Correct: r.Correct, Attempted: r.Attempted, Failed: r.FailedOps, Metrics: map[string]metric{}}
	for k, v := range r.Metrics {
		out.Metrics[k] = v.metric
	}
	if out.Attempted == 0 {
		out.Attempted, out.Failed = 1, 1
		out.Correct = false
	}
	return out
}

// reportDir is where every run writes its own report; nothing is ever
// read back from it.
func reportDir(root string) string { return filepath.Join(root, ".bench_build", "perfbench-reports") }

// write stores the report under a name no other invocation uses: the
// workload, seed, start time and pid, created exclusively.
func (r *report) write(root string) (string, error) {
	if r.Attempted > 0 {
		r.FailedRatio = float64(r.FailedOps) / float64(r.Attempted)
	}
	dir := reportDir(root)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	base := fmt.Sprintf("%s-seed%d-trace%t-%s-%d", r.Stamp.Workload, r.Stamp.Seed, r.Stamp.Trace,
		strings.NewReplacer(":", "", "-", "", ".", "").Replace(r.Stamp.Started), os.Getpid())
	path := filepath.Join(dir, base+".json")
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return "", err
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(r); err != nil {
		f.Close()
		return "", err
	}
	if err := f.Close(); err != nil {
		return "", err
	}
	if r.tracer != nil {
		if err := r.tracer.write(filepath.Join(dir, base+".spans.jsonl")); err != nil {
			return "", err
		}
	}
	return path, nil
}

// sourceDigest identifies the code measured: the git revision when the
// binary was built inside a git checkout is not available here, so it
// hashes every Go source and module file under root instead.
func sourceDigest(root string) string {
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); path != root && (strings.HasPrefix(name, ".") || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") && filepath.Base(path) != "go.mod" {
			return nil
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, path)
		fmt.Fprintf(h, "%s %d\n", rel, len(b))
		h.Write(b)
		return nil
	})
	if err != nil {
		return "unknown: " + err.Error()
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}
