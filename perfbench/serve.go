package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"reflect"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	eatss "repro"
	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/obs"
	obsserve "repro/internal/obs/serve"
	"repro/internal/serve"
)

// missEvery places one selection-cache miss in every block of this many
// requests (a 1/24 = 4.2% miss share). The 17-entry miss pool is cycled
// evenly, so the median of the misses falls inside one entry's latencies;
// the median of all requests falls among the hits, and the tail (p99, the
// top 1%: about the slowest quarter of the misses) among the slower
// misses, where the pool's entries lie close together. Neither sits on the
// boundary between hits and misses.
const missEvery = 24

// serveTailQ is the tail percentile reported on serve-mixed. A 25 s run
// has about 150,000 requests, so p99 keeps about 1,500 beyond it. The
// deeper p99.9 sits in 4-12 ms scheduler stalls that hit hits and misses
// alike; on a 2-core VM it measured the machine's load, moving by up to
// 3x between 10 s windows of one process while p99 moved by half that.
const serveTailQ = 0.99

// seqTarget is about the length of the precomputed seeded request
// sequence, which is a whole number of miss-pool cycles; a run that
// outlasts it wraps around.
const seqTarget = 1 << 19

// template is one hot request and the answer the library gives for it.
type template struct {
	op   string
	body []byte
	req  serve.Request
	// expected answer: tiles (solve, best), PPW (best, simulate), CUDA
	// source (compile), fingerprint (analyze), diagnostic codes (lint).
	tiles  map[string]int64
	ppw    float64
	cuda   string
	fp     string
	diags  []string
	source bool
}

// missEntry is one cold-pool (kernel, GPU, warp fraction) whose solve is
// satisfiable; a miss sends it with its free params offset to a fingerprint
// the server's caches no longer hold.
type missEntry struct {
	k      *eatss.AffineKernel
	g      string
	params map[string]int64
	wf     float64
	free   []string // sorted names of the params a miss may offset
}

// A miss raises only free params: those of at least freeMin, by less than
// offsetSpan. The solver caps every tile at the GPU's ThreadsPerBlock
// (1024); freeMin is half again that, so the loop extents derived from a
// free param (N, N-2, 2N/3, ...) are already above the cap, and raising
// the param leaves every tile bound, and with them the solve, unchanged:
// each miss of an entry is the same work however far a run gets. The
// self-tests check this per entry: same tile bounds, same tiles, same
// solver nodes at the largest offsets. An entry without a free param is
// left out of the pool.
const (
	offsetSpan = 1024
	freeMin    = 1536
)

func freeParams(params map[string]int64) []string {
	var out []string
	for n, v := range params {
		if v >= freeMin {
			out = append(out, n)
		}
	}
	sort.Strings(out)
	return out
}

// cycleLen is the length of one miss-pool cycle: missEvery-request blocks,
// one per pool entry, so each entry is sent once per cycle.
func (w *serveMixed) cycleLen() int { return missEvery * len(w.pool) }

// missParams gives the miss at request i its params. Its cycle number q is
// written in base offsetSpan-1 over the entry's free params, the first
// digit plus one, so no miss sends the params of the entry's hot key. An
// entry's key repeats only after offsetSpan-1 cycles (and never, with two
// free params, within any run); the self-tests check that every repeat
// comes after more misses than either cache tier holds. No param grows by
// offsetSpan or more.
func (w *serveMixed) missParams(e missEntry, i int) map[string]int64 {
	out := make(map[string]int64, len(e.params))
	for n, v := range e.params {
		out[n] = v
	}
	q := i / w.cycleLen()
	for k, n := range e.free {
		d := int64(q % (offsetSpan - 1))
		q /= offsetSpan - 1
		if k == 0 {
			d++
		}
		out[n] += d
	}
	return out
}

// server is one booted, pre-filled eatssd.
type server struct {
	srv *serve.Server
	hs  *obsserve.Server
	url string
}

// serveMixed is an in-process eatssd over loopback HTTP under nproc
// closed-loop keep-alive connections replaying a seeded mix of hot-set
// hits and fresh-fingerprint misses.
type serveMixed struct {
	opts   options
	hot    []template
	pool   []missEntry
	seq    []int32 // >= 0: hot template; < 0: miss pool entry -1-v
	cur    *server
	client *http.Client
	// spans is the tracer the handler wrapper records into (nil: none).
	spans atomic.Pointer[tracer]

	mu     sync.Mutex
	misses []missOut // miss answers kept for verification after the run
}

type missOut struct {
	i     int
	tiles map[string]int64
}

func newServeMixed(opts options) workload { return &serveMixed{opts: opts} }

func (w *serveMixed) callers() int              { return workers() }
func (w *serveMixed) unitOf() (string, float64) { return "request", serveTailQ }

// request is request i of the seeded sequence.
func (w *serveMixed) request(i int) (op string, body []byte, hot int, err error) {
	v := w.seq[i%len(w.seq)]
	if v >= 0 {
		t := &w.hot[v]
		return t.op, t.body, int(v), nil
	}
	e := w.pool[-1-v]
	body, err = json.Marshal(serve.Request{Kernel: e.k.Name, GPU: e.g, Params: w.missParams(e, i), WarpFrac: &e.wf})
	return "solve", body, -1, err
}

// inputs builds the hot templates with their library answers, the miss
// pool and the seeded sequence. It runs once, before setup is timed.
func (w *serveMixed) inputs(ctx context.Context) error {
	pairs, err := catalogPairs(w.opts.tiny)
	if err != nil {
		return err
	}
	w.hot, w.pool = nil, nil
	for _, p := range pairs {
		gpu := "ga100"
		if p.g.Name != eatss.GA100().Name {
			gpu = "xavier"
		}
		prog, err := eatss.AnalyzeCtx(ctx, p.k, p.params)
		if err != nil {
			return err
		}
		// Coarsest satisfiable warp fraction, never 0.125: its solves
		// cost up to ~230x more and would dominate the run.
		var sel *eatss.Selection
		var wf float64
		for _, wf = range []float64{0.5, 0.25} {
			opts := eatss.DefaultOptions()
			opts.WarpFraction = wf
			if sel, err = prog.SelectTilesCtx(ctx, p.g, opts); err == nil {
				break
			}
		}
		if err != nil {
			return fmt.Errorf("%s: no satisfiable warp fraction above 0.125: %w", p, err)
		}
		best, err := prog.SelectBest(p.g, eatss.FP64)
		if err != nil {
			return err
		}
		cfg := eatss.RunConfig{Params: p.params, UseShared: true, Precision: eatss.FP64}
		if cert := prog.FeasibleRegion(p.g, cfg).Check(sel.Tiles); cert != nil {
			return fmt.Errorf("%s: solver tiles statically infeasible: %s", p, cert)
		}
		res, err := prog.Run(p.g, sel.Tiles, cfg)
		if err != nil {
			return err
		}
		mk, err := prog.Compile(p.g, sel.Tiles, cfg)
		if err != nil {
			return err
		}
		src := eatss.WriteKernel(p.k)
		parsed, err := eatss.ParseKernel(src)
		if err != nil {
			return err
		}
		eatss.Schedule(parsed)
		sprog, err := eatss.AnalyzeCtx(ctx, parsed, p.params)
		if err != nil {
			return err
		}
		var codes []string
		for _, d := range sprog.Lint() {
			codes = append(codes, d.Code)
		}
		base := serve.Request{Kernel: p.k.Name, GPU: gpu, Params: p.params}
		withWF := base
		withWF.WarpFrac = &wf
		withTiles := base
		withTiles.Tiles = sel.Tiles
		srcReq := serve.Request{Source: src, GPU: gpu, Params: p.params}
		srcWF := srcReq
		srcWF.WarpFrac = &wf
		w.hot = append(w.hot,
			template{op: "solve", req: withWF, tiles: sel.Tiles},
			template{op: "solve", req: srcWF, tiles: sel.Tiles, source: true},
			template{op: "best", req: base, tiles: best.Chosen.Selection.Tiles, ppw: best.Chosen.Result.PPW},
			template{op: "simulate", req: withTiles, tiles: sel.Tiles, ppw: res.PPW},
			template{op: "compile", req: withTiles, cuda: mk.CUDASource()},
			template{op: "analyze", req: base, fp: prog.Fingerprint()},
			template{op: "lint", req: srcReq, diags: codes, source: true},
		)
		if free := freeParams(prog.Params()); p.params == nil && len(free) > 0 {
			w.pool = append(w.pool, missEntry{k: p.k, g: gpu, params: prog.Params(), wf: wf, free: free})
		}
	}
	for i := range w.hot {
		if w.hot[i].body, err = json.Marshal(w.hot[i].req); err != nil {
			return err
		}
	}
	// The sequence: blocks of missEvery requests with the miss at a
	// seeded slot; hits and misses each cycle through seeded
	// permutations, so every run sees the same mix in a new order.
	if len(w.pool) == 0 {
		return fmt.Errorf("no miss-pool entry has a free param")
	}
	rng := rand.New(rand.NewSource(w.opts.seed))
	seqLen := seqTarget / w.cycleLen() * w.cycleLen()
	w.seq = make([]int32, seqLen)
	var hits, pool []int
	for b := 0; b*missEvery < seqLen; b++ {
		slot := rng.Intn(missEvery)
		for s := 0; s < missEvery; s++ {
			i := b*missEvery + s
			if s == slot {
				if len(pool) == 0 {
					pool = rng.Perm(len(w.pool))
				}
				w.seq[i] = int32(-1 - pool[0])
				pool = pool[1:]
				continue
			}
			if len(hits) == 0 {
				hits = rng.Perm(len(w.hot))
			}
			w.seq[i] = int32(hits[0])
			hits = hits[1:]
		}
	}
	return nil
}

// cacheSize bounds both LRU tiers, programs and selections, at the
// program tier's default (the selection tier's default is 4096). The
// misses then fill both tiers to capacity during warm-up, so the timed
// window runs at their eviction steady state; at 4096 the live heap would
// grow through the whole run and each run would measure another point of
// that growth. Pinning both tiers keeps the self-tests' proof that every
// miss is a miss independent of the daemon's defaults.
const cacheSize = 256

// boot starts a fresh eatssd the way the daemon starts (metrics on,
// default config but for the cache sizes), warms it and pre-fills the hot
// set.
func (w *serveMixed) boot(ctx context.Context) (*server, error) {
	obs.EnableMetrics()
	srv := serve.New(serve.Config{ProgramCacheSize: cacheSize, SelectionCacheSize: cacheSize})
	h := srv.Handler()
	hs, err := obsserve.StartHandler("127.0.0.1:0", http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		tr := w.spans.Load()
		parent, perr := strconv.Atoi(r.Header.Get("X-Perfbench-Span"))
		if tr == nil || perr != nil {
			h.ServeHTTP(rw, r)
			return
		}
		s := tr.begin("serve.handler", int32(parent))
		h.ServeHTTP(rw, r)
		tr.end(s)
	}))
	if err != nil {
		return nil, err
	}
	srv.Warm(ctx)
	for i := range w.hot {
		t := &w.hot[i]
		req := t.req
		req.Op = t.op
		if resp := srv.Do(ctx, &req); resp.Status != serve.StatusOK {
			hs.Close()
			return nil, fmt.Errorf("pre-fill %s %s: %s %s", t.op, req.Kernel, resp.Status, resp.Error)
		}
	}
	return &server{srv: srv, hs: hs, url: "http://" + hs.Addr()}, nil
}

func (w *serveMixed) setup(ctx context.Context, keep bool) error {
	s, err := w.boot(ctx)
	if err != nil {
		return err
	}
	if !keep {
		s.hs.Close()
		return nil
	}
	w.done()
	w.cur = s
	w.client = &http.Client{
		Timeout: 60 * time.Second,
		Transport: &http.Transport{
			MaxIdleConnsPerHost: workers(),
			MaxConnsPerHost:     workers(),
			DisableCompression:  true,
		},
	}
	return nil
}

func (w *serveMixed) done() {
	if w.cur != nil {
		w.cur.hs.Close()
		w.cur = nil
	}
	if w.client != nil {
		w.client.CloseIdleConnections()
	}
}

// answer is one request's decoded response and HTTP status.
type answer struct {
	hot  int
	code int
	resp serve.Response
}

// post sends one request over HTTP, recording the round trip and the
// decode as spans under parent when t is on.
func (w *serveMixed) post(ctx context.Context, url, op string, body []byte, t *tracer, parent int32) (*answer, error) {
	s := t.begin("http.roundtrip", parent)
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url+"/v1/"+op, bytes.NewReader(body))
	if err != nil {
		t.end(s)
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	if s >= 0 {
		req.Header.Set("X-Perfbench-Span", strconv.Itoa(int(s)))
	}
	res, err := w.client.Do(req)
	if err != nil {
		t.end(s)
		return nil, err
	}
	raw, err := io.ReadAll(res.Body)
	res.Body.Close()
	t.end(s)
	if err != nil {
		return nil, err
	}
	s = t.begin("http.decode", parent)
	a := &answer{code: res.StatusCode}
	err = json.Unmarshal(raw, &a.resp)
	t.end(s)
	return a, err
}

func (w *serveMixed) unit(ctx context.Context, _, i int) (any, error) {
	op, body, hot, err := w.request(i)
	if err != nil {
		return nil, err
	}
	a, err := w.post(ctx, w.cur.url, op, body, nil, -1)
	if err != nil {
		return nil, err
	}
	a.hot = hot
	return a, nil
}

// check verifies an answer: status 200 and, for hot keys, exactly the
// library's answer. Miss answers are kept and re-solved after the run.
func (w *serveMixed) check(i int, out any) error {
	a := out.(*answer)
	r := &a.resp
	if a.code != http.StatusOK || r.Status != serve.StatusOK {
		return fmt.Errorf("request %d (%s): HTTP %d %s %s", i, r.Op, a.code, r.Status, r.Error)
	}
	if a.hot < 0 {
		if r.Selection == nil || len(r.Selection.Tiles) == 0 {
			return fmt.Errorf("request %d: miss answered without tiles", i)
		}
		w.mu.Lock()
		w.misses = append(w.misses, missOut{i: i, tiles: r.Selection.Tiles})
		w.mu.Unlock()
		return nil
	}
	t := &w.hot[a.hot]
	ok := true
	switch t.op {
	case "solve":
		ok = r.Selection != nil && reflect.DeepEqual(r.Selection.Tiles, t.tiles)
	case "best":
		ok = r.Selection != nil && r.Result != nil && reflect.DeepEqual(r.Selection.Tiles, t.tiles) && r.Result.PPW == t.ppw
	case "simulate":
		ok = r.Result != nil && r.Result.PPW == t.ppw
	case "compile":
		ok = r.Mapping != nil && r.Mapping.CUDA == t.cuda
	case "analyze":
		ok = r.Analysis != nil && r.Analysis.Fingerprint == t.fp
	case "lint":
		var codes []string
		for _, d := range r.Diags {
			codes = append(codes, d.Code)
		}
		ok = reflect.DeepEqual(codes, t.diags)
	}
	if !ok {
		return fmt.Errorf("request %d: %s %s on %s differs from the library's answer", i, t.op, t.req.Kernel, t.req.GPU)
	}
	return nil
}

// verifyMisses re-solves a seeded sample of the miss answers with the
// library and returns how many differ.
func (w *serveMixed) verifyMisses(ctx context.Context, limit int) (int, error) {
	w.mu.Lock()
	ms := append([]missOut(nil), w.misses...)
	w.misses = nil
	w.mu.Unlock()
	rng := rand.New(rand.NewSource(w.opts.seed))
	rng.Shuffle(len(ms), func(a, b int) { ms[a], ms[b] = ms[b], ms[a] })
	if len(ms) > limit {
		ms = ms[:limit]
	}
	bad := 0
	for _, m := range ms {
		e := w.pool[-1-w.seq[m.i%len(w.seq)]]
		prog, err := eatss.AnalyzeCtx(ctx, e.k, w.missParams(e, m.i))
		if err != nil {
			return bad, err
		}
		g, err := eatss.GPUByName(e.g)
		if err != nil {
			return bad, err
		}
		opts := eatss.DefaultOptions()
		opts.WarpFraction = e.wf
		sel, err := prog.SelectTilesCtx(ctx, g, opts)
		if err != nil || !reflect.DeepEqual(sel.Tiles, m.tiles) {
			bad++
		}
	}
	return bad, nil
}

// missVerifyLimit bounds how many miss answers a run re-solves.
const missVerifyLimit = 200

func (w *serveMixed) extra(r *report, outs []outcome) error {
	var miss []float64
	for _, o := range outs {
		if w.seq[o.i%len(w.seq)] < 0 {
			miss = append(miss, o.lat)
		}
	}
	if len(miss) == 0 {
		return fmt.Errorf("no selection-cache miss completed")
	}
	r.addTiming("miss_p50_ms", miss, 0.5)
	bad, err := w.verifyMisses(context.Background(), missVerifyLimit)
	if err != nil {
		return err
	}
	if bad > 0 {
		r.FailedOps += int64(bad)
		return fmt.Errorf("%d miss answers differ from the library's", bad)
	}
	return nil
}

// fixedCycles is how many whole miss-pool cycles the traced run's
// fixed-length phases cover. The phases start at request 0, a cycle
// boundary, so every seed sends each pool entry exactly fixedCycles times.
const fixedCycles = 5

// fixedN is the request count of the traced run's fixed-length phases.
func (w *serveMixed) fixedN() int { return fixedCycles * w.cycleLen() }

// replayBase is where the traced run's layer replay starts in the
// sequence: the first cycle at or after traceBase whose number is
// offsetSpan/2 modulo offsetSpan. The replay follows the real units run
// from request 0 on the same server, so its keys repeat theirs only half
// an offset period later.
func (w *serveMixed) replayBase() int {
	q := traceBase / w.cycleLen()
	q += (offsetSpan/2 - q%offsetSpan + offsetSpan) % offsetSpan
	return q * w.cycleLen()
}

func (w *serveMixed) traced(ctx context.Context, budget time.Duration, tr *tracer) (map[string]float64, error) {
	m := map[string]float64{}
	var next atomic.Int64
	next.Store(int64(w.replayBase()))
	replay := func(_ int, t *tracer) error {
		i := int(next.Add(1) - 1)
		op, body, hot, err := w.request(i)
		if err != nil {
			return err
		}
		if t.on {
			w.spans.Store(t)
			defer w.spans.Store(nil)
			t.attempted++
		}
		root := t.begin("op", -1)
		a, err := w.post(ctx, w.cur.url, op, body, t, root)
		t.end(root)
		if err == nil {
			a.hot = hot
			err = w.check(i, a)
		}
		if err != nil && t.on {
			t.failed++
		}
		return err
	}
	if _, err := ledgerRun(ctx, w, budget, tr, replay, m); err != nil {
		return m, err
	}

	if bad, err := w.verifyMisses(ctx, missVerifyLimit); err != nil || bad > 0 {
		return m, fmt.Errorf("%d traced miss answers differ from the library's (%v)", bad, err)
	}

	// The same fixed slice of the sequence three times, each on a freshly
	// booted server: over one HTTP connection, in-process through
	// Server.Do, and under the full nproc connections for the server's
	// cache and admission counters. The slice is the timed run's first
	// fixedN requests, whole miss-pool cycles.
	const base = 0
	httpLat, _, err := w.fixedPhase(ctx, base, 1, func(s *server, i int) (float64, error) {
		op, body, _, err := w.request(i)
		if err != nil {
			return 0, err
		}
		t0 := time.Now()
		a, err := w.post(ctx, s.url, op, body, nil, -1)
		if err == nil && a.code != http.StatusOK {
			err = fmt.Errorf("HTTP %d: %s", a.code, a.resp.Error)
		}
		return time.Since(t0).Seconds() * 1e3, err
	})
	if err != nil {
		return m, err
	}
	doLat, _, err := w.fixedPhase(ctx, base, 1, func(s *server, i int) (float64, error) {
		op, body, _, err := w.request(i)
		if err != nil {
			return 0, err
		}
		var req serve.Request
		if err := json.Unmarshal(body, &req); err != nil {
			return 0, err
		}
		req.Op = op
		t0 := time.Now()
		resp := s.srv.Do(ctx, &req)
		d := time.Since(t0).Seconds() * 1e3
		if resp.Status != serve.StatusOK {
			return d, fmt.Errorf("%s: %s", resp.Status, resp.Error)
		}
		return d, nil
	})
	if err != nil {
		return m, err
	}
	var coalesced, shed atomic.Int64
	_, stats, err := w.fixedPhase(ctx, base, workers(), func(s *server, i int) (float64, error) {
		op, body, _, err := w.request(i)
		if err != nil {
			return 0, err
		}
		a, err := w.post(ctx, s.url, op, body, nil, -1)
		if err != nil {
			return 0, err
		}
		if a.resp.Coalesced {
			coalesced.Add(1)
		}
		if a.code == http.StatusTooManyRequests {
			shed.Add(1)
		} else if a.code != http.StatusOK {
			return 0, fmt.Errorf("HTTP %d: %s", a.code, a.resp.Error)
		}
		return 0, nil
	})
	if err != nil {
		return m, err
	}
	var hit, miss, all []float64
	for k, d := range doLat {
		if w.seq[(base+k)%len(w.seq)] < 0 {
			miss = append(miss, d)
		} else {
			hit = append(hit, d)
		}
		all = append(all, httpLat[k]-d)
	}
	m["serve.do_hit_ms"] = mean(hit)
	m["serve.do_miss_ms"] = mean(miss)
	m["serve.http_overhead_ms"] = mean(all)
	sel, prog := stats.SelectionCache, stats.ProgramCache
	m["serve.selection_hit_ratio"] = float64(sel.Hits) / float64(sel.Hits+sel.Misses)
	m["serve.program_hit_ratio"] = float64(prog.Hits) / float64(prog.Hits+prog.Misses)
	m["serve.solves"] = float64(stats.Solves)
	m["serve.coalesced"] = float64(coalesced.Load())
	m["serve.shed"] = float64(shed.Load())

	// What a miss runs behind the server: analysis and the solve, called
	// directly for every miss of the fixed slice.
	if err := w.missLayers(ctx, base, m); err != nil {
		return m, err
	}

	// The parser and the linter, called directly on the inputs the
	// source and lint requests carry.
	var parse, lint []float64
	deadline := time.Now().Add(budget / 16)
	for len(parse) == 0 || time.Now().Before(deadline) {
		for _, t := range w.hot {
			if !t.source {
				continue
			}
			t0 := time.Now()
			k, err := eatss.ParseKernel(t.req.Source)
			if err != nil {
				return m, err
			}
			eatss.Schedule(k)
			parse = append(parse, time.Since(t0).Seconds()*1e3)
			if t.op != "lint" {
				continue
			}
			p, err := eatss.AnalyzeCtx(ctx, k, t.req.Params)
			if err != nil {
				return m, err
			}
			t0 = time.Now()
			p.Lint()
			lint = append(lint, time.Since(t0).Seconds()*1e3)
		}
	}
	m["parser.parse_ms"] = mean(parse)
	m["lint.lint_ms"] = mean(lint)
	fillZero(m)
	return m, nil
}

// missLayers measures, per miss of the fixed slice, the analysis and core
// work the server runs for it: analysis.AnalyzeCtx and
// core.SelectTilesAnalyzed at the miss's warp fraction.
func (w *serveMixed) missLayers(ctx context.Context, base int, m map[string]float64) error {
	var misses, sat, calls int
	var analyze, sel, solve time.Duration
	var nodes int64
	for i := base; i < base+w.fixedN(); i++ {
		v := w.seq[i%len(w.seq)]
		if v >= 0 {
			continue
		}
		e := w.pool[-1-v]
		g, err := eatss.GPUByName(e.g)
		if err != nil {
			return err
		}
		misses++
		t0 := time.Now()
		prog := analysis.AnalyzeCtx(ctx, e.k.WithParams(w.missParams(e, i)), nil)
		analyze += time.Since(t0)
		opts := eatss.DefaultOptions()
		opts.WarpFraction = e.wf
		t0 = time.Now()
		s, err := core.SelectTilesAnalyzed(ctx, prog, g, opts)
		sel += time.Since(t0)
		if err != nil {
			continue
		}
		sat++
		calls += s.SolverCalls
		solve += s.Search.Elapsed
		nodes += s.Search.Nodes
	}
	if misses == 0 {
		return fmt.Errorf("no miss in the fixed slice")
	}
	per := func(d time.Duration) float64 { return d.Seconds() * 1e3 / float64(misses) }
	m["analysis.analyze_ms"] = per(analyze)
	m["core.select_ms"] = per(sel)
	m["core.solve_ms"] = per(solve)
	m["core.modelgen_ms"] = per(sel - solve)
	m["core.solver_calls"] = float64(calls) / float64(misses)
	m["core.unsat_calls"] = float64(misses-sat) / float64(misses)
	m["core.useful_ratio"] = float64(sat) / float64(misses)
	m["smt.nodes"] = float64(nodes) / float64(misses)
	m["smt.ns_per_node"] = float64(solve) / float64(nodes)
	return nil
}

// fixedPhase boots a fresh server and sends requests base..base+fixedN()-1
// through fn from the given number of closed-loop callers. It returns each
// request's latency and the server's counters after the phase.
func (w *serveMixed) fixedPhase(ctx context.Context, base, callers int, fn func(s *server, i int) (float64, error)) ([]float64, serve.Stats, error) {
	s, err := w.boot(ctx)
	if err != nil {
		return nil, serve.Stats{}, err
	}
	defer s.hs.Close()
	before := s.srv.Stats()
	n := w.fixedN()
	lat := make([]float64, n)
	var next atomic.Int64
	errs := make([]error, callers)
	var wg sync.WaitGroup
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for {
				k := int(next.Add(1) - 1)
				if k >= n {
					return
				}
				d, err := fn(s, base+k)
				if err != nil {
					errs[c] = fmt.Errorf("request %d: %w", base+k, err)
					return
				}
				lat[k] = d
			}
		}(c)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, serve.Stats{}, err
		}
	}
	after := s.srv.Stats()
	after.Solves -= before.Solves
	after.SelectionCache.Hits -= before.SelectionCache.Hits
	after.SelectionCache.Misses -= before.SelectionCache.Misses
	after.ProgramCache.Hits -= before.ProgramCache.Hits
	after.ProgramCache.Misses -= before.ProgramCache.Misses
	return lat, after, nil
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}
