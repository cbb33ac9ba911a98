package main

import (
	"bufio"
	"encoding/json"
	"os"
	"strings"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around a
// public function of that layer. Spans of one op share the op's root.
type span struct {
	Name   string `json:"name"`
	ID     int32  `json:"id"`
	Parent int32  `json:"parent"` // -1 for an op's root span
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory and writes them out when the run ends. A
// tracer with on == false records nothing, so the same replay code runs
// untraced to measure the tracing overhead.
type tracer struct {
	mu    sync.Mutex
	on    bool
	t0    time.Time
	spans []span
	// attempted and failed count the traced run's ops and the ones whose
	// outputs differed from the untraced library result.
	attempted, failed int64
}

func newTracer() *tracer { return &tracer{on: true, t0: time.Now()} }

// begin opens a span under parent and returns its id (-1 when off).
func (t *tracer) begin(name string, parent int32) int32 {
	if t == nil || !t.on {
		return -1
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	id := int32(len(t.spans))
	t.spans = append(t.spans, span{Name: name, ID: id, Parent: parent, Start: now})
	t.mu.Unlock()
	return id
}

// end closes span id.
func (t *tracer) end(id int32) {
	if id < 0 {
		return
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// len is the number of spans recorded.
func (t *tracer) len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// ledger is the per-layer self-time account of the recorded ops.
type ledger struct {
	ops    int     // root spans named "op"
	opNs   float64 // their summed wall time
	selfNs map[string]float64
	calls  map[string]int
}

// layer returns the module a span name belongs to ("core.select" -> core).
func layer(name string) string {
	if i := strings.IndexByte(name, '.'); i >= 0 {
		return name[:i]
	}
	return name
}

// ledger computes each span's self time (its duration minus the part its
// children cover; children of one span never overlap) and sums it per span
// name, over the ops rooted at spans named "op".
func (t *tracer) ledger() ledger {
	t.mu.Lock()
	defer t.mu.Unlock()
	l := ledger{selfNs: map[string]float64{}, calls: map[string]int{}}
	child := make([]float64, len(t.spans))
	inOp := make([]bool, len(t.spans))
	for i, s := range t.spans {
		if s.Parent >= 0 {
			child[s.Parent] += float64(s.End - s.Start)
			inOp[i] = inOp[s.Parent]
		} else {
			inOp[i] = s.Name == "op"
		}
	}
	for i, s := range t.spans {
		if !inOp[i] {
			continue
		}
		d := float64(s.End - s.Start)
		if s.Parent < 0 {
			l.ops++
			l.opNs += d
			l.selfNs["op"] += d - child[i]
			continue
		}
		l.selfNs[s.Name] += d - child[i]
		l.calls[s.Name]++
	}
	return l
}

// residualRatio is the share of op wall time no layer span covers.
func (l ledger) residualRatio() float64 {
	if l.opNs == 0 {
		return 0
	}
	return l.selfNs["op"] / l.opNs
}

// perOpMs is span name's summed self time per op, in ms.
func (l ledger) perOpMs(name string) float64 {
	if l.ops == 0 {
		return 0
	}
	return l.selfNs[name] / float64(l.ops) / 1e6
}

// perCallUs is span name's mean self time per call, in µs.
func (l ledger) perCallUs(name string) float64 {
	if l.calls[name] == 0 {
		return 0
	}
	return l.selfNs[name] / float64(l.calls[name]) / 1e3
}

// write stores the spans as JSON lines.
func (t *tracer) write(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
