package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// maxKeptSpans bounds the spans kept whole for the trace file; the
// per-layer aggregates cover every span regardless.
const maxKeptSpans = 200_000

// tracer records spans around the benchmark's calls into each layer.
// Spans stay in memory and are written out when the run ends. A nil
// *tracer records nothing, which is how the untraced phases run.
type tracer struct {
	mu      sync.Mutex
	origin  time.Time
	agg     map[string]*spanAgg
	spans   []span
	dropped int64
}

// span is one call across a layer boundary. Spans of one operation share
// Op; Parent names the boundary whose span encloses this one.
type span struct {
	Name, Parent   string
	Op             int64
	StartNS, EndNS int64
}

type spanAgg struct {
	count            int64
	totalNS, childNS float64
}

func newTracer() *tracer {
	return &tracer{origin: time.Now(), agg: map[string]*spanAgg{}}
}

func (t *tracer) aggLocked(name string) *spanAgg {
	a := t.agg[name]
	if a == nil {
		a = &spanAgg{}
		t.agg[name] = a
	}
	return a
}

// record adds one span and charges its duration to its parent's child
// time.
func (t *tracer) record(name, parent string, op int64, start, end time.Time) {
	if t == nil {
		return
	}
	d := float64(end.Sub(start))
	t.mu.Lock()
	defer t.mu.Unlock()
	a := t.aggLocked(name)
	a.count++
	a.totalNS += d
	if parent != "" {
		t.aggLocked(parent).childNS += d
	}
	if len(t.spans) < maxKeptSpans {
		t.spans = append(t.spans, span{name, parent, op,
			int64(start.Sub(t.origin)), int64(end.Sub(t.origin))})
	} else {
		t.dropped++
	}
}

// recordAgg adds count spans totalling totalNS that are too many to keep
// one by one (a scheduler pick per simulated step). They ran spread over
// par parallel workers inside the parent, so they cover 1/par of their
// total of the parent's interval.
func (t *tracer) recordAgg(name, parent string, count int64, totalNS float64, par int) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	a := t.aggLocked(name)
	a.count += count
	a.totalNS += totalNS
	if parent != "" {
		t.aggLocked(parent).childNS += totalNS / float64(par)
	}
}

// selfNS is the summed duration of a boundary's spans minus the part of
// it their child spans cover.
func (t *tracer) selfNS(name string) float64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	a := t.agg[name]
	if a == nil {
		return 0
	}
	return a.totalNS - a.childNS
}

func (t *tracer) count(name string) int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if a := t.agg[name]; a != nil {
		return a.count
	}
	return 0
}

// write saves the kept spans as tab-separated lines (name, parent, op,
// start ns, end ns) followed by one summary line per boundary.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	t.mu.Lock()
	for _, s := range t.spans {
		fmt.Fprintf(w, "%s\t%s\t%d\t%d\t%d\n", s.Name, s.Parent, s.Op, s.StartNS, s.EndNS)
	}
	names := make([]string, 0, len(t.agg))
	for n := range t.agg {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		a := t.agg[n]
		fmt.Fprintf(w, "# %s count=%d total_ns=%.0f self_ns=%.0f\n", n, a.count, a.totalNS, a.totalNS-a.childNS)
	}
	fmt.Fprintf(w, "# dropped_spans=%d\n", t.dropped)
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
