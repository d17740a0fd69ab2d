package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// phase is one measured stretch of a run.
type phase struct {
	// lat holds one latency (ns) per attempted operation, failed ones
	// included.
	lat     []float64
	failed  int64
	elapsed time.Duration
	rt      runtimeDelta
	cpuNS   float64 // process user+system CPU time over the phase
	// rssMB is the process's peak resident memory when the phase ended,
	// read before the samples are merged and sorted.
	rssMB float64
}

// tailLadder is the set of percentiles latency_ms_tail is chosen from.
// It stops at p99.9: over ten 30-second runs of svc-mixed-mem, p99.9 read
// 4.08–4.11 ms while p99.99 read 4.4–8.7 ms, set by single scheduler
// hiccups of the host rather than by the program.
var tailLadder = []float64{50, 90, 99, 99.9}

// rank returns the 0-based nearest-rank index of percentile p among n
// sorted samples.
func rank(p float64, n int) int {
	// The epsilon keeps float error (99.9*10000/100 = 9990.000000000002)
	// from moving the rank up by one.
	i := int(math.Ceil(p*float64(n)/100-1e-9)) - 1
	if i < 0 {
		i = 0
	}
	return i
}

// tailPercentile returns the highest ladder percentile, up to top, with
// at least ten of n samples beyond it. With fewer than twenty samples no
// percentile qualifies and it returns 100, the maximum.
func tailPercentile(n int, top float64) float64 {
	best := 100.0
	for _, p := range tailLadder {
		if p <= top && n-1-rank(p, n) >= 10 {
			best = p
		}
	}
	return best
}

// percentile returns the nearest-rank p-th percentile of xs (0 for none).
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if p >= 100 {
		return s[len(s)-1]
	}
	return s[rank(p, len(s))]
}

func meanNS(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// closedLoop runs clients callers, each issuing its next operation when
// the previous one returns, until dur has passed. op receives the caller
// index and the caller's operation counter.
func closedLoop(clients int, dur time.Duration, op func(c, i int) error) *phase {
	type part struct {
		lat    samples
		failed int64
	}
	parts := make([]part, clients)
	before := readRuntime()
	cpu0 := cpuTime()
	start := time.Now()
	deadline := start.Add(dur)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			p := &parts[c]
			for i := 0; ; i++ {
				t0 := time.Now()
				if !t0.Before(deadline) {
					return
				}
				err := op(c, i)
				p.lat.add(float64(time.Since(t0)))
				if err != nil {
					p.failed++
				}
			}
		}(c)
	}
	wg.Wait()
	ph := &phase{elapsed: time.Since(start), rssMB: maxRSSMB()}
	ph.cpuNS = cpuTime() - cpu0
	ph.rt = readRuntime().sub(before)
	for _, p := range parts {
		ph.lat = p.lat.appendTo(ph.lat)
		ph.failed += p.failed
	}
	return ph
}

// samples records measurements in fixed-size chunks: recording never
// copies earlier samples, so the benchmark's own memory grows in step
// with the count instead of jumping when a slice doubles.
type samples struct{ chunks [][]float64 }

func (s *samples) add(v float64) {
	if n := len(s.chunks); n == 0 || len(s.chunks[n-1]) == cap(s.chunks[n-1]) {
		s.chunks = append(s.chunks, make([]float64, 0, 1<<13))
	}
	last := &s.chunks[len(s.chunks)-1]
	*last = append(*last, v)
}

func (s *samples) appendTo(dst []float64) []float64 {
	for _, c := range s.chunks {
		dst = append(dst, c...)
	}
	return dst
}

// runtimeDelta is the change of the Go runtime's counters over a phase.
type runtimeDelta struct {
	allocBytes, allocs, gcCycles, mutexWaitS float64
	schedLatP50S                             float64
}

type runtimeSample struct {
	allocBytes, allocs, gcCycles uint64
	mutexWaitS                   float64
	schedLat                     *metrics.Float64Histogram
}

var runtimeMetricNames = []string{
	"/gc/heap/allocs:bytes",
	"/gc/heap/allocs:objects",
	"/gc/cycles/total:gc-cycles",
	"/sync/mutex/wait/total:seconds",
	"/sched/latencies:seconds",
}

func readRuntime() runtimeSample {
	s := make([]metrics.Sample, len(runtimeMetricNames))
	for i, n := range runtimeMetricNames {
		s[i].Name = n
	}
	metrics.Read(s)
	return runtimeSample{
		allocBytes: s[0].Value.Uint64(),
		allocs:     s[1].Value.Uint64(),
		gcCycles:   s[2].Value.Uint64(),
		mutexWaitS: s[3].Value.Float64(),
		schedLat:   s[4].Value.Float64Histogram(),
	}
}

func (s runtimeSample) sub(prev runtimeSample) runtimeDelta {
	d := runtimeDelta{
		allocBytes: float64(s.allocBytes - prev.allocBytes),
		allocs:     float64(s.allocs - prev.allocs),
		gcCycles:   float64(s.gcCycles - prev.gcCycles),
		mutexWaitS: s.mutexWaitS - prev.mutexWaitS,
	}
	// Median of the histogram delta, at the upper edge of its bucket.
	counts := make([]uint64, len(s.schedLat.Counts))
	var total uint64
	for i := range counts {
		counts[i] = s.schedLat.Counts[i] - prev.schedLat.Counts[i]
		total += counts[i]
	}
	var seen uint64
	for i, c := range counts {
		seen += c
		if total > 0 && seen*2 >= total {
			d.schedLatP50S = s.schedLat.Buckets[i+1]
			if math.IsInf(d.schedLatP50S, 1) {
				d.schedLatP50S = s.schedLat.Buckets[i]
			}
			break
		}
	}
	return d
}

// cpuTime returns the process's user+system CPU time in ns.
func cpuTime() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Utime.Nano() + ru.Stime.Nano())
}

// maxRSSMB returns the process's peak resident set size (VmHWM) in MiB.
func maxRSSMB() float64 {
	v, err := procField("/proc/self/status", "VmHWM:")
	if err != nil {
		var ru syscall.Rusage
		if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) != nil {
			return 0
		}
		return float64(ru.Maxrss) / 1024
	}
	return v / 1024 // kB
}

// procIO is the process's I/O accounting from /proc/self/io.
type procIO struct{ wchar, syscw float64 }

func readProcIO() procIO {
	w, _ := procField("/proc/self/io", "wchar:")
	c, _ := procField("/proc/self/io", "syscw:")
	return procIO{wchar: w, syscw: c}
}

// procField returns the first number after prefix in a /proc file.
func procField(path, prefix string) (float64, error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), prefix); ok {
			fields := strings.Fields(rest)
			if len(fields) == 0 {
				break
			}
			return strconv.ParseFloat(fields[0], 64)
		}
	}
	return 0, fmt.Errorf("%s: no %s", path, prefix)
}

// calibSink keeps calibrate's loop from being optimized away.
var calibSink uint64

// calibrate times a fixed pure-CPU loop (median of five) in ms. It does
// not touch the program; a change in it between runs is host drift.
func calibrate() float64 {
	var times []float64
	for r := 0; r < 5; r++ {
		start := time.Now()
		x := uint64(0x9e3779b97f4a7c15)
		for i := 0; i < 20_000_000; i++ {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
		}
		calibSink += x
		times = append(times, float64(time.Since(start))/1e6)
	}
	return median(times)
}
