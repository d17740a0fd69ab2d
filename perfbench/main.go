// Command perfbench is the repository's end-to-end benchmark. One run
// measures one workload for a fixed number of seconds and prints, as the
// last line of standard output, one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end metrics (throughput,
// median and tail latency, set-up time, peak RSS). With --trace 1 the run
// is split in two halves: an untraced half, then a traced half that wraps
// the calls into each layer in spans and counting wrappers; the metrics
// are the per-layer metrics plus the tracing overhead between the halves.
//
// Build and run it from the repository root with
//
//	bash perfbench/run.sh --workload sim-adversary --seed 1 --seconds 20 --trace 0
//
// README.md in this directory records why each workload exists and which
// end-to-end metric each layer metric is expected to move.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// heldOutSeed is never used while tuning the benchmark; a claimed gain
// must also hold on it (see README.md).
const heldOutSeed = 7919

// workload is one named set of inputs and the loop that drives them.
type workload struct {
	name string
	// procs is the GOMAXPROCS the workload runs at; clients the number of
	// concurrent callers (closed loop) or sessions (open loop).
	procs, clients int
	// tailTop is the highest percentile latency_ms_tail may use.
	tailTop float64
	run     func(env *env) (*report, error)
}

// svc-write-durable's tail stops at p90: above it, its latencies are set
// by the host disk's fsync latency (a WAL sync every 5 ms holds appends,
// and each snapshot rotation syncs several times), and over three sets
// of runs its p99.9 spread by 0.18, 0.50 and 0.60 of its median as the
// disk went through slow stretches, and its p99 by 0.49 over six runs
// in the calmest.
var workloads = []workload{
	{name: "sim-adversary", procs: 2, clients: 1, tailTop: 99.9, run: runAdversary},
	{name: "sim-fault-sweep", procs: 2, clients: 1, tailTop: 99.9, run: runFaultSweep},
	{name: "svc-mixed-mem", procs: 2, clients: 2, tailTop: 99.9, run: runMixedMem},
	{name: "svc-write-durable", procs: 2, clients: 2, tailTop: 90, run: runWriteDurable},
}

// env is what a workload receives: the run's seed and length, whether
// this run is traced, and a scratch directory inside the checkout.
type env struct {
	seed    int64
	dur     time.Duration
	traced  bool
	workdir string
	log     io.Writer
}

// phases returns the measured phases of the run: one untraced phase of
// the whole length, or an untraced and a traced half.
func (e *env) phases() []bool {
	if e.traced {
		return []bool{false, true}
	}
	return []bool{false}
}

func (e *env) phaseDur() time.Duration {
	if e.traced {
		return e.dur / 2
	}
	return e.dur
}

// report is a workload's measured run.
type report struct {
	setupS float64
	// untraced holds the phase whose numbers are the end-to-end metrics;
	// traced is the traced phase (nil with --trace 0).
	untraced, traced *phase
	// failed counts correctness-gate mismatches found after the loop, on
	// top of the operations that returned an error.
	failed int64
	// layers are the per-layer metrics the workload measured; every name
	// of layerMetrics it does not set is reported as 0 (layer idle).
	layers map[string]float64
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run")
	seed := fs.Int64("seed", 1, "input seed")
	seconds := fs.Int("seconds", 20, "measured seconds")
	traceFlag := fs.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced half")
	workdir := fs.String("workdir", ".bench_build", "scratch directory")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 || *seconds < 1 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintln(stderr, "perfbench: usage: --workload <name> --seed <n> --seconds <s> --trace <0|1>")
		return 2
	}
	w, ok := lookup(*name)
	if !ok {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q\n", *name)
		return 2
	}
	dir, err := os.MkdirTemp(*workdir, "run-")
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(dir)

	runtime.GOMAXPROCS(w.procs)
	e := &env{seed: *seed, dur: time.Duration(*seconds) * time.Second,
		traced: *traceFlag == 1, workdir: dir, log: stderr}
	fmt.Fprintf(stderr, "perfbench: workload=%s seed=%d seconds=%d trace=%d gomaxprocs=%d clients=%d num_cpu=%d\n",
		w.name, e.seed, *seconds, *traceFlag, w.procs, w.clients, runtime.NumCPU())

	calibStart := calibrate()
	rep, err := w.run(e)
	calibEnd := calibrate()
	if err != nil {
		// A set-up that fails, correctness gate or not, is a failed run:
		// it still prints its result line, with one failed operation.
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.name, err)
		printResult(stdout, stderr, failedResult(e))
		return 1
	}
	fmt.Fprintf(stderr, "perfbench: host.calib_ms start=%.3f end=%.3f\n", calibStart, calibEnd)

	res := assemble(w, e, rep, (calibStart+calibEnd)/2)
	fmt.Fprintf(stderr, "perfbench: %d ops, %d failed, tail percentile p%g over %d samples\n",
		res.Attempted, res.Failed, tailPercentile(len(rep.untraced.lat), w.tailTop), len(rep.untraced.lat))
	fmt.Fprint(stderr, "perfbench: latency ms")
	for _, p := range tailLadder {
		fmt.Fprintf(stderr, " p%g=%.4f", p, ms(percentile(rep.untraced.lat, p)))
	}
	fmt.Fprintln(stderr)
	if !printResult(stdout, stderr, res) || !res.Correct {
		return 1
	}
	return 0
}

// printResult prints res as the JSON result line.
func printResult(stdout, stderr io.Writer, res result) bool {
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return false
	}
	fmt.Fprintln(stdout, string(out))
	return true
}

func lookup(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// endToEnd lists the end-to-end metrics; BENCHMARK.json names the same.
var endToEnd = []struct{ name, unit string }{
	{"throughput_ops_s", "ops/s"},
	{"latency_ms_p50", "ms"},
	{"latency_ms_tail", "ms"},
	{"setup_s", "s"},
	{"max_rss_mb", "MB"},
}

// failedResult is the result of a run whose set-up failed: one attempted
// operation, failed, and every metric of the run's kind at 0.
func failedResult(e *env) result {
	res := result{Correct: false, Attempted: 1, Failed: 1, Metrics: map[string]metric{}}
	names := endToEnd
	if e.traced {
		names = layerMetrics
	}
	for _, m := range names {
		res.Metrics[m.name] = metric{0, m.unit}
	}
	return res
}

// assemble turns a workload report into the printed result.
func assemble(w workload, e *env, rep *report, calibMS float64) result {
	attempted, failed := rep.failed, rep.failed
	for _, ph := range []*phase{rep.untraced, rep.traced} {
		if ph != nil {
			attempted += int64(len(ph.lat))
			failed += ph.failed
		}
	}
	if attempted == 0 {
		attempted, failed = 1, 1 // a run that completed no operation failed
	}
	res := result{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: map[string]metric{}}
	if !e.traced {
		u := rep.untraced
		vals := map[string]float64{
			"throughput_ops_s": float64(len(u.lat)) / u.elapsed.Seconds(),
			"latency_ms_p50":   ms(percentile(u.lat, 50)),
			"latency_ms_tail":  ms(percentile(u.lat, tailPercentile(len(u.lat), w.tailTop))),
			"setup_s":          rep.setupS,
			"max_rss_mb":       u.rssMB,
		}
		for _, m := range endToEnd {
			res.Metrics[m.name] = metric{vals[m.name], m.unit}
		}
		return res
	}
	vals := rep.layers
	u, t := rep.untraced, rep.traced
	vals["host.calib_ms"] = calibMS
	if n := len(u.lat); n > 0 {
		vals["runtime.alloc_bytes_per_op"] = u.rt.allocBytes / float64(n)
		vals["runtime.allocs_per_op"] = u.rt.allocs / float64(n)
		vals["runtime.gc_cycles_per_op"] = u.rt.gcCycles / float64(n)
		vals["runtime.mutex_wait_us_per_op"] = u.rt.mutexWaitS * 1e6 / float64(n)
	}
	vals["runtime.sched_latency_us_p50"] = u.rt.schedLatP50S * 1e6
	if mu, mt := meanNS(u.lat), meanNS(t.lat); mu > 0 && mt > 0 {
		vals["trace.overhead_pct"] = (mt/mu - 1) * 100
	}
	for _, m := range layerMetrics {
		v := vals[m.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0 // no operation to divide by: the layer reads as idle
		}
		res.Metrics[m.name] = metric{v, m.unit}
	}
	return res
}

// ms converts nanoseconds to milliseconds.
func ms(ns float64) float64 { return ns / 1e6 }

// median returns the median of xs (0 for none); xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// setupMedian builds a workload instance reps times, timing each build
// (prepare, when non-nil, runs untimed before it), drops all but the
// last, and returns it with the median build time, so one slow set-up
// does not move it.
func setupMedian[T any](e *env, reps int, prepare func() error, build func() (T, error), drop func(T)) (T, float64, error) {
	var (
		inst  T
		times []float64
	)
	for i := 0; i < reps; i++ {
		if i > 0 {
			drop(inst)
		}
		if prepare != nil {
			if err := prepare(); err != nil {
				return inst, 0, fmt.Errorf("set-up: %w", err)
			}
		}
		// Each set-up starts from a collected heap, so the garbage of the
		// one before is not collected on its time.
		runtime.GC()
		start := time.Now()
		var err error
		inst, err = build()
		if err != nil {
			return inst, 0, fmt.Errorf("set-up: %w", err)
		}
		times = append(times, time.Since(start).Seconds())
	}
	sort.Float64s(times)
	fmt.Fprintf(e.log, "perfbench: set-up x%d: min %.6f s, median %.6f s, max %.6f s\n",
		reps, times[0], median(times), times[len(times)-1])
	return inst, median(times), nil
}

// errGate marks a correctness-gate mismatch.
var errGate = errors.New("correctness gate")

// tracePath is where a traced run of workload writes its spans: next to
// the run directories, so the file outlives the run.
func (e *env) tracePath(workload string) string {
	return filepath.Join(filepath.Dir(e.workdir), "traces", fmt.Sprintf("%s-seed%d.tsv", workload, e.seed))
}
