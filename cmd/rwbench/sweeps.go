// The -sweeps mode benchmarks the simulator-side sweep workloads that the
// parallel execution engine (internal/parwork) accelerates, at one worker
// and at GOMAXPROCS workers, verifies the two produce byte-identical
// results, and writes the numbers as machine-readable JSON
// (BENCH_sweeps.json). The file also embeds the recorded pre-overhaul
// serial baseline so speedups against the old hot path stay reviewable.
// Each workload also records exact simulator counts per op (steps,
// handoffs, replayed steps; sim.ReadCounts), which are deterministic, and
// its scaling curve across the 1/2/4/NumCPU worker axis, recording speedup
// and parallel efficiency per point.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"slices"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/memmodel"
	"repro/internal/parwork"
	"repro/internal/sim"
	"repro/internal/spec"
)

// SweepCost is one measured configuration of a sweep workload.
type SweepCost struct {
	NsPerOp     int64 `json:"ns_per_op"`
	BytesPerOp  int64 `json:"bytes_per_op"`
	AllocsPerOp int64 `json:"allocs_per_op"`
}

// ScalingPoint is one worker count on a workload's scaling curve. Its
// costs are medians over scalingRounds timings.
type ScalingPoint struct {
	Workers     int   `json:"workers"`
	NsPerOp     int64 `json:"ns_per_op"`
	BytesPerOp  int64 `json:"bytes_per_op"`
	AllocsPerOp int64 `json:"allocs_per_op"`
	// Speedup is serial (1-worker) ns/op over this point's ns/op;
	// Efficiency is Speedup/Workers (1.0 = perfect linear scaling).
	Speedup    float64 `json:"speedup"`
	Efficiency float64 `json:"efficiency"`
	// Identical records the determinism check against the serial run.
	Identical bool `json:"identical"`
}

// SweepResult is one sweep workload measured serially and in parallel.
type SweepResult struct {
	Name     string    `json:"name"`
	Serial   SweepCost `json:"serial"`
	Parallel SweepCost `json:"parallel"`
	// Speedup is serial ns/op over parallel ns/op.
	Speedup float64 `json:"speedup"`
	// Identical records the determinism check: the parallel run's rendered
	// results were byte-identical to the serial run's.
	Identical bool `json:"identical"`
	// Counts are the exact simulator counts of one run of the workload:
	// shared-memory steps, process handoffs, and steps replayed from a
	// recorded prefix. They are the same at every worker count.
	Counts *sim.Counts `json:"counts_per_op,omitempty"`
	// Scaling is the worker-count scaling curve.
	Scaling []ScalingPoint `json:"scaling,omitempty"`
}

// SweepReport is the schema of BENCH_sweeps.json.
type SweepReport struct {
	Host struct {
		GOOS       string `json:"goos"`
		GOARCH     string `json:"goarch"`
		NumCPU     int    `json:"num_cpu"`
		GOMAXPROCS int    `json:"gomaxprocs"`
	} `json:"host"`
	// ParallelWorkers is the worker count of the parallel measurements.
	ParallelWorkers int           `json:"parallel_workers"`
	Experiments     []SweepResult `json:"experiments"`
	SeedBaseline    struct {
		Note        string               `json:"note"`
		Experiments map[string]SweepCost `json:"experiments"`
	} `json:"seed_baseline"`
}

// seedBaseline is the serial cost of each sweep workload measured at the
// commit before the simulator hot-path overhaul (flattened coherence
// bitsets, alloc-free requests, Runner.Reset buffer reuse) on the
// development container (Intel Xeon @ 2.10GHz). It is embedded so the
// JSON artifact carries its own before/after story.
func seedBaseline() map[string]SweepCost {
	return map[string]SweepCost{
		"E2LowerBound":    {NsPerOp: 448040006, BytesPerOp: 106587688, AllocsPerOp: 686819},
		"CrashSweepAFLog": {NsPerOp: 22922978, BytesPerOp: 1379498, AllocsPerOp: 48358},
		"StallSweepAFLog": {NsPerOp: 50084448, BytesPerOp: 2914040, AllocsPerOp: 104391},
	}
}

// sweepWorkload is one benchmarked sweep. Run runs the full workload and
// returns its results; render turns them into the string that serial and
// parallel runs are compared on byte-for-byte. Rendering stays out of the
// timed loop: it is serial work that is not the sweep's.
type sweepWorkload struct {
	Name string
	Run  func() (any, error)
}

// render runs w once and renders its results.
func (w sweepWorkload) render() (string, error) {
	v, err := w.Run()
	return fmt.Sprintf("%+v", v), err
}

// sweepWorkloads returns the benchmarked sweeps. The configurations mirror
// bench_test.go (E2) and the E13/E15 sweep scenario, keeping the numbers
// comparable across artifacts.
func sweepWorkloads() []sweepWorkload {
	afLog := func() memmodel.Algorithm { return core.New(core.FLog) }
	sweepSc := spec.Scenario{NReaders: 2, NWriters: 2, ReaderPassages: 2, WriterPassages: 2, CSReads: 1}
	return []sweepWorkload{
		{"E2LowerBound", func() (any, error) {
			rows, _, err := experiments.E2LowerBound([]int{9, 27, 81, 243})
			return rows, err
		}},
		{"CrashSweepAFLog", func() (any, error) {
			return spec.CrashSweep(afLog, sweepSc, 0, nil)
		}},
		{"StallSweepAFLog", func() (any, error) {
			return spec.StallSweep(afLog, sweepSc, 0, nil)
		}},
	}
}

// scalingWorkerCounts is the scaling curve's worker-count axis: 1, 2, 4 and
// NumCPU, deduplicated and capped at NumCPU (measuring 4 workers on a
// 2-core host would only report scheduler overhead as if it were the
// algorithm's fault).
func scalingWorkerCounts() []int {
	ncpu := runtime.NumCPU()
	var out []int
	for _, w := range []int{1, 2, 4, ncpu} {
		if w > ncpu {
			continue
		}
		dup := false
		for _, seen := range out {
			dup = dup || seen == w
		}
		if !dup {
			out = append(out, w)
		}
	}
	return out
}

// runSweeps measures every sweep workload at 1 worker and at GOMAXPROCS
// workers for benchtime each, then across the scalingWorkerCounts axis —
// ns/op, speedup and parallel efficiency per point — and writes the JSON
// report to outPath. minSpeedup2 > 0 turns the 2-worker speedup into a gate
// (skipped on single-CPU hosts, where there is no 2-worker point to
// measure).
func runSweeps(outPath string, benchtime time.Duration, minSpeedup2 float64) error {
	// testing.Benchmark sizes b.N from the test.benchtime flag, which only
	// exists after testing.Init; registering it post-Parse is fine because
	// it is set programmatically, never from the command line.
	testing.Init()
	if err := flag.Set("test.benchtime", benchtime.String()); err != nil {
		return err
	}
	workers := runtime.GOMAXPROCS(0)
	rep := SweepReport{}
	rep.Host.GOOS = runtime.GOOS
	rep.Host.GOARCH = runtime.GOARCH
	rep.Host.NumCPU = runtime.NumCPU()
	rep.Host.GOMAXPROCS = workers
	rep.ParallelWorkers = workers
	rep.SeedBaseline.Note = "serial cost at the commit before the simulator hot-path overhaul " +
		"(pointer-chased coherence bitsets, per-op request allocations, fresh runner per execution), " +
		"measured on the development container; same workload configurations as `experiments`"
	rep.SeedBaseline.Experiments = seedBaseline()

	for _, w := range sweepWorkloads() {
		res := SweepResult{Name: w.Name}

		parwork.SetDefault(1)
		before := sim.ReadCounts()
		serialFP, err := w.render()
		if err != nil {
			return fmt.Errorf("%s (serial): %w", w.Name, err)
		}
		counts := sim.ReadCounts().Sub(before)
		res.Counts = &counts
		res.Serial = measureSweep(w.Run)

		parwork.SetDefault(workers)
		parFP, err := w.render()
		if err != nil {
			return fmt.Errorf("%s (parallel): %w", w.Name, err)
		}
		res.Parallel = measureSweep(w.Run)
		parwork.SetDefault(0)

		res.Identical = serialFP == parFP
		if !res.Identical {
			return fmt.Errorf("%s: parallel results diverged from serial", w.Name)
		}
		if res.Parallel.NsPerOp > 0 {
			res.Speedup = float64(res.Serial.NsPerOp) / float64(res.Parallel.NsPerOp)
		}
		fmt.Printf("%-16s serial %12d ns/op %8d allocs/op | parallel(%d) %12d ns/op | speedup %.2fx identical=%v\n",
			w.Name, res.Serial.NsPerOp, res.Serial.AllocsPerOp, workers,
			res.Parallel.NsPerOp, res.Speedup, res.Identical)
		fmt.Printf("%-16s per op: %d steps, %d handoffs, %d replayed steps\n",
			w.Name, counts.Steps, counts.Handoffs, counts.Replayed)

		pts, err := measureScaling(w, serialFP)
		if err != nil {
			return err
		}
		res.Scaling = pts
		rep.Experiments = append(rep.Experiments, res)
	}

	buf, err := json.MarshalIndent(&rep, "", "  ")
	if err != nil {
		return err
	}
	buf = append(buf, '\n')
	if err := os.WriteFile(outPath, buf, 0o644); err != nil {
		return err
	}
	fmt.Println("wrote", outPath)

	// The gate runs after the artifact is written so a failing run still
	// leaves the numbers behind for inspection.
	if minSpeedup2 > 0 {
		if code := checkSpeedup2(rep.Experiments, minSpeedup2); code != 0 {
			return fmt.Errorf("scaling gate failed: 2-worker speedup below %.2fx", minSpeedup2)
		}
	}
	return nil
}

// scalingRounds is the number of timings behind each scaling point. A
// point's costs are the medians of its timings, taken in rounds that visit
// every worker count in turn, so a slow spell of the host lands on all
// points alike rather than on one.
const scalingRounds = 7

// measureScaling measures one workload across the scaling worker-count
// axis. Per point it runs the workload once outside the timing loop to
// re-verify byte-identity against the serial fingerprint under this
// worker count. It then times every point scalingRounds times with the
// benchmark harness, alternating the worker counts. Speedups are relative
// to the curve's own 1-worker point so the curve is internally consistent
// whatever the harness's iteration choices.
func measureScaling(w sweepWorkload, serialFP string) ([]ScalingPoint, error) {
	defer parwork.SetDefault(0)
	counts := scalingWorkerCounts()
	pts := make([]ScalingPoint, len(counts))
	for i, wkr := range counts {
		parwork.SetDefault(wkr)
		fp, err := w.render()
		if err != nil {
			return nil, fmt.Errorf("%s (scaling, %d workers): %w", w.Name, wkr, err)
		}
		pts[i] = ScalingPoint{Workers: wkr, Identical: fp == serialFP}
		if !pts[i].Identical {
			return nil, fmt.Errorf("%s: results at %d workers diverged from serial", w.Name, wkr)
		}
	}
	samples := make([][]SweepCost, len(counts))
	for round := 0; round < scalingRounds; round++ {
		for i, wkr := range counts {
			parwork.SetDefault(wkr)
			samples[i] = append(samples[i], measureSweep(w.Run))
		}
	}
	var baseNs int64
	for i := range pts {
		pt := &pts[i]
		pt.NsPerOp = median(samples[i], func(c SweepCost) int64 { return c.NsPerOp })
		pt.BytesPerOp = median(samples[i], func(c SweepCost) int64 { return c.BytesPerOp })
		pt.AllocsPerOp = median(samples[i], func(c SweepCost) int64 { return c.AllocsPerOp })
		if pt.Workers == 1 {
			baseNs = pt.NsPerOp
		}
		if baseNs > 0 && pt.NsPerOp > 0 {
			pt.Speedup = float64(baseNs) / float64(pt.NsPerOp)
			pt.Efficiency = pt.Speedup / float64(pt.Workers)
		}
		fmt.Printf("%-16s workers=%-2d %12d ns/op %8d allocs/op | speedup %.2fx efficiency %.2f\n",
			w.Name, pt.Workers, pt.NsPerOp, pt.AllocsPerOp, pt.Speedup, pt.Efficiency)
	}
	return pts, nil
}

// median returns the median of field over costs (the upper one of an even
// count).
func median(costs []SweepCost, field func(SweepCost) int64) int64 {
	vs := make([]int64, len(costs))
	for i, c := range costs {
		vs[i] = field(c)
	}
	slices.Sort(vs)
	return vs[len(vs)/2]
}

// checkSpeedup2 enforces the CI scaling gate: every workload's 2-worker
// point must reach minSpeedup. Returns 0 when the gate passes or is
// skipped (single-CPU host: no 2-worker point exists), 1 otherwise.
func checkSpeedup2(results []SweepResult, minSpeedup float64) int {
	if runtime.NumCPU() < 2 {
		fmt.Printf("scaling gate: skipped (NumCPU=%d, no 2-worker point)\n", runtime.NumCPU())
		return 0
	}
	code := 0
	for _, res := range results {
		for _, pt := range res.Scaling {
			if pt.Workers != 2 {
				continue
			}
			if pt.Speedup < minSpeedup {
				fmt.Printf("scaling gate: FAIL %s speedup at 2 workers %.2fx < %.2fx\n",
					res.Name, pt.Speedup, minSpeedup)
				code = 1
			} else {
				fmt.Printf("scaling gate: ok %s speedup at 2 workers %.2fx >= %.2fx\n",
					res.Name, pt.Speedup, minSpeedup)
			}
		}
	}
	return code
}

// measureSweep times fn with the testing harness (-benchtime per
// configuration) and extracts per-op costs.
func measureSweep(fn func() (any, error)) SweepCost {
	r := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := fn(); err != nil {
				b.Fatal(err)
			}
		}
	})
	return SweepCost{
		NsPerOp:     r.NsPerOp(),
		BytesPerOp:  r.AllocedBytesPerOp(),
		AllocsPerOp: r.AllocsPerOp(),
	}
}
