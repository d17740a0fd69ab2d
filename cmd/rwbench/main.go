// Command rwbench regenerates experiment E7: native (real goroutines,
// sync/atomic) throughput of the A_f family, the baselines, and the
// standard library's sync.RWMutex across workload mixes. Absolute numbers
// depend on the host; the shape to look for is that read-mostly workloads
// scale for locks with reader parallelism and collapse for the serializing
// ones.
//
// With -sweeps it instead benchmarks the simulator-side sweep workloads
// serially and at -parallel workers, checks the two produce byte-identical
// results, and writes machine-readable numbers (ns/op, allocs/op, speedup)
// to a JSON file. Adding -scaling extends the artifact with a worker-count
// scaling curve (1, 2, 4, NumCPU; ns/op, speedup and parallel efficiency
// per point); -min-speedup2 turns the 2-worker speedup into a pass/fail
// gate on multicore hosts.
//
// With -compare it instead diffs two -sweeps JSON artifacts and enforces
// regression budgets on the serial measurements: the run fails if new
// ns/op or allocs/op exceed the baseline by more than the configured
// ratios. CI runs it against the committed BENCH_sweeps.json.
//
// Usage:
//
//	rwbench [-readers 8] [-writers 2] [-dur 200ms] [-parallel N]
//	rwbench -sweeps [-scaling [-min-speedup2 1.2]] [-out BENCH_sweeps.json] [-benchtime 1s]
//	rwbench -compare [-max-ns-ratio 1.25] [-max-alloc-ratio 1.10] old.json new.json
package main

import (
	"flag"
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cliutil"
	"repro/internal/experiments"
	"repro/internal/native"
	"repro/internal/tablefmt"
	"repro/internal/workload"
)

// locker is the common face of reader handles, writer handles and
// sync.RWMutex views.
type locker interface {
	Lock()
	Unlock()
}

func main() {
	readers := flag.Int("readers", 8, "reader goroutines")
	writers := flag.Int("writers", 2, "writer goroutines")
	dur := flag.Duration("dur", 200*time.Millisecond, "measurement duration per cell")
	sweeps := flag.Bool("sweeps", false, "benchmark the simulator sweep workloads (serial vs parallel) and write JSON")
	out := flag.String("out", "BENCH_sweeps.json", "output path for -sweeps")
	benchtime := flag.Duration("benchtime", time.Second, "measurement time per sweep configuration in -sweeps mode")
	scaling := flag.Bool("scaling", false, "-sweeps: also measure the worker-count scaling curve (1/2/4/NumCPU) with scheduler counters")
	minSpeedup2 := flag.Float64("min-speedup2", 0, "-scaling: fail unless every workload reaches this speedup at 2 workers (0 disables; skipped when NumCPU < 2)")
	compare := flag.Bool("compare", false, "compare two -sweeps JSON files (old new) and fail on perf regressions")
	maxNsRatio := flag.Float64("max-ns-ratio", 1.25, "-compare: max allowed new/old serial ns/op ratio (0 disables the axis)")
	maxAllocRatio := flag.Float64("max-alloc-ratio", 1.10, "-compare: max allowed new/old serial allocs/op ratio (0 disables the axis)")
	requireSameHost := flag.Bool("require-same-host", false, "-compare: fail when the two artifacts' Host blocks differ instead of just warning")
	applyParallel := cliutil.ParallelFlag()
	applyProfile := cliutil.ProfileFlags()
	flag.Parse()
	if !*compare {
		cliutil.NoArgs(flag.CommandLine)
	}
	applyParallel()
	if err := applyProfile(); err != nil {
		fmt.Fprintln(os.Stderr, "rwbench:", err)
		cliutil.Exit(1)
	}
	// Profiles flush only through cliutil.Exit (os.Exit would drop them);
	// every exit below, including the fall-through success path, uses it.
	if *compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "rwbench: -compare takes exactly two arguments: old.json new.json")
			cliutil.Exit(2)
		}
		code, err := runCompare(flag.Arg(0), flag.Arg(1), *maxNsRatio, *maxAllocRatio, *requireSameHost)
		if err != nil {
			fmt.Fprintln(os.Stderr, "rwbench:", err)
			cliutil.Exit(1)
		}
		cliutil.Exit(code)
	}
	if *sweeps {
		if err := runSweeps(*out, *benchtime, *scaling, *minSpeedup2); err != nil {
			fmt.Fprintln(os.Stderr, "rwbench:", err)
			cliutil.Exit(1)
		}
		cliutil.Exit(0)
	}
	if err := run(*readers, *writers, *dur); err != nil {
		fmt.Fprintln(os.Stderr, "rwbench:", err)
		cliutil.Exit(1)
	}
	cliutil.Exit(0)
}

func run(nReaders, nWriters int, dur time.Duration) error {
	if nReaders < 1 || nWriters < 1 {
		return fmt.Errorf("need at least one reader and one writer")
	}
	fmt.Printf("E7: native throughput, %d readers + %d writers, %v per cell (passages/sec, higher is better)\n",
		nReaders, nWriters, dur)

	mixes := []workload.Mix{workload.ReadHeavy, workload.ReadMostly, workload.Balanced}
	headers := []string{"algorithm"}
	for _, mix := range mixes {
		headers = append(headers, mix.Name)
	}
	table := tablefmt.New(headers...)

	for _, fac := range experiments.AllFactories() {
		lock, err := native.NewLock(fac.New(), nReaders, nWriters)
		if err != nil {
			return err
		}
		cells := []string{fac.Name}
		for _, mix := range mixes {
			rls := make([]locker, nReaders)
			wls := make([]locker, nWriters)
			for i := range rls {
				rls[i] = lock.Reader(i)
			}
			for i := range wls {
				wls[i] = lock.Writer(i)
			}
			ops := measure(rls, wls, mix, dur)
			cells = append(cells, fmt.Sprintf("%.0f", float64(ops)/dur.Seconds()))
		}
		table.AddRow(cells...)
	}

	// sync.RWMutex reference.
	var mu sync.RWMutex
	cells := []string{"sync.RWMutex"}
	for _, mix := range mixes {
		rls := make([]locker, nReaders)
		wls := make([]locker, nWriters)
		for i := range rls {
			rls[i] = mu.RLocker()
		}
		for i := range wls {
			wls[i] = &mu
		}
		ops := measure(rls, wls, mix, dur)
		cells = append(cells, fmt.Sprintf("%.0f", float64(ops)/dur.Seconds()))
	}
	table.AddRow(cells...)

	fmt.Println(table)
	return nil
}

// measure runs reader and writer goroutines against their handles until
// the deadline and returns the total number of completed passages. Writers
// throttle themselves to approximate the mix's write share.
func measure(readers, writers []locker, mix workload.Mix, dur time.Duration) int64 {
	var stop atomic.Bool
	var total atomic.Int64
	var wg sync.WaitGroup

	// Convert the mix into a writer duty cycle: per writer passage,
	// readers collectively complete about readShare/writeShare passages;
	// writers emulate this by spinning on a local counter between
	// passages.
	writeShare := 1 - mix.ReadFraction
	pauseIters := int(mix.ReadFraction / writeShare * float64(len(readers)) * 4)

	for _, h := range readers {
		h := h
		wg.Add(1)
		go func() {
			defer wg.Done()
			ops := int64(0)
			for !stop.Load() {
				h.Lock()
				h.Unlock()
				ops++
			}
			total.Add(ops)
		}()
	}
	for _, h := range writers {
		h := h
		wg.Add(1)
		go func() {
			defer wg.Done()
			ops := int64(0)
			sink := 0
			for !stop.Load() {
				h.Lock()
				sink++
				h.Unlock()
				ops++
				for i := 0; i < pauseIters && !stop.Load(); i++ {
					sink += i // spin between write passages
				}
			}
			_ = sink
			total.Add(ops)
		}()
	}
	time.Sleep(dur)
	stop.Store(true)
	wg.Wait()
	return total.Load()
}
