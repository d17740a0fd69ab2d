package repro

// bench_test.go regenerates every experiment from DESIGN.md as a testing.B
// target. The simulator tables come from the experiments registry and are
// deterministic: the "bench" aspect times one full table regeneration, and
// with -v each run prints the table it produced (the same table
// cmd/rmrall prints). E7 measures native lock throughput with real
// goroutines.
//
//	go test -bench=. -benchmem
//	go test -bench=Experiments/E2 -v       # print the lower-bound table

import (
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/native"
)

// BenchmarkExperiments regenerates every table of the experiments
// registry, one sub-benchmark per entry (BenchmarkExperiments/E2, ...).
// Under -short each entry runs its quick grid (E13-E15 have only one, under
// a second together), so the CI benchmark smoke job (-bench=. -benchtime=1x
// -short) stays a compile-and-run check rather than a full table
// regeneration.
func BenchmarkExperiments(b *testing.B) {
	for _, e := range experiments.Registry() {
		b.Run(e.Name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				table, err := e.Run(testing.Short())
				if err != nil {
					b.Fatal(err)
				}
				if i == 0 && testing.Verbose() {
					b.Logf("%s: %s\n%s", e.Name, e.Title, table)
				}
			}
		})
	}
}

// benchNativeLock measures native read-passage latency: b.N read passages
// spread across reader goroutines with one background writer.
func benchNativeLock(b *testing.B, f core.F, nReaders int) {
	b.Helper()
	lock, err := native.NewLock(core.New(f), nReaders, 1)
	if err != nil {
		b.Fatal(err)
	}
	var stop atomic.Bool
	var wg sync.WaitGroup
	// Background writer at ~low duty.
	w := lock.Writer(0)
	wg.Add(1)
	go func() {
		defer wg.Done()
		for !stop.Load() {
			w.Lock()
			w.Unlock() //nolint:staticcheck // empty critical section is the point
			for i := 0; i < 2000 && !stop.Load(); i++ {
				_ = i
			}
		}
	}()

	perReader := b.N / nReaders
	b.ResetTimer()
	var rwg sync.WaitGroup
	for rid := 0; rid < nReaders; rid++ {
		h := lock.Reader(rid)
		rwg.Add(1)
		go func() {
			defer rwg.Done()
			for i := 0; i < perReader; i++ {
				h.Lock()
				h.Unlock()
			}
		}()
	}
	rwg.Wait()
	b.StopTimer()
	stop.Store(true)
	wg.Wait()
}

// BenchmarkE7NativeAF1 measures af-1 (cheapest writer, log-n readers).
func BenchmarkE7NativeAF1(b *testing.B) { benchNativeLock(b, core.FOne, 4) }

// BenchmarkE7NativeAFLog measures af-log (balanced tradeoff point).
func BenchmarkE7NativeAFLog(b *testing.B) { benchNativeLock(b, core.FLog, 4) }

// BenchmarkE7NativeAFN measures af-n (constant-RMR readers).
func BenchmarkE7NativeAFN(b *testing.B) { benchNativeLock(b, core.FLinear, 4) }

// BenchmarkE7NativeSyncRWMutex is the stdlib reference point.
func BenchmarkE7NativeSyncRWMutex(b *testing.B) {
	var mu sync.RWMutex
	var stop atomic.Bool
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for !stop.Load() {
			mu.Lock()
			mu.Unlock() //nolint:staticcheck // empty critical section is the point
			for i := 0; i < 2000 && !stop.Load(); i++ {
				_ = i
			}
		}
	}()
	const nReaders = 4
	perReader := b.N / nReaders
	b.ResetTimer()
	var rwg sync.WaitGroup
	for rid := 0; rid < nReaders; rid++ {
		rwg.Add(1)
		go func() {
			defer rwg.Done()
			for i := 0; i < perReader; i++ {
				mu.RLock()
				mu.RUnlock()
			}
		}()
	}
	rwg.Wait()
	b.StopTimer()
	stop.Store(true)
	wg.Wait()
}
