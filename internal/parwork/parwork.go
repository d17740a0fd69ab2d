// Package parwork is the deterministic parallel execution engine for the
// repository's sweeps. Every sweep in internal/spec, internal/fault,
// internal/experiments and internal/explore is a set of INDEPENDENT
// simulated executions — one per fault point, grid cell, seed or schedule
// subtree — whose results are aggregated afterwards. parwork fans those
// jobs out across a bounded worker pool and delivers results in canonical
// index order, so the parallel output is byte-identical to the serial
// output: job i writes exactly result slot i, no matter which worker runs
// it or when it finishes.
//
// DoRobust (robust.go) is the one worker pool; Do and DoErr are thin calls
// into it. Each field of Options turns on one robustness behavior, and a
// zero Options is a plain fan-out.
//
// Workers claim rows one at a time from a shared cursor (see claim.go).
// Callers may pass a CostHint describing each row's known shape, and the
// cursor then hands rows out largest-first. Hints change only wall clock,
// never results.
//
// The determinism contract is the caller's side of the bargain: each job
// must be a pure function of its index (fresh algorithm instance, fresh
// scheduler, fresh runner per job — never shared mutable state), because
// jobs run concurrently and in no particular order. The spec harness's
// sweep entry points uphold this by constructing everything per run and by
// forcing serial execution when a caller installs a shared trace Observer.
//
// This package deliberately lives OUTSIDE the simulated shared-memory
// discipline: it uses real goroutines and sync because it coordinates
// whole simulator executions, not simulated shared-memory steps. The
// rwlint memdiscipline analyzer's scope (lint.AlgorithmPackages) does not
// — and must not — include it; see internal/lint.
package parwork

import (
	"runtime"
	"sync/atomic"
)

// defaultWorkers holds the process-wide default worker count; 0 means
// runtime.GOMAXPROCS(0). The cmd binaries set it from their -parallel
// flags.
var defaultWorkers atomic.Int64

// SetDefault sets the process-wide default worker count used when a sweep
// is invoked with no explicit parallelism (Workers(0)). n <= 0 restores
// the initial default, GOMAXPROCS.
func SetDefault(n int) {
	if n < 0 {
		n = 0
	}
	defaultWorkers.Store(int64(n))
}

// Default returns the current default worker count.
func Default() int {
	if n := defaultWorkers.Load(); n > 0 {
		return int(n)
	}
	return runtime.GOMAXPROCS(0)
}

// Workers normalizes a worker-count request: n > 0 is taken verbatim,
// anything else resolves to Default().
func Workers(n int) int {
	if n > 0 {
		return n
	}
	return Default()
}

// Do runs job(i) for every i in [0, n) across at most workers concurrent
// goroutines (Workers-normalized) and returns the results in index order.
// cost is the claim-order hint for row i (see CostHint; nil keeps index
// order); it changes the claim order, never the results. With one worker
// the jobs run serially, in order, on the calling goroutine; the output
// is identical either way for pure jobs. A panic in any job stops the pool
// from claiming further rows and is re-raised on the calling goroutine
// after the workers drain. Do is DoRobust with zero Options.
func Do[T any](workers, n int, cost CostHint, job func(i int) T) []T {
	out, _ := DoRobust(Options{Workers: workers, Cost: cost}, n,
		func() struct{} { return struct{}{} }, func(struct{}) {},
		func(_ struct{}, i int) T { return job(i) }, nil)
	return out
}

// DoErr is Do for jobs that can fail. Every job runs regardless of other
// jobs' failures (results must not depend on scheduling), and the error of
// the LOWEST failing index is returned — the same error a serial loop that
// stops at the first failure would report. On error the results are
// discarded and nil is returned.
func DoErr[T any](workers, n int, cost CostHint, job func(i int) (T, error)) ([]T, error) {
	errs := make([]error, n)
	out := Do(workers, n, cost, func(i int) T {
		v, err := job(i)
		errs[i] = err
		return v
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// panicValue boxes a recovered panic so a nil-interface payload still
// round-trips through the atomic pointer.
type panicValue struct{ v any }
