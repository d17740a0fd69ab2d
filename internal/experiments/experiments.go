// Package experiments defines the reproduction experiments from
// DESIGN.md, one function per experiment. Each returns machine-readable
// rows plus a rendered text table, and an error when a claim the table
// checks fails: the property gates of E6 and the fault tables E13-E15
// live in the function that builds their rows. Registry lists the
// simulator tables of EXPERIMENTS.md with their published grids:
// cmd/rmrall prints them and bench_test.go times them.
//
// The paper (PODC 2016, theory) has no numbered tables or measurement
// figures; the experiments reproduce its quantitative *claims*:
//
//	E1  Theorem 18 upper bounds: writer Theta(f(n)), reader Theta(log(n/f)).
//	E2  Theorem 5 lower-bound construction (Figure 1): iterations r,
//	    expanding steps, Lemmas 1/2/4 checks.
//	E3  Corollaries 6-7: max(writer-entry, reader-exit) = Omega(log n) and
//	    the Omega(log m) writers-only bound.
//	E4  Cross-algorithm comparison over workload mixes (Section 6).
//	E5  Write-through vs write-back (Section 2: results hold for both).
//	E6  Property matrix: Mutual Exclusion, progress, reader overlap,
//	    Bounded Exit across algorithms and schedules (Section 5).
//	E7  Native throughput sanity (bench_test.go and cmd/rwbench).
//	E8  CC vs DSM model contrast (Section 6).
//	E9  Group-counter ablation: f-array vs CAS word vs cell array.
//	E10 Writers' mutex (WL) substrate ablation.
//	E11 Adversarial construction vs random schedule sampling.
//	E12 Theorem 18's Theta claims as least-squares slopes.
//	E13 Crash-stop robustness and abortable entry.
//	E14 Crash-recovery sweep over the recoverable locks.
//	E15 Fail-slow stall sweeps and starvation accounting.
//	E16 Exhaustive model checking of one reader against one writer.
package experiments

import (
	"fmt"
	"slices"

	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/fairness"
	"repro/internal/memmodel"
	"repro/internal/parwork"
)

// gridRows evaluates job over the (outer x inner) grid and returns one
// result per cell in row-major order — the order the equivalent nested
// loops would produce. Cells fan out across the process-default worker
// count (parwork.Default, set by the cmd -parallel flags); the error of
// the row-major-first failing cell wins, matching a serial loop that
// stops at its first failure. Jobs run concurrently, so they must only
// touch per-cell state (the Factory constructors are pure and safe).
//
// cost, when non-nil, is the cell's scheduling hint (parwork.CostHint
// semantics: relative magnitudes only, results never depend on it). The
// experiment grids are wildly uneven — an adversary run over n=243
// processes dwarfs one over n=9 by orders of magnitude — so the heavy
// grids pass their known row shape (step budget, process count) and the
// scheduler seeds the monster cells first instead of discovering them
// behind a drained pool. Pass nil for uniform grids.
func gridRows[A, B, R any](outer []A, inner []B, cost func(a A, b B) int64, job func(a A, b B) (R, error)) ([]R, error) {
	if len(inner) == 0 || len(outer) == 0 {
		return nil, nil
	}
	var hint parwork.CostHint
	if cost != nil {
		hint = func(i int) int64 { return cost(outer[i/len(inner)], inner[i%len(inner)]) }
	}
	return parwork.DoErr(0, len(outer)*len(inner), hint, func(i int) (R, error) {
		return job(outer[i/len(inner)], inner[i%len(inner)])
	})
}

// nSquaredCost is the grid cost hint for experiments whose inner axis is
// the process count n: a cell's work grows superlinearly with n (more
// processes, more passages in flight, longer entry/exit protocols), and
// the adversary-driven grids' step budgets grow ~4n^2. Exactness is
// irrelevant — LPT only needs big cells ordered before small ones.
func nSquaredCost[A any](_ A, n int) int64 { return int64(n) * int64(n) }

// Factory creates fresh algorithm instances; algorithms are single-use
// (one Init per execution), so experiments construct one per run.
type Factory struct {
	// Name is the algorithm name the factory produces.
	Name string
	// New returns a fresh, uninitialized instance.
	New func() memmodel.Algorithm
	// F is the A_f parameterization, when the algorithm is an A_f member.
	F core.F
	// HasF reports whether F is meaningful.
	HasF bool
}

// AFFactories returns factories for the standard A_f parameterizations.
func AFFactories() []Factory {
	out := make([]Factory, 0, len(core.StandardFs))
	for _, f := range core.StandardFs {
		f := f
		out = append(out, Factory{
			Name: "af-" + f.Name,
			New:  func() memmodel.Algorithm { return core.New(f) },
			F:    f,
			HasF: true,
		})
	}
	return out
}

// BaselineFactories returns factories for the comparison baselines: the
// Section-6 discussion points plus the classic literature locks (Courtois
// et al. 1971, the big-reader pattern).
func BaselineFactories() []Factory {
	return []Factory{
		{Name: "centralized", New: func() memmodel.Algorithm { return baseline.NewCentralized() }},
		{Name: "flag-array", New: func() memmodel.Algorithm { return baseline.NewFlagArray() }},
		{Name: "faa-phasefair", New: func() memmodel.Algorithm { return baseline.NewPhaseFair() }},
		{Name: "mutex-rw", New: func() memmodel.Algorithm { return baseline.NewMutexRW() }},
		{Name: "brlock", New: func() memmodel.Algorithm { return baseline.NewBRLock() }},
		{Name: "courtois-r", New: func() memmodel.Algorithm { return baseline.NewCourtoisR() }},
		{Name: "courtois-w", New: func() memmodel.Algorithm { return baseline.NewCourtoisW() }},
		{Name: "queue-rw", New: func() memmodel.Algorithm { return baseline.NewQueueRW() }},
	}
}

// AllFactories returns A_f members followed by baselines.
func AllFactories() []Factory {
	return append(AFFactories(), BaselineFactories()...)
}

// FactoriesNamed returns the ExtendedFactories entries with the given
// names, in the order given. It errors on a name it does not know.
func FactoriesNamed(names ...string) ([]Factory, error) {
	all := ExtendedFactories()
	var out []Factory
	for _, name := range names {
		i := slices.IndexFunc(all, func(f Factory) bool { return f.Name == name })
		if i < 0 {
			return nil, fmt.Errorf("unknown algorithm %q", name)
		}
		out = append(out, all[i])
	}
	return out, nil
}

// factories is FactoriesNamed for the experiments' fixed lists, where an
// unknown name is a bug.
func factories(names ...string) []Factory {
	facs, err := FactoriesNamed(names...)
	if err != nil {
		panic(err)
	}
	return facs
}

// ExtendedFactories returns AllFactories plus the ablation variants
// (counter kinds, WL substrates) and the writer-priority composition —
// everything the wide property matrix (E6) should certify.
func ExtendedFactories() []Factory {
	out := AllFactories()
	out = append(out,
		Factory{Name: "af-log+casword", New: func() memmodel.Algorithm {
			return core.NewWithCounter(core.FLog, core.CounterCASWord)
		}},
		Factory{Name: "af-log+cellarray", New: func() memmodel.Algorithm {
			return core.NewWithCounter(core.FLog, core.CounterCellArray)
		}},
		Factory{Name: "af-log+clhwl", New: func() memmodel.Algorithm {
			return core.New(core.FLog, core.WithWriterMutex(core.MutexCLH))
		}},
		Factory{Name: "af-log+ticketwl", New: func() memmodel.Algorithm {
			return core.New(core.FLog, core.WithWriterMutex(core.MutexTicket))
		}},
		Factory{Name: "af-log+wpri", New: func() memmodel.Algorithm {
			return fairness.New(core.New(core.FLog))
		}},
	)
	return out
}
