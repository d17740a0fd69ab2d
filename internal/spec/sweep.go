package spec

import (
	"fmt"

	"repro/internal/checkpoint"
	"repro/internal/fault"
	"repro/internal/parwork"
	"repro/internal/sched"
	"repro/internal/sim"
)

// sweepPlan describes one fault sweep to the driver, sweep. Every exported
// sweep entry point is a sweepPlan: P is its fault point (a crash, a
// stall, a restart, or a combination of them) and T its outcome type.
type sweepPlan[P, T any] struct {
	// kind opens the checkpoint section name (kind/alg) and the
	// fingerprint; label opens the reference-failure message.
	kind, label string
	// alg is the algorithm's name.
	alg string
	// params renders the sweep's configuration for the fingerprint; the
	// driver appends the reference step counts.
	params string
	// sampled selects one reference run per seed, fanned out through
	// parwork.DoErr, with every row under its seed's schedule. Otherwise
	// the sweep has one fixed-schedule reference run and seeds is unused.
	sampled bool
	seeds   []int64
	// mkSched builds a fresh scheduler for a seed (a fixed-schedule sweep
	// ignores the seed); nil selects sched.NewRandom.
	mkSched func(seed int64) sched.Scheduler
	// ref executes the fault-free reference run on c and returns its
	// step count and verdict.
	ref func(c *runnerCache, run Scenario) (steps int, v verdict)
	// points lists the fault points of a reference of the given length.
	points func(seed int64, steps int) []P
	// first is the global step of p's earliest fault: a row runs exactly
	// as its reference until then.
	first func(p P) int
	// cost is the scheduling hint of point p (parwork.CostHint semantics)
	// under a reference of the given length.
	cost func(steps int, p P) int64
	// row runs the faulty execution of point p on a worker's cached
	// runner; run carries the row's scheduler.
	row func(c *runnerCache, run Scenario, p P) T
	// info describes p for failure reports; sampled rows are prefixed
	// with their seed.
	info func(p P) string
	// stub is the keep-going outcome of a failed row.
	stub func(p P, f *parwork.RowFailure) T
}

// verdict is what the driver needs of a reference run: *Report and
// *RecoverOutcome both satisfy it.
type verdict interface {
	OK() bool
	Failures() string
}

// sweepRow is one row of a sweep: a fault point and the reference run
// (seed, length and recorded responses) it was drawn from.
type sweepRow[P any] struct {
	seed  int64
	pt    P
	steps int
	rec   *sim.Recording
}

// sweep runs a fault sweep: the reference runs, the fault points drawn
// over their step counts, then one execution per point, fanned out
// through parwork.DoRobust across sc.Parallel workers with each worker
// reusing one runner. Each reference run records its processes'
// responses, and a row starts its processes from the part recorded before
// its first fault: they run ahead through that fault-free prefix in one
// handoff each, while the runner still executes every step of it (see
// sim.Runner.RunAhead). The scenario's robust options (EffectiveRobust)
// select checkpointing, cancellation and keep-going; with none in play
// DoRobust is a plain fan-out. Rows land in point order whichever worker
// runs them, so the result is byte-identical at every worker count and
// across interrupt/resume splits.
func sweep[P, T any](sc Scenario, pl sweepPlan[P, T]) ([]T, error) {
	// A shared user Observer must not be invoked concurrently.
	workers := parwork.Workers(sc.Parallel)
	if sc.Observer != nil {
		workers = 1
	}
	if pl.mkSched == nil {
		pl.mkSched = func(seed int64) sched.Scheduler { return sched.NewRandom(seed) }
	}
	seeds := pl.seeds
	if !pl.sampled {
		seeds = []int64{0}
	}
	type reference struct {
		steps int
		rows  []sweepRow[P]
	}
	runRef := func(i int) (reference, error) {
		seed := seeds[i]
		run := sc
		run.Scheduler = pl.mkSched(seed)
		rec := &sim.Recording{}
		c := runnerCache{record: rec}
		defer c.close()
		steps, v := pl.ref(&c, run)
		if !v.OK() {
			at := ""
			if pl.sampled {
				at = fmt.Sprintf(" (seed %d)", seed)
			}
			return reference{}, fmt.Errorf("%s: reference run of %s%s failed: %s", pl.label, pl.alg, at, v.Failures())
		}
		pts := pl.points(seed, steps)
		rows := make([]sweepRow[P], len(pts))
		for k, pt := range pts {
			rows[k] = sweepRow[P]{seed: seed, pt: pt, steps: steps, rec: rec}
		}
		return reference{steps, rows}, nil
	}

	var refs []reference
	var err error
	if pl.sampled {
		refs, err = parwork.DoErr(workers, len(seeds), nil, runRef)
	} else {
		var r reference
		r, err = runRef(0)
		refs = []reference{r}
	}
	if err != nil {
		return nil, err
	}
	var rows []sweepRow[P]
	steps := make([]int, len(refs))
	for i, r := range refs {
		rows = append(rows, r.rows...)
		steps[i] = r.steps
	}
	// The reference step counts pin the row set exactly (the points are a
	// pure function of them and the sweep's parameters), keeping the
	// fingerprint compact at any sample size.
	refSteps := fmt.Sprint(steps)
	if !pl.sampled {
		refSteps = fmt.Sprint(steps[0])
	}

	opt := parwork.Options{
		Workers: workers,
		Cost:    func(i int) int64 { return pl.cost(rows[i].steps, rows[i].pt) },
		RowInfo: func(i int) string {
			if pl.sampled {
				return fmt.Sprintf("seed=%d %s", rows[i].seed, pl.info(rows[i].pt))
			}
			return pl.info(rows[i].pt)
		},
	}
	if ro := EffectiveRobust(sc); ro != nil {
		opt.KeepGoing, opt.RowTimeout, opt.Stop, opt.AfterRow = ro.KeepGoing, ro.RowTimeout, ro.Stop, ro.AfterRow
		if ro.Store != nil {
			// The scheduler family is probed on the first seed; it is
			// seed-uniform.
			schedName := "none"
			if len(seeds) > 0 {
				schedName = pl.mkSched(seeds[0]).Name()
			}
			fp := checkpoint.Fingerprint(pl.kind, pl.alg, fpScenario(sc), schedName,
				pl.params+" refsteps="+refSteps)
			sec, err := ro.Store.Section(pl.kind+"/"+pl.alg, fp, len(rows))
			if err != nil {
				return nil, err
			}
			opt.Sink = sec
		}
	}
	outs, err := parwork.DoRobust(opt, len(rows), parwork.JSONCodec[T](),
		func() *runnerCache { return &runnerCache{} },
		(*runnerCache).close,
		func(c *runnerCache, i int) T {
			run := sc
			run.Scheduler = pl.mkSched(rows[i].seed)
			c.script, c.ahead = rows[i].rec, pl.first(rows[i].pt)
			return pl.row(c, run, rows[i].pt)
		},
		func(i int, f *parwork.RowFailure) T { return pl.stub(rows[i].pt, f) })
	if err != nil {
		return nil, err
	}
	return outs, nil
}

// fpScenario renders the scenario fields a sweep fingerprint must cover:
// everything String() shows plus the step budget and CS padding, which
// also shape results. The scheduler name is passed separately (the sweeps
// ignore sc.Scheduler in favor of their mkSched factories).
func fpScenario(sc Scenario) string {
	return fmt.Sprintf("%s csreads=%d maxsteps=%d", sc.String(), sc.CSReads, sc.MaxSteps)
}

// fixedSched adapts a fixed-schedule sweep's scheduler factory to the
// driver's per-seed one; nil selects round-robin.
func fixedSched(mkSched func() sched.Scheduler) func(int64) sched.Scheduler {
	if mkSched == nil {
		return func(int64) sched.Scheduler { return sched.NewRoundRobin() }
	}
	return func(int64) sched.Scheduler { return mkSched() }
}

// dedupPoints drops duplicate sampled crash points, keeping first
// occurrences in draw order. Under a fixed scheduler seed a duplicate
// point re-runs the identical execution, which would double-count its
// outcome in the sweep's tallies.
func dedupPoints(pts []fault.Point) []fault.Point {
	seen := make(map[fault.Point]bool, len(pts))
	out := pts[:0]
	for _, pt := range pts {
		if seen[pt] {
			continue
		}
		seen[pt] = true
		out = append(out, pt)
	}
	return out
}
