// Crash-safety property: under the crash-stop failure model (see
// internal/fault), killing one process at an arbitrary step boundary must
// never let a survivor violate Mutual Exclusion. Survivor progress is the
// diagnostic output, not a pass/fail axis — none of the paper's algorithms
// are recoverable, so a crash inside a lock-holding or signaling window is
// expected to wedge later passages. The sweep records exactly where that
// happens, and the watchdog guarantees each hang is detected as a
// deterministic no-progress event rather than a step-budget timeout.
package spec

import (
	"errors"
	"fmt"

	"repro/internal/fault"
	"repro/internal/memmodel"
	"repro/internal/parwork"
	"repro/internal/sched"
	"repro/internal/sim"
)

// CrashOutcome is the result of one execution with one injected crash.
type CrashOutcome struct {
	// Algorithm is the algorithm's name.
	Algorithm string
	// Point is the injected crash point.
	Point fault.Point
	// VictimIsWriter classifies the victim under the spec numbering
	// (readers 0..n-1, writers n..n+m-1).
	VictimIsWriter bool
	// Crashed reports whether the crash was actually applied; false means
	// the victim finished its program before the crash step arrived (a
	// moot point, equivalent to a remainder-section crash).
	Crashed bool
	// CrashSection is the passage section the victim occupied when it
	// crashed (SecRemainder for moot points: finished processes have
	// returned to the remainder section).
	CrashSection memmodel.Section
	// MEViolations lists Mutual Exclusion violations observed by the
	// monitor over the whole execution. Must always be empty: a crash can
	// remove steps from the execution but never add or reorder them.
	MEViolations []string
	// Hung reports whether the watchdog detected global non-progress.
	Hung bool
	// Stuck is the watchdog's diagnostic when Hung (who is blocked, on
	// which variables, holding which stale values).
	Stuck []sim.StuckProc
	// BudgetExceeded reports that the run hit the step budget instead of
	// terminating or being caught by the watchdog. Because every wait in
	// the simulated algorithms is a local-spin Await, this must never
	// happen for them. A lock whose waiters busy-wait with steps instead
	// (a Read-polling loop, which rwlint's spinloop analyzer rejects in
	// algorithm code, or a retry loop that keeps writing) livelocks past
	// the watchdog, and the budget ends such a row deterministically.
	BudgetExceeded bool
	// Err holds any other execution error (setup failure etc).
	Err error
}

// Live reports whether every surviving process completed all its passages.
func (o CrashOutcome) Live() bool {
	return !o.Hung && !o.BudgetExceeded && o.Err == nil
}

// Safe reports whether the execution preserved Mutual Exclusion.
func (o CrashOutcome) Safe() bool { return len(o.MEViolations) == 0 }

// RunCrash executes the scenario against a fresh alg, crashing pt.Victim at
// step boundary pt.Step, and classifies the outcome.
func RunCrash(alg memmodel.Algorithm, sc Scenario, pt fault.Point) CrashOutcome {
	var c runnerCache
	defer c.close()
	return runCrashOn(&c, alg, sc, pt)
}

// runCrashOn is RunCrash on a cached runner.
func runCrashOn(c *runnerCache, alg memmodel.Algorithm, sc Scenario, pt fault.Point) CrashOutcome {
	sc.defaults()
	out := CrashOutcome{
		Algorithm:      alg.Name(),
		Point:          pt,
		VictimIsWriter: pt.Victim >= sc.NReaders,
		CrashSection:   memmodel.SecRemainder,
	}
	r, x, err := buildRunner(c, alg, sc, nil)
	if err != nil {
		out.Err = err
		return out
	}

	_, err = fault.Drive(r, fault.Plan{Crashes: []fault.Point{pt}})
	out.Crashed = len(r.Crashed()) > 0
	if pt.Victim >= 0 && pt.Victim < sc.NReaders+sc.NWriters {
		// A finished victim has transitioned back to SecRemainder, so the
		// account's last section is the crash section in both cases.
		out.CrashSection = r.Account(pt.Victim).Section()
	}
	out.MEViolations = x.mon.violations

	var np *sim.NoProgressError
	np, out.BudgetExceeded, out.Err = terminal(err)
	if np != nil {
		out.Hung = true
		out.Stuck = np.Stuck
	}
	return out
}

// terminal classifies a fault-driven run's terminal error: the watchdog's
// wedge verdict (np), a step-budget hit, or any other error (other). All
// three are zero for a run that terminated.
func terminal(err error) (np *sim.NoProgressError, budget bool, other error) {
	switch {
	case err == nil:
	case errors.As(err, &np):
	case errors.Is(err, sim.ErrMaxSteps):
		budget = true
	default:
		other = err
	}
	return np, budget, other
}

// CrashSweep runs the scenario once crash-free to learn its length, then
// re-executes it from scratch for every crash point of the victim
// (fault.ExhaustivePoints over the reference step count). newAlg must
// return fresh instances and mkSched fresh scheduler state per run, since
// both are single-use; a nil mkSched selects round-robin. The Scheduler
// field of sc is ignored in favor of mkSched. The crash runs fan out
// across sc.Parallel workers (see Scenario.Parallel).
func CrashSweep(newAlg func() memmodel.Algorithm, sc Scenario, victim int, mkSched func() sched.Scheduler) ([]CrashOutcome, error) {
	return sweep(sc, crashPlan(newAlg, sc, "crash", fmt.Sprintf("victim=%d", victim),
		fixedSched(mkSched),
		func(_ int64, steps int) []fault.Point { return fault.ExhaustivePoints(victim, steps) }))
}

// crashPlan is the plan of the crash sweeps: each row crash-stops its
// point's victim at its step.
func crashPlan(newAlg func() memmodel.Algorithm, sc Scenario, kind, params string,
	mkSched func(seed int64) sched.Scheduler, points func(seed int64, steps int) []fault.Point,
) sweepPlan[fault.Point, CrashOutcome] {
	alg := newAlg().Name()
	return sweepPlan[fault.Point, CrashOutcome]{
		kind: kind, label: "crash sweep", alg: alg, params: params,
		mkSched: mkSched,
		ref:     plainRef(newAlg),
		points:  points,
		first:   func(pt fault.Point) int { return pt.Step },
		// Known row shape: a crash at step k replays the k-step prefix
		// and then runs the survivors out (bounded by the reference
		// length), so later crash points cost more.
		cost: func(steps int, pt fault.Point) int64 { return int64(steps + pt.Step) },
		row: func(c *runnerCache, run Scenario, pt fault.Point) CrashOutcome {
			return runCrashOn(c, newAlg(), run, pt)
		},
		info: fault.Point.String,
		stub: func(pt fault.Point, f *parwork.RowFailure) CrashOutcome {
			return CrashOutcome{Algorithm: alg, Point: pt,
				VictimIsWriter: pt.Victim >= sc.NReaders,
				CrashSection:   memmodel.SecRemainder, Err: f}
		},
	}
}

// plainRef is the fault-free reference run of the crash and stall sweeps.
func plainRef(newAlg func() memmodel.Algorithm) func(*runnerCache, Scenario) (int, verdict) {
	return func(c *runnerCache, run Scenario) (int, verdict) {
		rep := runOn(c, newAlg(), run)
		return rep.Steps, rep
	}
}
