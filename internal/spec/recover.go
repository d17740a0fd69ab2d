// Crash-recovery property: under the crash-recovery failure model (see
// internal/fault), crashing a process at an arbitrary step boundary and
// restarting it as a fresh incarnation must preserve Mutual Exclusion
// across incarnations AND liveness: every process — survivor or restarted
// — completes all its passages. This is strictly stronger than the
// crash-stop sweep's safety-only check, and only algorithms implementing
// memmodel.RecoverableAlgorithm can pass it. The harness also measures the
// recovery section's RMR cost, the quantity Chan & Woelfel's RME lower
// bounds speak to.
package spec

import (
	"fmt"

	"repro/internal/fault"
	"repro/internal/memmodel"
	"repro/internal/parwork"
	"repro/internal/sched"
	"repro/internal/sim"
)

// RecoverOutcome is the result of one crash-recovery execution.
type RecoverOutcome struct {
	// Algorithm is the algorithm's name.
	Algorithm string
	// Scenario echoes the input.
	Scenario Scenario
	// Points echoes the injected restart points.
	Points []fault.RestartPoint
	// Events reports what each point did (crash section, restart step).
	Events []fault.RecoverEvent
	// Crashes and Restarts count the applied events.
	Crashes, Restarts int
	// Recoveries lists the recovery verdicts returned by the restarted
	// incarnations' ReaderRecover/WriterRecover calls, in completion order.
	// An incarnation whose recovery section was itself crashed contributes
	// no verdict (its successor does).
	Recoveries []memmodel.Recovery
	// MEViolations lists Mutual Exclusion violations across the whole
	// execution, incarnations included. Must always be empty.
	MEViolations []string
	// Incomplete lists processes that failed to complete their passage
	// quota. Must always be empty: recovery makes liveness a pass/fail
	// axis, unlike the crash-stop sweep.
	Incomplete []string
	// Steps is the execution's total step count.
	Steps int
	// RecoveryRMR and RecoverySteps total the cost incurred inside
	// recovery sections, across all processes and incarnations.
	RecoveryRMR, RecoverySteps int
	// Hung reports that the watchdog detected global non-progress even
	// after all pending restarts were applied.
	Hung bool
	// Stuck is the watchdog's diagnostic when Hung.
	Stuck []sim.StuckProc
	// BudgetExceeded reports that the run hit the step budget. Must never
	// happen: every wait is a local-spin Await, so a hang is caught
	// deterministically by the watchdog instead.
	BudgetExceeded bool
	// Err holds any other execution error (setup failure etc).
	Err error
}

// OK reports whether the execution was safe AND live: no ME violations,
// full passage completion, no hang, no budget hit, no error.
func (o *RecoverOutcome) OK() bool {
	return len(o.MEViolations) == 0 && len(o.Incomplete) == 0 &&
		!o.Hung && !o.BudgetExceeded && o.Err == nil
}

// CrashedInRecovery reports whether any crash landed inside a recovery
// section — the re-crashed-recovery configuration the acceptance gate
// requires at least one of.
func (o *RecoverOutcome) CrashedInRecovery() bool {
	for _, e := range o.Events {
		if e.Crashed && e.CrashSection == memmodel.SecRecover {
			return true
		}
	}
	return false
}

// Failures renders all problems as one string.
func (o *RecoverOutcome) Failures() string {
	s := ""
	for _, v := range o.MEViolations {
		s += v + "\n"
	}
	for _, v := range o.Incomplete {
		s += v + "\n"
	}
	if o.Hung {
		s += fmt.Sprintf("hung with %d stuck processes after recovery\n", len(o.Stuck))
	}
	if o.BudgetExceeded {
		s += "step budget exceeded\n"
	}
	if o.Err != nil {
		s += o.Err.Error() + "\n"
	}
	return s
}

// RunCrashRecover executes the scenario against a fresh alg under the
// crash-recovery model: each restart point crashes its victim and
// re-admits it after the point's delay with a recovery program (recovery
// section, the verdict's continuation, then the victim's remaining
// passages). Passage quotas are tracked per process across incarnations,
// so a restarted process finishes exactly the passages its dead
// incarnations did not.
func RunCrashRecover(alg memmodel.RecoverableAlgorithm, sc Scenario, pts []fault.RestartPoint) *RecoverOutcome {
	var c runnerCache
	defer c.close()
	return runCrashRecoverOn(&c, alg, sc, pts)
}

// runCrashRecoverOn is RunCrashRecover on a cached runner.
func runCrashRecoverOn(c *runnerCache, alg memmodel.RecoverableAlgorithm, sc Scenario, pts []fault.RestartPoint) *RecoverOutcome {
	sc.defaults()
	out := &RecoverOutcome{Algorithm: alg.Name(), Scenario: sc, Points: pts}
	r, x, err := buildRunner(c, alg, sc, nil)
	if err != nil {
		out.Err = err
		return out
	}

	// recoveryProg is what a restarted incarnation runs: recovery section,
	// the verdict's continuation (finish the interrupted CS and exit, just
	// the bookkeeping of a completed passage, or nothing for a rollback),
	// then the remaining passage quota.
	recoveryProg := func(victim int) sim.Program {
		return func(p sim.Proc) {
			p.Section(memmodel.SecRecover)
			var rec memmodel.Recovery
			if victim < sc.NReaders {
				rec = alg.ReaderRecover(p, victim)
			} else {
				rec = alg.WriterRecover(p, victim-sc.NReaders)
			}
			// The verdict is recorded after the marker that follows it: a
			// recovery section may end in a posted write, and only a
			// marker waits for it (see sim.Proc).
			if rec == memmodel.RecoverCS {
				p.Section(memmodel.SecCS)
			} else {
				p.Section(memmodel.SecRemainder)
			}
			out.Recoveries = append(out.Recoveries, rec)
			switch rec {
			case memmodel.RecoverCS:
				x.finishCS(p, victim)
			case memmodel.RecoverDone:
				x.counts[victim]++
			case memmodel.RecoverAbort:
				// Rolled back: the quota loop below retries the passage.
			}
			for x.counts[victim] < x.quota(victim) {
				x.passage(p, victim)
			}
		}
	}

	ev, err := fault.Drive(r, fault.Plan{Restarts: pts, Recover: recoveryProg})
	out.Events = ev.Restarts
	for _, e := range out.Events {
		if e.Crashed {
			out.Crashes++
		}
		if e.Restarted {
			out.Restarts++
		}
	}
	out.Steps = r.StepCount()
	out.MEViolations = x.mon.violations

	var np *sim.NoProgressError
	np, out.BudgetExceeded, out.Err = terminal(err)
	if np != nil {
		out.Hung = true
		out.Stuck = np.Stuck
	}

	for pid, n := range x.counts {
		if n != x.quota(pid) {
			out.Incomplete = append(out.Incomplete, fmt.Sprintf(
				"%s completed %d/%d passages across %d incarnation(s)",
				x.name(pid), n, x.quota(pid), r.Incarnation(pid)+1))
		}
		for _, acct := range r.AccountsOf(pid) {
			out.RecoveryRMR += acct.SectionRMR[memmodel.SecRecover]
			out.RecoverySteps += acct.SectionSteps[memmodel.SecRecover]
		}
	}
	return out
}

// RecoverySweep runs the scenario once crash-free to learn its length,
// then re-executes it from scratch for every crash point of the victim,
// restarting the victim delay steps after each crash. newAlg must return
// fresh instances and mkSched fresh scheduler state per run; a nil mkSched
// selects round-robin. The Scenario's Scheduler field is ignored. The
// recovery runs fan out across sc.Parallel workers (see
// Scenario.Parallel).
func RecoverySweep(newAlg func() memmodel.RecoverableAlgorithm, sc Scenario, victim, delay int, mkSched func() sched.Scheduler) ([]*RecoverOutcome, error) {
	return sweep(sc, restartPlan(newAlg, sc, "recover",
		fmt.Sprintf("victim=%d delay=%d", victim, delay),
		fixedSched(mkSched),
		func(_ int64, steps int) [][]fault.RestartPoint {
			pts := make([][]fault.RestartPoint, steps+1)
			for k := range pts {
				pts[k] = []fault.RestartPoint{{Victim: victim, Step: k, Delay: delay}}
			}
			return pts
		}))
}

// RecoverySweepRecrash sweeps double-crash configurations: the victim is
// crashed at every stride-th boundary and restarted immediately, then
// crashed AGAIN offset steps later — for small offsets the second crash
// lands inside the recovery section, exercising re-crashed recovery. The
// victim's third incarnation must finish the repair.
func RecoverySweepRecrash(newAlg func() memmodel.RecoverableAlgorithm, sc Scenario, victim, stride int, offsets []int, mkSched func() sched.Scheduler) ([]*RecoverOutcome, error) {
	if stride < 1 {
		stride = 1
	}
	return sweep(sc, restartPlan(newAlg, sc, "recover-recrash",
		fmt.Sprintf("victim=%d stride=%d offsets=%v", victim, stride, offsets),
		fixedSched(mkSched),
		func(_ int64, steps int) [][]fault.RestartPoint {
			pairs := make([][]fault.RestartPoint, 0, (steps/stride+1)*len(offsets))
			for k := 0; k <= steps; k += stride {
				for _, off := range offsets {
					if off < 1 {
						// A same-step second point fires while the victim
						// is still dead and is skipped; only strictly-later
						// offsets re-crash.
						continue
					}
					pairs = append(pairs, []fault.RestartPoint{
						{Victim: victim, Step: k, Delay: 0},
						{Victim: victim, Step: k + off, Delay: 0},
					})
				}
			}
			return pairs
		}))
}

// RecoverySweepSampled samples restart points under seed-parameterized
// schedules, deduplicated per seed (a duplicate point would re-run an
// identical execution). mkSched builds the scheduler for a seed; nil
// selects sched.NewRandom. Both phases fan out across sc.Parallel workers
// (see Scenario.Parallel).
func RecoverySweepSampled(newAlg func() memmodel.RecoverableAlgorithm, sc Scenario, victims []int, seeds []int64, perSeed, delay int, mkSched func(seed int64) sched.Scheduler) ([]*RecoverOutcome, error) {
	pl := restartPlan(newAlg, sc, "recover-sampled",
		fmt.Sprintf("victims=%v seeds=%v perSeed=%d delay=%d", victims, seeds, perSeed, delay),
		mkSched,
		func(seed int64, steps int) [][]fault.RestartPoint {
			drawn := dedupPoints(fault.RandomPoints(seed, victims, steps+1, perSeed))
			pts := make([][]fault.RestartPoint, len(drawn))
			for k, pt := range drawn {
				pts[k] = []fault.RestartPoint{{Victim: pt.Victim, Step: pt.Step, Delay: delay}}
			}
			return pts
		})
	pl.sampled, pl.seeds = true, seeds
	return sweep(sc, pl)
}

// restartPlan is the plan of the recovery sweeps: each row crashes and
// restarts its victim at every point of its list.
func restartPlan(newAlg func() memmodel.RecoverableAlgorithm, sc Scenario, kind, params string,
	mkSched func(seed int64) sched.Scheduler, points func(seed int64, steps int) [][]fault.RestartPoint,
) sweepPlan[[]fault.RestartPoint, *RecoverOutcome] {
	alg := newAlg().Name()
	return sweepPlan[[]fault.RestartPoint, *RecoverOutcome]{
		kind: kind, label: "recovery sweep", alg: alg, params: params,
		mkSched: mkSched,
		ref: func(c *runnerCache, run Scenario) (int, verdict) {
			out := runCrashRecoverOn(c, newAlg(), run, nil)
			return out.Steps, out
		},
		points: points,
		first: func(pts []fault.RestartPoint) int {
			first := pts[0].Step
			for _, pt := range pts[1:] {
				first = min(first, pt.Step)
			}
			return first
		},
		// Known row shape: replay the prefix up to the last crash, sit out
		// its restart delay, then run recovery plus the survivors'
		// remainder.
		cost: func(steps int, pts []fault.RestartPoint) int64 {
			last := pts[len(pts)-1]
			return int64(steps + last.Step + last.Delay)
		},
		row: func(c *runnerCache, run Scenario, pts []fault.RestartPoint) *RecoverOutcome {
			return runCrashRecoverOn(c, newAlg(), run, pts)
		},
		info: func(pts []fault.RestartPoint) string {
			s := pts[0].String()
			for _, pt := range pts[1:] {
				s += " then " + pt.String()
			}
			return s
		},
		stub: func(pts []fault.RestartPoint, f *parwork.RowFailure) *RecoverOutcome {
			return &RecoverOutcome{Algorithm: alg, Scenario: sc, Points: pts, Err: f}
		},
	}
}
