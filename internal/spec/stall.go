// Fail-slow property: under the stall failure model (see internal/fault),
// pausing one process at an arbitrary step boundary — finitely or forever —
// must never let a survivor violate Mutual Exclusion, and must never
// produce a hang the watchdog cannot attribute. The liveness contract is
// section-sensitive: a *finite* stall only delays, so the whole execution
// must still complete (Deadlock Freedom under delay — the paper's Section-5
// properties hold in a fully asynchronous model where the adversary may
// delay any process arbitrarily between steps); an *indefinite* stall in
// the remainder section must leave every survivor live, while an
// indefinite stall inside the CS (or while holding the inner mutex, for
// mutex-substrate algorithms) is allowed to doom exactly the survivors that
// busy-wait on the victim — and the checker must classify that case as
// doomed-by-stall, never as an algorithmic deadlock, a spurious
// no-progress, or a step-budget timeout. Per-process bypass counters
// (internal/fairness.BypassMonitor) ride along, turning reader
// non-starvation and writer bounded-bypass into quantitative sweep outputs.
package spec

import (
	"fmt"

	"repro/internal/fairness"
	"repro/internal/fault"
	"repro/internal/memmodel"
	"repro/internal/parwork"
	"repro/internal/sched"
	"repro/internal/sim"
)

// StallOutcome is the result of one execution with injected stalls (and,
// for mixed runs, crashes).
type StallOutcome struct {
	// Algorithm is the algorithm's name.
	Algorithm string
	// Point is the injected stall point.
	Point fault.StallPoint
	// CrashPoints echoes any additionally injected crash points (mixed
	// fault model).
	CrashPoints []fault.Point
	// VictimIsWriter classifies the stall victim under the spec numbering
	// (readers 0..n-1, writers n..n+m-1).
	VictimIsWriter bool
	// Stalled reports whether the stall was actually applied; false means
	// the victim finished before the stall step arrived (a moot point,
	// equivalent to a remainder-section stall).
	Stalled bool
	// StallSection is the passage section the victim occupied when it
	// stalled (SecRemainder for moot points).
	StallSection memmodel.Section
	// MEViolations lists Mutual Exclusion violations observed over the
	// whole execution. Must always be empty: a stall reorders steps but
	// never forges them.
	MEViolations []string
	// Completed reports that the whole execution terminated with every
	// process meeting its passage quota — always the case for finite
	// stalls, and for indefinite stalls only when the point was moot.
	Completed bool
	// SurvivorsDone reports that every non-victim process met its passage
	// quota (victims of crash points in mixed runs are excluded too).
	SurvivorsDone bool
	// DoomedProcs lists the survivors the watchdog found blocked forever
	// behind the stalled victim.
	DoomedProcs []sim.StuckProc
	// Misclassified lists watchdog-classification defects: a wedge the
	// watchdog failed to attribute to the injected faults (a stuck process
	// not marked doomed, or the stalled victim missing from the
	// diagnostic). Must always be empty.
	Misclassified []string
	// MaxReaderBypass and MaxWriterBypass are the worst single-wait
	// overtake counts observed by the bypass monitor for each class.
	MaxReaderBypass, MaxWriterBypass int
	// BypassByProc is the per-process worst single-wait overtake count.
	BypassByProc []int
	// BudgetExceeded reports that the run hit the step budget instead of
	// terminating or being caught by the watchdog. Must never happen.
	BudgetExceeded bool
	// Err holds any other execution error (setup failure etc).
	Err error
}

// Safe reports whether the execution preserved Mutual Exclusion.
func (o StallOutcome) Safe() bool { return len(o.MEViolations) == 0 }

// Doomed reports whether the stall wedged at least one survivor.
func (o StallOutcome) Doomed() bool { return len(o.DoomedProcs) > 0 }

// RunStall executes the scenario against a fresh alg, stalling pt.Victim
// at step boundary pt.Step for pt.Duration, and classifies the outcome.
func RunStall(alg memmodel.Algorithm, sc Scenario, pt fault.StallPoint) StallOutcome {
	var c runnerCache
	defer c.close()
	return runMixedOn(&c, alg, sc, nil, pt)
}

// runMixedOn executes the scenario on a cached runner under the combined
// fault model: the crash points crash-stop their victims while pt stalls
// its own. Crash victims count as victims for SurvivorsDone (a
// crash-stopped process never completes its quota, which is the crash
// model's expected outcome, not a liveness defect of the survivors).
func runMixedOn(c *runnerCache, alg memmodel.Algorithm, sc Scenario, crashes []fault.Point, pt fault.StallPoint) StallOutcome {
	sc.defaults()
	out := StallOutcome{
		Algorithm:      alg.Name(),
		Point:          pt,
		CrashPoints:    crashes,
		VictimIsWriter: pt.Victim >= sc.NReaders,
		StallSection:   memmodel.SecRemainder,
	}
	nProcs := sc.NReaders + sc.NWriters
	byp := fairness.NewBypassMonitor(nProcs, sc.NReaders)
	r, x, err := buildRunner(c, alg, sc, byp.Observe)
	if err != nil {
		out.Err = err
		return out
	}

	ev, err := fault.Drive(r, fault.Plan{Crashes: crashes, Stalls: []fault.StallPoint{pt}})
	if len(ev.Stalls) == 1 && ev.Stalls[0].Stalled {
		out.Stalled = true
		out.StallSection = ev.Stalls[0].StallSection
	}
	out.MEViolations = x.mon.violations
	out.BypassByProc = make([]int, nProcs)
	for id := 0; id < nProcs; id++ {
		out.BypassByProc[id] = byp.MaxBypass(id)
	}
	out.MaxReaderBypass = byp.MaxReaderBypass()
	out.MaxWriterBypass = byp.MaxWriterBypass()

	victims := map[int]bool{pt.Victim: true}
	for _, c := range crashes {
		victims[c.Victim] = true
	}
	// Clean termination means every process is done or crashed, so the
	// only legitimately incomplete processes are crash victims; shortAlive
	// is the first alive-but-incomplete one, a harness invariant breach.
	allDone, survDone, shortAlive := true, true, -1
	for id := 0; id < nProcs; id++ {
		if len(r.Account(id).Passages) >= x.quota(id) {
			continue
		}
		allDone = false
		if !victims[id] {
			survDone = false
		}
		if shortAlive < 0 && r.Alive(id) {
			shortAlive = id
		}
	}
	out.SurvivorsDone = survDone

	np, budget, other := terminal(err)
	switch {
	case err == nil && shortAlive >= 0:
		out.Err = fmt.Errorf("spec: %s terminated with p%d alive but short of its passage quota", pt, shortAlive)
	case err == nil:
		out.Completed = allDone
	case np != nil:
		out.DoomedProcs = np.Stuck
		out.Misclassified = classifyWedge(np, out, r)
	default:
		out.BudgetExceeded, out.Err = budget, other
	}
	return out
}

// classifyWedge cross-checks the watchdog's verdict against the injected
// faults: with a stall or crash in play, every blocked survivor must be
// marked doomed, and an applied indefinite stall must surface the victim
// in the diagnostic's stalled list.
func classifyWedge(np *sim.NoProgressError, out StallOutcome, r *sim.Runner) []string {
	var bad []string
	for _, s := range np.Stuck {
		if !s.Doomed {
			bad = append(bad, fmt.Sprintf(
				"p%d reported blocked, not doomed, despite injected faults", s.Proc))
		}
	}
	if out.Stalled && out.Point.Indefinite() && r.IsStalled(out.Point.Victim) {
		found := false
		for _, s := range np.Stalled {
			if s.Proc == out.Point.Victim {
				found = true
				break
			}
		}
		if !found {
			bad = append(bad, fmt.Sprintf(
				"stalled victim p%d missing from the watchdog diagnostic", out.Point.Victim))
		}
	}
	return bad
}

// StallSweep runs the scenario once stall-free to learn its length, then
// re-executes it from scratch for every stall point of the victim — each
// step boundary twice: once with a finite delay longer than the whole
// reference execution (the strongest delay a fair adversary can apply) and
// once indefinitely (the fail-slow limit). newAlg must return fresh
// instances and mkSched fresh scheduler state per run; a nil mkSched
// selects round-robin. The Scheduler field of sc is ignored in favor of
// mkSched. The stall runs fan out across sc.Parallel workers (see
// Scenario.Parallel).
func StallSweep(newAlg func() memmodel.Algorithm, sc Scenario, victim int, mkSched func() sched.Scheduler) ([]StallOutcome, error) {
	return sweep(sc, stallPlan(newAlg, sc, "stall", fmt.Sprintf("victim=%d", victim),
		fixedSched(mkSched),
		func(_ int64, steps int) []fault.StallPoint {
			delay := steps + 1
			pts := make([]fault.StallPoint, 0, 2*(steps+1))
			for k := 0; k <= steps; k++ {
				for _, d := range []int{delay, fault.Forever} {
					pts = append(pts, fault.StallPoint{Victim: victim, Step: k, Duration: d})
				}
			}
			return pts
		}))
}

// stallPlan is the plan of the stall sweeps: each row stalls its point's
// victim at its step for its duration.
func stallPlan(newAlg func() memmodel.Algorithm, sc Scenario, kind, params string,
	mkSched func(seed int64) sched.Scheduler, points func(seed int64, steps int) []fault.StallPoint,
) sweepPlan[fault.StallPoint, StallOutcome] {
	alg := newAlg().Name()
	return sweepPlan[fault.StallPoint, StallOutcome]{
		kind: kind, label: "stall sweep", alg: alg, params: params,
		mkSched: mkSched,
		ref:     plainRef(newAlg),
		points:  points,
		cost:    stallCost,
		row: func(c *runnerCache, run Scenario, pt fault.StallPoint) StallOutcome {
			return runMixedOn(c, newAlg(), run, nil, pt)
		},
		info: fault.StallPoint.String,
		stub: func(pt fault.StallPoint, f *parwork.RowFailure) StallOutcome {
			return StallOutcome{Algorithm: alg, Point: pt,
				VictimIsWriter: pt.Victim >= sc.NReaders,
				StallSection:   memmodel.SecRemainder, Err: f}
		},
	}
}

// MixedSweepSampled samples combined crash+stall configurations: per seed,
// up to perSeed runs each pairing one crash point with one stall point
// against distinct victims (crash victims drawn from crashVictims, stall
// victims from stallVictims, skipping collisions). mkSched builds the
// scheduler for a seed; nil selects sched.NewRandom, and sched.NewPCT-based
// factories give probabilistic-concurrency-testing sweeps. Only safety
// and watchdog-classification axes are pass/fail for mixed runs; liveness
// is characterized through the returned outcomes. Both phases — the
// per-seed reference runs and the flattened (seed, point) runs — fan out
// across sc.Parallel workers (see Scenario.Parallel).
func MixedSweepSampled(newAlg func() memmodel.Algorithm, sc Scenario, crashVictims, stallVictims []int, seeds []int64, perSeed int, mkSched func(seed int64) sched.Scheduler) ([]StallOutcome, error) {
	type mixedPoint struct {
		crash fault.Point
		stall fault.StallPoint
	}
	alg := newAlg().Name()
	return sweep(sc, sweepPlan[mixedPoint, StallOutcome]{
		kind: "mixed-sampled", label: "mixed sweep", alg: alg,
		params: fmt.Sprintf("crashVictims=%v stallVictims=%v seeds=%v perSeed=%d",
			crashVictims, stallVictims, seeds, perSeed),
		sampled: true, seeds: seeds, mkSched: mkSched,
		ref: plainRef(newAlg),
		points: func(seed int64, steps int) []mixedPoint {
			crashes := fault.RandomPoints(seed, crashVictims, steps+1, perSeed)
			stalls := fault.RandomStallPoints(seed+1, stallVictims, steps+1, perSeed, steps+1)
			n := min(len(crashes), len(stalls))
			pts := make([]mixedPoint, 0, n)
			for k := 0; k < n; k++ {
				if crashes[k].Victim == stalls[k].Victim {
					continue
				}
				pts = append(pts, mixedPoint{crashes[k], stalls[k]})
			}
			return pts
		},
		cost: func(steps int, p mixedPoint) int64 { return stallCost(steps, p.stall) },
		row: func(c *runnerCache, run Scenario, p mixedPoint) StallOutcome {
			return runMixedOn(c, newAlg(), run, []fault.Point{p.crash}, p.stall)
		},
		info: func(p mixedPoint) string { return fmt.Sprintf("%s + %s", p.crash, p.stall) },
		stub: func(p mixedPoint, f *parwork.RowFailure) StallOutcome {
			return StallOutcome{Algorithm: alg, Point: p.stall,
				CrashPoints:    []fault.Point{p.crash},
				VictimIsWriter: p.stall.Victim >= sc.NReaders,
				StallSection:   memmodel.SecRemainder, Err: f}
		},
	})
}

// StallViolations applies the section-sensitive fail-slow liveness
// contract to a sweep's outcomes and renders every breach:
//
//   - Mutual Exclusion must survive every stall (safety under delay).
//   - No run may hit the step budget: every wedge is watchdog-caught.
//   - The watchdog must attribute every wedge to the injected faults
//     (no Misclassified entries).
//   - A finite stall must leave the whole execution complete — the
//     simulator fast-forwards delays that would otherwise wedge, so any
//     incompleteness is a genuine Deadlock-Freedom-under-delay breach.
//   - An indefinite stall in the remainder section (including moot points)
//     must leave every survivor live.
//
// Indefinite stalls in entry/CS/exit may doom survivors that busy-wait on
// the victim; those outcomes are characterized (DoomedProcs, per-section
// tallies) rather than flagged here. Callers with stronger expectations —
// e.g. sibling-reader liveness under an in-CS reader stall for
// Concurrent-Entering algorithms — layer them on top (see experiments
// E15).
func StallViolations(outs []StallOutcome) []string {
	var v []string
	for _, o := range outs {
		id := fmt.Sprintf("%s %s", o.Algorithm, o.Point)
		if o.Err != nil {
			v = append(v, fmt.Sprintf("%s: error: %v", id, o.Err))
			continue
		}
		if len(o.MEViolations) > 0 {
			v = append(v, fmt.Sprintf("%s: %d mutual-exclusion violations", id, len(o.MEViolations)))
		}
		if o.BudgetExceeded {
			v = append(v, id+": hang escaped the watchdog (step-budget timeout)")
			continue
		}
		for _, m := range o.Misclassified {
			v = append(v, id+": watchdog misclassification: "+m)
		}
		if !o.Point.Indefinite() {
			if !o.Completed {
				v = append(v, fmt.Sprintf(
					"%s: finite stall wedged the execution (deadlock freedom under delay broken; %d doomed)",
					id, len(o.DoomedProcs)))
			}
			continue
		}
		if o.StallSection == memmodel.SecRemainder && !o.SurvivorsDone {
			v = append(v, id+": remainder-section stall wedged survivors")
		}
	}
	return v
}

// stallCost is the scheduling hint for a stall row: the replayed prefix
// plus the survivors' remainder (both bounded by the reference length),
// plus the fast-forwarded delay for a finite stall. Indefinite stalls
// add no delay steps — they either wedge (detected early) or complete
// without the victim.
func stallCost(refSteps int, pt fault.StallPoint) int64 {
	c := int64(refSteps + pt.Step)
	if !pt.Indefinite() {
		c += int64(pt.Duration)
	}
	return c
}
