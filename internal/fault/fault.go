// Package fault injects failures into simulator executions, under three
// failure models: crash-stop, crash-recovery, and fail-slow (stalls). One
// driver, Drive, applies a Plan that may mix all three.
//
// Crash-stop (Plan.Crashes): a crashed process takes no further steps,
// forever, but every step it already took — including writes that other
// processes have observed — remains in effect. The paper's algorithms keep
// per-process state in shared counters and signal words, and a crashed
// process's contribution is never undone; the spec harness's crash sweep
// characterizes exactly *which* crash points leave the survivors live and
// which wedge them forever (detected deterministically by the simulator's
// no-progress watchdog, never by a step budget).
//
// Crash-recovery (Plan.Restarts): the recoverable-mutual-exclusion model
// of Golab–Ramaraju and Chan & Woelfel (PODC 2017). A crashed process
// loses its local state but is later re-admitted as a fresh incarnation
// (sim.Runner.Restart) running a recovery program (Plan.Recover) that
// inspects shared announcement state and completes or rolls back the
// interrupted passage. A RestartPoint schedules the crash at step k and the
// restart after a delay of d further global steps; a second point against
// the same victim can land inside the recovery section itself, exercising
// re-crashed recovery. A pending restart counts as progress potential:
// when the survivors wedge on a dead process, Drive applies the pending
// restarts immediately instead of reporting the no-progress error.
//
// Fail-slow (Plan.Stalls): a stalled process is merely delayed — finitely
// or indefinitely — rather than killed. It keeps every step it took,
// resumes exactly where it paused, and the paper's Section-5 liveness
// properties are precisely claims about what survives such delays. The
// simulator fast-forwards finite stalls that would otherwise wedge the
// execution and reports indefinite-stall wedges through the watchdog's
// stalled/blocked/doomed classification.
//
// Fault points are enumerated exhaustively for tiny scenarios (every step
// boundary of a reference execution) and sampled with seeded randomness
// for larger ones.
package fault

import (
	"cmp"
	"errors"
	"fmt"
	"math/rand"
	"slices"

	"repro/internal/memmodel"
	"repro/internal/sim"
)

// Point schedules one crash: Victim is killed at the boundary before the
// execution's global step index Step. Step 0 kills the victim before it
// takes any step at all.
type Point struct {
	// Victim is the process id to crash-stop.
	Victim int
	// Step is the global step index before which the victim dies.
	Step int
}

func (p Point) String() string { return fmt.Sprintf("crash p%d @%d", p.Victim, p.Step) }

// RestartPoint schedules one crash-recovery event: Victim is crashed at
// the boundary before global step index Step, and restarted Delay further
// global steps later (immediately, for Delay 0). Points whose victim is
// already dead when they fire are skipped, so a second point against the
// same victim must use a step index strictly after the first restart to
// take effect (typically Step+Delay+j for small j, landing the second
// crash inside the recovery section).
type RestartPoint struct {
	// Victim is the process id to crash.
	Victim int
	// Step is the global step index before which the victim dies.
	Step int
	// Delay is the number of further global steps before the victim's next
	// incarnation is admitted. If the survivors wedge first, the restart is
	// applied at the wedge point: a pending restart is progress potential,
	// not a hang.
	Delay int
}

func (p RestartPoint) String() string {
	return fmt.Sprintf("crash p%d @%d restart +%d", p.Victim, p.Step, p.Delay)
}

// RecoverEvent reports what one RestartPoint actually did.
type RecoverEvent struct {
	// Point echoes the scheduled point.
	Point RestartPoint
	// Crashed reports whether the crash was applied; false means the
	// victim was already finished or already dead when the point fired.
	Crashed bool
	// CrashStep is the global step index at which the crash landed.
	CrashStep int
	// CrashSection is the passage section the victim occupied when it
	// crashed. A crash during a later incarnation's repair reports
	// SecRecover — the "recovery section itself crashed" configuration.
	CrashSection memmodel.Section
	// Restarted reports whether the matching restart was applied (always
	// true for applied crashes once Drive returns cleanly).
	Restarted bool
	// RestartStep is the global step index at which the new incarnation
	// was admitted.
	RestartStep int
}

// Plan is one execution's fault schedule. Each list fires in Step order
// (ties in input order). At a shared step boundary crashes fire first, then
// restart-crashes, then the restarts that have come due, then stalls — so
// a crash supersedes a stall against the same victim.
type Plan struct {
	// Crashes crash-stop their victims.
	Crashes []Point
	// Restarts crash their victims and re-admit them after each point's
	// delay as a new incarnation running Recover(victim).
	Restarts []RestartPoint
	// Stalls pause their victims for each point's duration.
	Stalls []StallPoint
	// Recover builds a restarted victim's program, typically a recovery
	// section followed by its remaining passages. Restarts requires it.
	Recover func(victim int) sim.Program
}

// Events reports what a plan's restart and stall points did, one event per
// point in firing order. Crash-stop points report through the runner
// (sim.Runner.Crashed).
type Events struct {
	Restarts []RecoverEvent
	Stalls   []StallEvent
}

// Drive steps r until termination, applying every point of pl at its step
// boundary. A point whose victim already finished or is dead when it fires
// is skipped, and so is a stall point whose victim is still stalled.
// Restarts that come due while the execution is wedged or idle are applied
// at once: the remaining delay could not otherwise elapse.
//
// It returns nil when the execution terminates (every process done or
// crashed), the runner's *sim.NoProgressError when the watchdog finds the
// survivors wedged with no restart pending, and any other runner error
// (step budget, scheduler fault) verbatim. With indefinite stalls in the
// plan, an empty Stuck in that error means every survivor completed and
// only stalled victims remain. Staged executions are supported: when every
// schedulable process is parked at a barrier, Drive releases them all and
// continues — the all-at-once policy a staged scenario gets from stepping
// to idle and releasing by hand. Crashed processes never leave a barrier.
func Drive(r *sim.Runner, pl Plan) (Events, error) {
	if len(pl.Restarts) > 0 && pl.Recover == nil {
		return Events{}, errors.New("fault: plan has restart points but no Recover program")
	}
	d := driver{r: r, recover: pl.Recover,
		crashes: byStep(pl.Crashes, func(p Point) Point { return p }),
		ev: Events{
			Restarts: byStep(pl.Restarts, func(p RestartPoint) RecoverEvent { return RecoverEvent{Point: p} }),
			Stalls:   byStep(pl.Stalls, func(p StallPoint) StallEvent { return StallEvent{Point: p} }),
		}}
	for {
		if err := d.fire(); err != nil {
			return d.ev, err
		}
		progressed, err := r.Step()
		if err != nil && (len(d.pending) == 0 || !errors.Is(err, sim.ErrNoProgress)) {
			return d.ev, err
		}
		switch {
		case err == nil && progressed:
		case len(d.pending) > 0:
			err = d.restart(true)
		case r.Terminated():
			return d.ev, nil
		default:
			err = releaseBarriers(r)
		}
		if err != nil {
			return d.ev, err
		}
	}
}

// driver is Drive's state: the sorted points (the events echo theirs), the
// next point of each list to fire, and the crashed victims whose restart
// is pending.
type driver struct {
	r                                 *sim.Runner
	recover                           func(victim int) sim.Program
	crashes                           []Point
	ev                                Events
	nextCrash, nextRestart, nextStall int
	pending                           []pendingRestart
}

// pendingRestart is a crashed victim awaiting its restart at step due;
// event indexes its RecoverEvent.
type pendingRestart struct{ victim, due, event int }

// fire applies every point due at the current step boundary.
func (d *driver) fire() error {
	r := d.r
	for ; d.nextCrash < len(d.crashes) && d.crashes[d.nextCrash].Step <= r.StepCount(); d.nextCrash++ {
		p := d.crashes[d.nextCrash]
		if !r.Alive(p.Victim) {
			continue
		}
		if err := r.Crash(p.Victim); err != nil {
			return fmt.Errorf("fault: %s: %w", p, err)
		}
	}
	for ; d.nextRestart < len(d.ev.Restarts) && d.ev.Restarts[d.nextRestart].Point.Step <= r.StepCount(); d.nextRestart++ {
		e := &d.ev.Restarts[d.nextRestart]
		if !r.Alive(e.Point.Victim) {
			continue
		}
		e.Crashed = true
		e.CrashStep = r.StepCount()
		e.CrashSection = r.Account(e.Point.Victim).Section()
		if err := r.Crash(e.Point.Victim); err != nil {
			return fmt.Errorf("fault: %s: %w", e.Point, err)
		}
		d.pending = append(d.pending, pendingRestart{e.Point.Victim, r.StepCount() + e.Point.Delay, d.nextRestart})
	}
	if err := d.restart(false); err != nil {
		return err
	}
	for ; d.nextStall < len(d.ev.Stalls) && d.ev.Stalls[d.nextStall].Point.Step <= r.StepCount(); d.nextStall++ {
		e := &d.ev.Stalls[d.nextStall]
		if !r.Alive(e.Point.Victim) || r.IsStalled(e.Point.Victim) {
			continue
		}
		e.Stalled = true
		e.StallStep = r.StepCount()
		e.StallSection = r.Account(e.Point.Victim).Section()
		if err := r.Stall(e.Point.Victim, e.Point.Duration); err != nil {
			return fmt.Errorf("fault: %s: %w", e.Point, err)
		}
	}
	return nil
}

// restart admits every pending incarnation whose delay has elapsed, or
// every pending one when force is set.
func (d *driver) restart(force bool) error {
	kept := d.pending[:0]
	for _, pr := range d.pending {
		if !force && pr.due > d.r.StepCount() {
			kept = append(kept, pr)
			continue
		}
		if err := d.r.Restart(pr.victim, d.recover(pr.victim)); err != nil {
			return fmt.Errorf("fault: restarting p%d: %w", pr.victim, err)
		}
		e := &d.ev.Restarts[pr.event]
		e.Restarted = true
		e.RestartStep = d.r.StepCount()
	}
	d.pending = kept
	return nil
}

// releaseBarriers releases every process parked at a barrier. The runner
// only reports "no progress, no error" when processes are done, crashed or
// barrier-parked, so an empty barrier set here is a driver bug.
func releaseBarriers(r *sim.Runner) error {
	ids := r.AtBarrier()
	if len(ids) == 0 {
		return fmt.Errorf("fault: runner idle but terminated=%v and no process at a barrier", r.Terminated())
	}
	for _, id := range ids {
		if err := r.ReleaseBarrier(id); err != nil {
			return fmt.Errorf("fault: releasing barrier of p%d: %w", id, err)
		}
	}
	return nil
}

// byStep wraps each point with mk and sorts the results stably by Step.
func byStep[P any, E interface{ at() int }](pts []P, mk func(P) E) []E {
	out := make([]E, len(pts))
	for i, p := range pts {
		out[i] = mk(p)
	}
	slices.SortStableFunc(out, func(a, b E) int { return cmp.Compare(a.at(), b.at()) })
	return out
}

func (p Point) at() int        { return p.Step }
func (e RecoverEvent) at() int { return e.Point.Step }
func (e StallEvent) at() int   { return e.Point.Step }

// ExhaustivePoints enumerates every crash point for victim in an execution
// of totalSteps steps: one Point per step boundary, 0 through totalSteps
// inclusive (the final boundary crashes the victim after the reference
// execution's last step, exercising the everything-done edge). Callers run
// one fresh execution per point.
func ExhaustivePoints(victim, totalSteps int) []Point {
	pts := make([]Point, 0, totalSteps+1)
	for k := 0; k <= totalSteps; k++ {
		pts = append(pts, Point{Victim: victim, Step: k})
	}
	return pts
}

// RandomPoints samples count distinct crash points with a seeded
// generator: victims drawn uniformly from victims, steps uniformly from
// [0, maxStep). The sample is deterministic per seed, so sweeps are
// reproducible, and duplicate-free at the source: a repeated point would
// re-run the identical execution under a fixed scheduler seed and skew a
// sampled sweep's tallies toward whatever outcome it happens to have. When
// fewer than count distinct points exist, every point is returned (in a
// seeded random order).
func RandomPoints(seed int64, victims []int, maxStep, count int) []Point {
	victims = dedupVictims(victims)
	if len(victims) == 0 || maxStep <= 0 || count <= 0 {
		return nil
	}
	rng := rand.New(rand.NewSource(seed))
	total := len(victims) * maxStep
	if count > total {
		count = total
	}
	if 2*count >= total {
		// Dense request: enumerate the whole space and shuffle, which is
		// both cheaper and guaranteed to terminate where rejection sampling
		// degenerates into a coupon-collector walk.
		all := make([]Point, 0, total)
		for _, v := range victims {
			for s := 0; s < maxStep; s++ {
				all = append(all, Point{Victim: v, Step: s})
			}
		}
		rng.Shuffle(len(all), func(i, j int) { all[i], all[j] = all[j], all[i] })
		return all[:count]
	}
	seen := make(map[Point]bool, count)
	pts := make([]Point, 0, count)
	for len(pts) < count {
		pt := Point{
			Victim: victims[rng.Intn(len(victims))],
			Step:   rng.Intn(maxStep),
		}
		if seen[pt] {
			continue
		}
		seen[pt] = true
		pts = append(pts, pt)
	}
	return pts
}

// dedupVictims drops duplicate victim ids, preserving first-occurrence
// order, so the sampled point space is not skewed toward repeated entries.
func dedupVictims(victims []int) []int {
	seen := make(map[int]bool, len(victims))
	out := make([]int, 0, len(victims))
	for _, v := range victims {
		if seen[v] {
			continue
		}
		seen[v] = true
		out = append(out, v)
	}
	return out
}
