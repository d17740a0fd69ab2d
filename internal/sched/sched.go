// Package sched provides the scheduling policies that drive the CC
// simulator. The simulator is step-granular: at every step it presents the
// set of processes poised to take a shared-memory step and the scheduler
// picks one. The paper's adversary (Theorem 5) is implemented as a
// Scheduler in internal/lowerbound; this package holds the generic
// policies used by tests, the spec harness and the experiments.
package sched

import (
	"math/rand"
	"sort"

	"repro/internal/memmodel"
)

// PendingOp describes the shared-memory step a poised process is about to
// take. Op-aware schedulers (the lower-bound adversary) use it to classify
// steps before choosing.
type PendingOp struct {
	// Proc is the process id.
	Proc int
	// Kind is the operation about to be performed. Await re-checks appear
	// as OpAwait.
	Kind memmodel.OpKind
	// Var is the variable the operation accesses. For a multi-variable
	// await it is the first variable; Vars carries the full list.
	Var memmodel.Var
	// Vars lists every variable a pending await re-check will read; nil
	// for single-variable operations.
	Vars []memmodel.Var
	// Arg is the value to be written (write), added (FAA) or stored (CAS
	// new value); zero for reads and awaits.
	Arg uint64
	// CASExpected is the expected value of a pending CAS.
	CASExpected uint64
}

// Scheduler selects which poised process takes the next step. The poised
// slice is non-empty and sorted by ascending process id; Next must return
// one of its elements. The slice belongs to the simulator, which may hand
// the same slice to later calls: Next must not modify or retain it.
type Scheduler interface {
	// Name identifies the policy in experiment tables.
	Name() string
	// Next picks a process id from poised for global step index step.
	Next(step int, poised []int) int
}

// OpAware is an optional extension: if a Scheduler also implements OpAware,
// the simulator calls NextOp (with full pending-op information) instead of
// Next.
type OpAware interface {
	NextOp(step int, poised []PendingOp) int
}

// RoundRobin cycles through processes fairly: it picks the lowest-id poised
// process strictly greater than the last scheduled one, wrapping around.
// The zero value is ready to use.
type RoundRobin struct {
	last int
	init bool
}

// NewRoundRobin returns a fair cyclic scheduler.
func NewRoundRobin() *RoundRobin { return &RoundRobin{} }

// Name implements Scheduler.
func (r *RoundRobin) Name() string { return "round-robin" }

// Next implements Scheduler.
func (r *RoundRobin) Next(_ int, poised []int) int {
	if !r.init {
		r.init = true
		r.last = poised[0]
		return poised[0]
	}
	for _, p := range poised {
		if p > r.last {
			r.last = p
			return p
		}
	}
	r.last = poised[0]
	return poised[0]
}

// Controlled is driven from outside the simulator: the owner sets Target
// before every Step call. Staged drivers (the Theorem-5 adversary, the
// HelpWCS regression test) use it to dictate exact interleavings. Next
// panics if the target is not poised, which always indicates a staging bug.
type Controlled struct {
	// Target is the process that must take the next step.
	Target int
}

// Name implements Scheduler.
func (c *Controlled) Name() string { return "controlled" }

// Next implements Scheduler. It binary-searches poised, which the
// Scheduler contract keeps in ascending order.
func (c *Controlled) Next(_ int, poised []int) int {
	if i := sort.SearchInts(poised, c.Target); i < len(poised) && poised[i] == c.Target {
		return c.Target
	}
	panic("sched: Controlled target not poised")
}

// Random picks uniformly among poised processes using a seeded source, so
// executions are reproducible per seed. Used by the spec harness to explore
// interleavings.
type Random struct {
	rng *rand.Rand
}

// NewRandom returns a seeded uniform scheduler.
func NewRandom(seed int64) *Random {
	return &Random{rng: rand.New(rand.NewSource(seed))}
}

// Name implements Scheduler.
func (r *Random) Name() string { return "random" }

// Next implements Scheduler.
func (r *Random) Next(_ int, poised []int) int {
	return poised[r.rng.Intn(len(poised))]
}

// LowestFirst always runs the lowest-id poised process. Combined with the
// simulator's run-until-blocked process loop this yields an almost
// sequential execution: process 0 runs until it blocks or finishes, then
// process 1, and so on (a process that unblocks re-enters at its priority).
type LowestFirst struct{}

// Name implements Scheduler.
func (LowestFirst) Name() string { return "lowest-first" }

// Next implements Scheduler.
func (LowestFirst) Next(_ int, poised []int) int { return poised[0] }

// HighestFirst always runs the highest-id poised process; with writers
// numbered after readers this biases schedules toward writer progress,
// exercising the reader-wait paths.
type HighestFirst struct{}

// Name implements Scheduler.
func (HighestFirst) Name() string { return "highest-first" }

// Next implements Scheduler.
func (HighestFirst) Next(_ int, poised []int) int { return poised[len(poised)-1] }

// Sticky keeps scheduling the same process while it remains poised (letting
// it complete whole passages uninterrupted when possible), switching only
// when it blocks or finishes. The switch target rotates round-robin. This
// produces low-contention executions, which is where per-passage RMR counts
// match the paper's solo bounds most tightly.
type Sticky struct {
	current int
	init    bool
}

// NewSticky returns a run-until-blocked scheduler.
func NewSticky() *Sticky { return &Sticky{} }

// Name implements Scheduler.
func (s *Sticky) Name() string { return "sticky" }

// Next implements Scheduler.
func (s *Sticky) Next(_ int, poised []int) int {
	if s.init {
		for _, p := range poised {
			if p == s.current {
				return p
			}
		}
		// Current blocked or done: rotate to the next higher id.
		for _, p := range poised {
			if p > s.current {
				s.current = p
				return p
			}
		}
	}
	s.init = true
	s.current = poised[0]
	return poised[0]
}
