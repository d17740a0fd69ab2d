// Package explore performs bounded model checking of lock algorithms: it
// enumerates EVERY schedule of a (small) scenario by replaying executions
// through the deterministic simulator with a backtracking scheduler, and
// checks each execution with the spec harness. For tiny populations and
// passage counts the schedule tree is finite and small enough to exhaust,
// upgrading "no violation across N random seeds" to "no violation in ANY
// schedule" — the strongest evidence short of a mechanized proof that this
// implementation of Algorithm 1 satisfies Mutual Exclusion and progress.
//
// The approach relies on two properties of the simulator: executions are a
// pure function of the scheduler's choice sequence, and the set of poised
// processes presented at each step is deterministic for a fixed prefix.
// The explorer therefore walks the tree in DFS order: each run replays a
// prefix of choices and extends it with first choices; backtracking
// increments the deepest choice that still has unexplored siblings.
package explore

import (
	"fmt"

	"repro/internal/checkpoint"
	"repro/internal/memmodel"
	"repro/internal/parwork"
	"repro/internal/spec"
	"repro/internal/trace"
)

// Config bounds an exploration.
type Config struct {
	// MaxRuns caps the number of executions (default 1,000,000). If the
	// cap is hit the Result reports Complete = false.
	MaxRuns int
	// Parallel is the worker count the exploration fans the root subtrees
	// across: the schedule tree is split at its first choice and each
	// subtree is a self-contained serial DFS, merged back in canonical
	// (serial DFS) order. 0 selects the process default (parwork.Default),
	// 1 forces a serial exploration. The Result is byte-identical at every
	// worker count. A scenario with a non-nil Observer forces 1 (the shared
	// closure must not be called concurrently).
	Parallel int
}

// Result summarizes an exploration.
type Result struct {
	// Runs is the number of executions performed.
	Runs int
	// Complete reports whether the entire schedule tree was exhausted.
	Complete bool
	// MaxDepth is the longest execution (in scheduled steps) seen.
	MaxDepth int
	// Violation holds the first property violation found, with the
	// choice path that produced it; empty if none.
	Violation string
	// ViolationPath is the choice sequence reproducing the violation.
	ViolationPath []int
}

// replay is the backtracking scheduler: it follows path for the prefix and
// picks index 0 (extending path) beyond it, recording the branching factor
// at every depth.
type replay struct {
	path   []int
	counts []int
	depth  int
	// floor is the shallowest depth backtrack may advance; subtree
	// explorations pin their root choice by setting it to 1.
	floor int
	// err records the first choice that named no poised process (the run
	// goes on with first choices).
	err error
}

func (r *replay) Name() string { return "explore-replay" }

func (r *replay) Next(_ int, poised []int) int {
	if r.depth == len(r.path) {
		r.path = append(r.path, 0)
		r.counts = append(r.counts, 0)
	}
	if r.depth >= len(r.counts) {
		r.counts = append(r.counts, 0)
	}
	r.counts[r.depth] = len(poised)
	idx := r.path[r.depth]
	if idx < 0 || idx >= len(poised) {
		if r.err == nil {
			r.err = fmt.Errorf("explore: choice %d at depth %d is out of range: %d processes are poised there (choices 0..%d)",
				idx, r.depth, len(poised), len(poised)-1)
		}
		idx = 0
	}
	r.depth++
	return poised[idx]
}

// reset prepares the scheduler for the next run over the current path.
func (r *replay) reset() { r.depth = 0 }

// backtrack advances to the next unexplored sibling, trimming exhausted
// suffixes. It returns false when the whole tree has been explored.
func (r *replay) backtrack() bool {
	for i := len(r.path) - 1; i >= r.floor; i-- {
		if r.path[i]+1 < r.counts[i] {
			r.path[i]++
			r.path = r.path[:i+1]
			r.counts = r.counts[:i+1]
			return true
		}
	}
	return false
}

// Replay re-executes the schedule identified by a choice path (e.g. a
// Result's ViolationPath) and returns the spec report together with the
// recorded trace, for rendering with internal/tracefmt. Beyond the path
// the run takes first choices. It errors if a choice names no poised
// process or the run ends before the path does.
func Replay(newAlg func() memmodel.Algorithm, sc spec.Scenario, path []int) (*spec.Report, []trace.Event, error) {
	rs := &replay{path: append([]int(nil), path...)}
	var rec trace.Recorder
	sc.Scheduler = rs
	sc.Observer = rec.Observe
	rep := spec.Run(newAlg(), sc)
	if rs.err == nil && rs.depth < len(path) {
		rs.err = fmt.Errorf("explore: the path has %d choices, but the run ended after %d", len(path), rs.depth)
	}
	return rep, rec.Events(), rs.err
}

// Algorithm exhaustively explores the scenario's schedule tree for the
// algorithm produced by newAlg (fresh instance per run). The scenario's
// Scheduler field is ignored (the explorer installs its own). The tree is
// split at its root choice and the subtrees fan out across cfg.Parallel
// workers (see Config.Parallel); the merged Result is byte-identical to a
// serial DFS. With more than one worker, newAlg is called concurrently and
// must be a pure constructor.
func Algorithm(newAlg func() memmodel.Algorithm, sc spec.Scenario, cfg Config) (*Result, error) {
	if cfg.MaxRuns == 0 {
		cfg.MaxRuns = 1_000_000
	}
	// Probe run: all-first choices. It discovers the branching factor at
	// the root (the initially poised set is deterministic), and doubles as
	// the whole exploration when the tree makes no choices at all.
	probe := &replay{}
	run := sc
	run.Scheduler = probe
	rep := spec.Run(newAlg(), run)
	if len(probe.counts) == 0 {
		res := &Result{Runs: 1, Complete: true, MaxDepth: probe.depth}
		if !rep.OK() {
			res.Violation = rep.Failures()
			res.ViolationPath = append([]int(nil), probe.path[:probe.depth]...)
			res.Complete = false
		}
		return res, nil
	}

	workers := parwork.Workers(cfg.Parallel)
	if sc.Observer != nil {
		workers = 1
	}
	// Each root subtree is a self-contained serial DFS, capped at the
	// global budget (a deeper cut is reconstructed during the merge). The
	// probe run is re-run as subtree 0's first execution so every subtree
	// result is position-independent.
	subs, err := exploreSubtrees(newAlg, sc, cfg, workers, probe.counts[0])
	if err != nil {
		return nil, err
	}

	// Canonical merge: accumulate subtree results in root-choice order,
	// reproducing exactly where the serial DFS would have stopped — at the
	// first violation, or once the run budget is exhausted. A subtree the
	// serial DFS would have entered with a smaller remaining budget than
	// the worker used is re-explored with that exact budget.
	res := &Result{Complete: true}
	budget := cfg.MaxRuns
	for k, s := range subs {
		if budget <= 0 {
			res.Complete = false
			break
		}
		if s.Runs > budget {
			s = exploreSubtree(newAlg, sc, k, budget)
		}
		res.Runs += s.Runs
		res.MaxDepth = max(res.MaxDepth, s.MaxDepth)
		budget -= s.Runs
		if s.Violation != "" {
			res.Violation = s.Violation
			res.ViolationPath = s.ViolationPath
			res.Complete = false
			break
		}
		if !s.Complete {
			res.Complete = false
			break
		}
	}
	return res, nil
}

// exploreSubtrees fans the root subtrees out across the worker pool
// (parwork.DoRobust). The scenario's robust options (spec.EffectiveRobust)
// apply as in the spec sweeps, so an interrupted exploration resumes its
// unfinished subtrees instead of restarting; with none in play DoRobust
// is a plain fan-out. KeepGoing is never honored here: the canonical
// merge needs every subtree's real result, so row-failure isolation would
// only corrupt the budget accounting. Result round-trips through the
// checkpoint verbatim (ints, bool, string, []int).
//
// No cost hint: a subtree's size is the very thing exploration discovers
// (a root choice may prune immediately or dominate the whole search), so
// there is no known shape to order by. Workers claim whole subtrees,
// never part of one, so the largest subtree bounds the speedup. The n=1,
// m=1 trees have as few root subtrees as poised processes: af-log's two
// hold 4,637 and 6,738 schedules, so at two workers each takes one.
func exploreSubtrees(newAlg func() memmodel.Algorithm, sc spec.Scenario, cfg Config, workers, roots int) ([]*Result, error) {
	opt := parwork.Options{
		Workers: workers,
		RowInfo: func(k int) string { return fmt.Sprintf("root subtree %d", k) },
	}
	if ro := spec.EffectiveRobust(sc); ro != nil {
		opt.RowTimeout, opt.Stop, opt.AfterRow = ro.RowTimeout, ro.Stop, ro.AfterRow
		if ro.Store != nil {
			algName := newAlg().Name()
			fp := checkpoint.Fingerprint("explore", algName, sc.String(),
				fmt.Sprintf("csreads=%d maxsteps=%d maxruns=%d roots=%d",
					sc.CSReads, sc.MaxSteps, cfg.MaxRuns, roots))
			sec, err := ro.Store.Section("explore/"+algName, fp, roots)
			if err != nil {
				return nil, err
			}
			opt.Sink = sec
		}
	}
	outs, err := parwork.DoRobust(opt, roots, parwork.JSONCodec[*Result](),
		func() struct{} { return struct{}{} }, func(struct{}) {},
		func(_ struct{}, k int) *Result { return exploreSubtree(newAlg, sc, k, cfg.MaxRuns) }, nil)
	return outs, err
}

// exploreSubtree is the serial DFS restricted to the subtree under root
// choice k: it stops at the subtree's first violation or after maxRuns
// executions, whichever comes first, mirroring the serial loop's
// check order (violation, then exhaustion, then budget).
func exploreSubtree(newAlg func() memmodel.Algorithm, sc spec.Scenario, k, maxRuns int) *Result {
	rs := &replay{path: []int{k}, counts: []int{0}, floor: 1}
	res := &Result{}
	for {
		rs.reset()
		run := sc
		run.Scheduler = rs
		rep := spec.Run(newAlg(), run)
		if rs.err != nil { // the tree changed under a fixed prefix
			panic(fmt.Sprintf("%v (nondeterministic execution?)", rs.err))
		}
		res.Runs++
		if rs.depth > res.MaxDepth {
			res.MaxDepth = rs.depth
		}
		if !rep.OK() {
			res.Violation = rep.Failures()
			res.ViolationPath = append([]int(nil), rs.path[:rs.depth]...)
			return res
		}
		if !rs.backtrack() {
			res.Complete = true
			return res
		}
		if res.Runs >= maxRuns {
			return res
		}
	}
}
