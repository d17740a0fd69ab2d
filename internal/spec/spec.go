// Package spec checks reader-writer lock algorithms against the properties
// the paper requires (Section 2.1): Mutual Exclusion, Bounded Exit,
// Deadlock Freedom and Concurrent Entering, plus reader non-starvation
// (Lemma 16). It runs an algorithm inside the CC simulator under a chosen
// scheduler and validates the resulting execution.
//
// Process numbering convention: readers are processes 0..n-1, writers are
// processes n..n+m-1. Experiments elsewhere in the repository follow the
// same convention.
package spec

import (
	"fmt"

	"repro/internal/memmodel"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/trace"
)

// Scenario describes one checked execution.
type Scenario struct {
	// NReaders and NWriters size the population.
	NReaders, NWriters int
	// ReaderPassages and WriterPassages are the number of passages each
	// reader (resp. writer) performs. Zero means the processes exist but
	// stay in the remainder section.
	ReaderPassages, WriterPassages int
	// Protocol is the coherence protocol (default write-through).
	Protocol sim.Protocol
	// Scheduler drives the interleaving (default round-robin).
	Scheduler sched.Scheduler
	// MaxSteps bounds the execution (default 2,000,000). Exceeding it is
	// reported as a progress failure: with finite passages a live
	// algorithm must terminate.
	MaxSteps int
	// CSReads adds that many reads of a scratch variable inside each
	// critical section, lengthening CS occupancy to expose races.
	CSReads int
	// Observer, if non-nil, additionally receives every trace event (the
	// harness always installs its own mutual-exclusion monitor). Sweeps
	// with a non-nil Observer always run serially: a shared observer
	// closure would otherwise be invoked concurrently from worker
	// goroutines.
	Observer func(trace.Event)
	// Parallel is the worker count the sweep entry points (CrashSweep,
	// StallSweep, RecoverySweep, and their sampled and re-crash variants)
	// fan their independent executions across. 0 selects the process
	// default (parwork.Default, typically GOMAXPROCS; the cmd binaries set
	// it from -parallel); 1 forces serial execution. Results are
	// byte-identical at every worker count — see internal/parwork. With
	// Parallel != 1 a sweep calls its newAlg and mkSched factories
	// concurrently, so they must be safe for that (pure constructors
	// are). Single executions (Run, RunCrash, ...) ignore it.
	Parallel int
	// Robust selects the sweep entry points' robust execution options
	// (checkpointing, cooperative cancellation, per-row failure
	// isolation, row deadline — see RobustOptions). nil selects the
	// process default (SetDefaultRobust, set by the cmd binaries'
	// -checkpoint/-resume/-keep-going/-row-timeout flags); a non-nil
	// zero-valued struct opts OUT of that default, forcing a plain
	// fan-out. Single executions ignore it. Like Parallel it never
	// affects results: a resumed or keep-going sweep fills the same
	// result slots with the same values (failed rows excepted).
	Robust *RobustOptions
}

func (s Scenario) String() string {
	scheduler := "round-robin"
	if s.Scheduler != nil {
		scheduler = s.Scheduler.Name()
	}
	return fmt.Sprintf("n=%d m=%d rp=%d wp=%d %s %s",
		s.NReaders, s.NWriters, s.ReaderPassages, s.WriterPassages, s.Protocol, scheduler)
}

// Report is the outcome of one checked execution.
type Report struct {
	// Algorithm is the algorithm's name.
	Algorithm string
	// Scenario echoes the input.
	Scenario Scenario
	// Violations lists every property violation observed; empty means the
	// execution satisfied Mutual Exclusion and completed all passages.
	Violations []string
	// Err is the runner's terminal error, if any (deadlock, step budget).
	Err error
	// Steps is the total number of shared-memory steps executed.
	Steps int
	// ReaderAccounts and WriterAccounts hold per-process cost accounts,
	// indexed by rid / wid.
	ReaderAccounts []*sim.Account
	WriterAccounts []*sim.Account
	// MaxReaderPassage and MaxWriterPassage aggregate worst-case
	// per-passage costs across all processes of the class.
	MaxReaderPassage, MaxWriterPassage sim.Passage
	// MaxConcurrentReaders is the largest number of readers observed in
	// the CS simultaneously (evidence of actual reader parallelism).
	MaxConcurrentReaders int
	// VarNames maps variable ids to the debug names the algorithm
	// allocated them with (for rendering traces).
	VarNames []string
}

// OK reports whether the execution completed without violations or errors.
func (r *Report) OK() bool { return len(r.Violations) == 0 && r.Err == nil }

// Failures renders all problems as one string.
func (r *Report) Failures() string {
	s := ""
	for _, v := range r.Violations {
		s += v + "\n"
	}
	if r.Err != nil {
		s += r.Err.Error() + "\n"
	}
	return s
}

// csMonitor watches section-transition events and enforces Mutual
// Exclusion: a writer in the CS excludes everyone.
type csMonitor struct {
	nReaders   int
	inCS       []bool // proc id -> in CS, grown on demand
	writersIn  int
	readersIn  int
	maxReaders int
	violations []string
}

func newCSMonitor(nReaders int) *csMonitor {
	return &csMonitor{nReaders: nReaders}
}

func (m *csMonitor) isWriter(proc int) bool { return proc >= m.nReaders }

func (m *csMonitor) observe(e trace.Event) {
	if !e.SectionChange {
		return
	}
	for len(m.inCS) <= e.Proc {
		m.inCS = append(m.inCS, false)
	}
	was := m.inCS[e.Proc]
	now := e.Section == memmodel.SecCS
	if was == now {
		return
	}
	m.inCS[e.Proc] = now
	if m.isWriter(e.Proc) {
		if now {
			m.writersIn++
			if m.writersIn > 1 || m.readersIn > 0 {
				m.violations = append(m.violations, fmt.Sprintf(
					"step %d: writer w%d entered CS with %d writers and %d readers inside",
					e.Step, e.Proc-m.nReaders, m.writersIn-1, m.readersIn))
			}
		} else {
			m.writersIn--
		}
		return
	}
	if now {
		m.readersIn++
		if m.writersIn > 0 {
			m.violations = append(m.violations, fmt.Sprintf(
				"step %d: reader r%d entered CS while a writer was inside", e.Step, e.Proc))
		}
		if m.readersIn > m.maxReaders {
			m.maxReaders = m.readersIn
		}
	} else {
		m.readersIn--
	}
}

// defaults fills the zero-value scenario fields in place.
func (s *Scenario) defaults() {
	if s.MaxSteps == 0 {
		s.MaxSteps = 2_000_000
	}
	if s.Scheduler == nil {
		s.Scheduler = sched.NewRoundRobin()
	}
	if s.Protocol == 0 {
		s.Protocol = sim.WriteThrough
	}
}

// runnerCache lends one sim.Runner out to consecutive executions on the
// same goroutine: the first get constructs it, later gets Reset it,
// reusing the simulator's memory/coherence/account buffers. Each sweep
// worker owns one cache (its parwork.DoRobust scope), so runners are never
// shared.
//
// The sweep driver also sets, per execution, what the next runner records
// or runs ahead from: record receives a reference run's responses
// (sim.Runner.Record), and script with ahead starts a row's processes from
// the responses its reference recorded before the row's first fault
// (sim.Runner.RunAhead). get hands both to the runner and clears them.
type runnerCache struct {
	r      *sim.Runner
	record *sim.Recording
	script *sim.Recording
	ahead  int
}

func (c *runnerCache) get(cfg sim.Config) *sim.Runner {
	if c.r == nil {
		c.r = sim.New(cfg)
	} else {
		c.r.Reset(cfg)
	}
	if c.record != nil {
		c.r.Record(c.record)
	}
	if c.script != nil {
		c.r.RunAhead(c.script, c.ahead)
	}
	c.record, c.script = nil, nil
	return c.r
}

func (c *runnerCache) close() {
	if c.r != nil {
		c.r.Close()
	}
}

// execution is the state behind one scenario run's passage programs: the
// mutual-exclusion monitor, and the passage counts. Passages are counted
// per process id, not per incarnation, so a restarted incarnation
// (runCrashRecoverOn) finishes exactly the passages its dead predecessors
// did not.
type execution struct {
	mon     *csMonitor
	alg     memmodel.Algorithm
	sc      Scenario
	scratch memmodel.Var
	// counts[pid] is the number of passages pid has completed.
	counts []int
}

// buildRunner wires alg and the scenario's passage-driving programs into a
// started runner drawn from c, and returns it with the programs' state. It
// is the one place a scenario's programs are built. A fresh
// mutual-exclusion monitor, then also (if non-nil), then the scenario's
// Observer receive every trace event. The cache owns Close; a runner is
// never closed between cached executions (Reset does it).
func buildRunner(c *runnerCache, alg memmodel.Algorithm, sc Scenario, also func(trace.Event)) (*sim.Runner, *execution, error) {
	mon := newCSMonitor(sc.NReaders)
	observe := mon.observe
	if also != nil || sc.Observer != nil {
		user := sc.Observer
		observe = func(e trace.Event) {
			mon.observe(e)
			if also != nil {
				also(e)
			}
			if user != nil {
				user(e)
			}
		}
	}
	r := c.get(sim.Config{
		Protocol:  sc.Protocol,
		Scheduler: sc.Scheduler,
		MaxSteps:  sc.MaxSteps,
		Observer:  observe,
	})

	if err := alg.Init(r, sc.NReaders, sc.NWriters); err != nil {
		return nil, nil, fmt.Errorf("init: %w", err)
	}
	x := &execution{mon: mon, alg: alg, sc: sc, scratch: r.Alloc("spec.scratch", 0),
		counts: make([]int, sc.NReaders+sc.NWriters)}
	for pid := range x.counts {
		r.AddProc(func(p sim.Proc) {
			for x.counts[pid] < x.quota(pid) {
				x.passage(p, pid)
			}
		})
	}
	if err := r.Start(); err != nil {
		return nil, nil, err
	}
	return r, x, nil
}

// quota is pid's passage count under the scenario.
func (x *execution) quota(pid int) int {
	if pid < x.sc.NReaders {
		return x.sc.ReaderPassages
	}
	return x.sc.WriterPassages
}

// name renders pid under the spec numbering: "reader r0", "writer w0".
func (x *execution) name(pid int) string {
	if pid < x.sc.NReaders {
		return fmt.Sprintf("reader r%d", pid)
	}
	return fmt.Sprintf("writer w%d", pid-x.sc.NReaders)
}

// passage runs one full passage of pid: entry, critical section, exit.
func (x *execution) passage(p sim.Proc, pid int) {
	p.Section(memmodel.SecEntry)
	if pid < x.sc.NReaders {
		x.alg.ReaderEnter(p, pid)
	} else {
		x.alg.WriterEnter(p, pid-x.sc.NReaders)
	}
	x.finish(p, pid)
}

// finish runs pid's critical section and exit section, and counts the
// completed passage.
func (x *execution) finish(p sim.Proc, pid int) {
	p.Section(memmodel.SecCS)
	for k := 0; k < x.sc.CSReads; k++ {
		p.Read(x.scratch)
	}
	p.Section(memmodel.SecExit)
	if pid < x.sc.NReaders {
		x.alg.ReaderExit(p, pid)
	} else {
		x.alg.WriterExit(p, pid-x.sc.NReaders)
	}
	p.Section(memmodel.SecRemainder)
	x.counts[pid]++
}

// Run executes the scenario against alg and returns the report. The
// algorithm instance must be fresh (Init not yet called).
func Run(alg memmodel.Algorithm, sc Scenario) *Report {
	var c runnerCache
	defer c.close()
	return runOn(&c, alg, sc)
}

// runOn is Run on a cached runner.
func runOn(c *runnerCache, alg memmodel.Algorithm, sc Scenario) *Report {
	sc.defaults()
	rep := &Report{Algorithm: alg.Name(), Scenario: sc}

	r, x, err := buildRunner(c, alg, sc, nil)
	if err != nil {
		rep.Err = err
		return rep
	}
	rep.Err = r.Run()
	rep.Steps = r.StepCount()
	rep.Violations = x.mon.violations
	rep.MaxConcurrentReaders = x.mon.maxReaders
	rep.VarNames = make([]string, r.NumVars())
	for v := range rep.VarNames {
		rep.VarNames[v] = r.VarName(memmodel.Var(v))
	}

	for pid := range x.counts {
		acct := r.Account(pid)
		if rep.Err == nil && len(acct.Passages) != x.quota(pid) {
			rep.Violations = append(rep.Violations, fmt.Sprintf(
				"%s completed %d/%d passages", x.name(pid), len(acct.Passages), x.quota(pid)))
		}
		if pid < sc.NReaders {
			rep.ReaderAccounts = append(rep.ReaderAccounts, acct)
			rep.MaxReaderPassage = maxPassage(rep.MaxReaderPassage, acct.MaxPassage())
		} else {
			rep.WriterAccounts = append(rep.WriterAccounts, acct)
			rep.MaxWriterPassage = maxPassage(rep.MaxWriterPassage, acct.MaxPassage())
		}
	}
	return rep
}

func maxPassage(a, b sim.Passage) sim.Passage {
	return sim.Passage{
		EntryRMR:   max(a.EntryRMR, b.EntryRMR),
		CSRMR:      max(a.CSRMR, b.CSRMR),
		ExitRMR:    max(a.ExitRMR, b.ExitRMR),
		EntrySteps: max(a.EntrySteps, b.EntrySteps),
		CSSteps:    max(a.CSSteps, b.CSSteps),
		ExitSteps:  max(a.ExitSteps, b.ExitSteps),
	}
}
