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
type runnerCache struct{ r *sim.Runner }

func (c *runnerCache) get(cfg sim.Config) *sim.Runner {
	if c.r == nil {
		c.r = sim.New(cfg)
	} else {
		c.r.Reset(cfg)
	}
	return c.r
}

func (c *runnerCache) close() {
	if c.r != nil {
		c.r.Close()
	}
}

// buildRunner wires alg and the scenario's passage-driving programs into a
// started runner drawn from c, with mon installed as the mutual-exclusion
// monitor. The cache owns Close; a runner is never closed between cached
// executions (Reset does it).
func buildRunner(c *runnerCache, alg memmodel.Algorithm, sc Scenario, mon *csMonitor) (*sim.Runner, error) {
	observe := mon.observe
	if sc.Observer != nil {
		user := sc.Observer
		observe = func(e trace.Event) {
			mon.observe(e)
			user(e)
		}
	}
	r := c.get(sim.Config{
		Protocol:  sc.Protocol,
		Scheduler: sc.Scheduler,
		MaxSteps:  sc.MaxSteps,
		Observer:  observe,
	})

	if err := alg.Init(r, sc.NReaders, sc.NWriters); err != nil {
		return nil, fmt.Errorf("init: %w", err)
	}
	scratch := r.Alloc("spec.scratch", 0)

	for rid := 0; rid < sc.NReaders; rid++ {
		rid := rid
		r.AddProc(func(p sim.Proc) {
			for i := 0; i < sc.ReaderPassages; i++ {
				p.Section(memmodel.SecEntry)
				alg.ReaderEnter(p, rid)
				p.Section(memmodel.SecCS)
				for k := 0; k < sc.CSReads; k++ {
					p.Read(scratch)
				}
				p.Section(memmodel.SecExit)
				alg.ReaderExit(p, rid)
				p.Section(memmodel.SecRemainder)
			}
		})
	}
	for wid := 0; wid < sc.NWriters; wid++ {
		wid := wid
		r.AddProc(func(p sim.Proc) {
			for i := 0; i < sc.WriterPassages; i++ {
				p.Section(memmodel.SecEntry)
				alg.WriterEnter(p, wid)
				p.Section(memmodel.SecCS)
				for k := 0; k < sc.CSReads; k++ {
					p.Read(scratch)
				}
				p.Section(memmodel.SecExit)
				alg.WriterExit(p, wid)
				p.Section(memmodel.SecRemainder)
			}
		})
	}

	if err := r.Start(); err != nil {
		return nil, err
	}
	return r, nil
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
	mon := newCSMonitor(sc.NReaders)

	r, err := buildRunner(c, alg, sc, mon)
	if err != nil {
		rep.Err = err
		return rep
	}
	rep.Err = r.Run()
	rep.Steps = r.StepCount()
	rep.Violations = mon.violations
	rep.MaxConcurrentReaders = mon.maxReaders
	rep.VarNames = make([]string, r.NumVars())
	for v := range rep.VarNames {
		rep.VarNames[v] = r.VarName(memmodel.Var(v))
	}

	for rid := 0; rid < sc.NReaders; rid++ {
		acct := r.Account(rid)
		rep.ReaderAccounts = append(rep.ReaderAccounts, acct)
		if rep.Err == nil && len(acct.Passages) != sc.ReaderPassages {
			rep.Violations = append(rep.Violations, fmt.Sprintf(
				"reader r%d completed %d/%d passages", rid, len(acct.Passages), sc.ReaderPassages))
		}
		rep.MaxReaderPassage = maxPassage(rep.MaxReaderPassage, acct.MaxPassage())
	}
	for wid := 0; wid < sc.NWriters; wid++ {
		acct := r.Account(sc.NReaders + wid)
		rep.WriterAccounts = append(rep.WriterAccounts, acct)
		if rep.Err == nil && len(acct.Passages) != sc.WriterPassages {
			rep.Violations = append(rep.Violations, fmt.Sprintf(
				"writer w%d completed %d/%d passages", wid, len(acct.Passages), sc.WriterPassages))
		}
		rep.MaxWriterPassage = maxPassage(rep.MaxWriterPassage, acct.MaxPassage())
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
