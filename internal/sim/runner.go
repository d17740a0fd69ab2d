// Package sim is a deterministic simulator of the asynchronous shared
// memory system with cache coherence defined in the paper's Section 2. It
// executes real algorithm code (written against memmodel.Proc) one
// shared-memory step at a time, under a pluggable scheduler, and counts
// remote memory references exactly as the write-through or write-back CC
// model prescribes.
//
// Each simulated process runs as a goroutine; a single runner goroutine
// owns all memory and coherence state, asks the scheduler which poised
// process steps next, applies the operation, and resumes that process.
// Executions are therefore data-race-free by construction and exactly
// reproducible for a given scheduler.
//
// A process talks to the runner through its outbox: it appends every
// request there, and hands off (a plain send on its req channel, then a
// receive on its resp channel) only when it needs an answer the runner
// has not given it yet. A Write returns nothing, so after a process's
// first handoff it is posted: the process goes on at once, and the runner
// executes the write when the process is scheduled, at the step it would
// have had anyway. A section marker waits only when a posted write is
// before it. A process started with a recorded script (Record, RunAhead)
// answers its operations from the script and runs ahead to the script's
// end in one handoff. Step still executes each of those operations for
// real, taking it from the outbox instead of the channel, and returns a
// *DivergenceError if the response it computes, or the step it computes
// it at, differs from the recorded one. Between Runner calls every live
// goroutine is parked on its resp receive or has exited, so Close aborts
// them all, including incarnations retired by Restart, by closing their
// resp channels (see proc.go).
//
// A step costs O(1) in the number of processes when no status changed: the
// runner keeps the poised list, a per-variable waiter index, the barrier
// count and the finite-stall count up to date as processes change state,
// instead of scanning every process on every step.
//
// Busy-wait loops are modeled by Await/AwaitMulti: a spinning process holds
// valid cached copies of its spin variables and is not schedulable until
// one of them is invalidated by another process's write, at which point its
// re-check becomes a poised step that is charged the cache-refill RMRs.
// This is the standard local-spin accounting and keeps executions finite.
package sim

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/memmodel"
	"repro/internal/sched"
	"repro/internal/trace"
)

// ErrNoProgress is the sentinel for the watchdog's structured non-progress
// diagnostic: no step is enabled although not every process has finished.
// Step and Run return a *NoProgressError, which matches ErrNoProgress under
// errors.Is.
var ErrNoProgress = errors.New("sim: no progress (deadlock): no live process has an enabled step")

// ErrMaxSteps is returned when an execution exceeds the configured step
// budget, which usually indicates livelock or starvation in the algorithm
// under test.
var ErrMaxSteps = errors.New("sim: step budget exceeded")

// errAborted terminates process goroutines when the runner is closed.
var errAborted = errors.New("sim: runner closed")

// Proc is the process handle visible to simulated programs. It extends the
// model interface with Barrier, a scheduling-only pause (not a memory step,
// no RMR, invisible to the awareness machinery) that staged drivers such as
// the Theorem-5 adversary use to stop processes at precise points, e.g.
// inside the critical section between fragments E1 and E2.
//
// A program's goroutine may run ahead of the simulated execution: Write
// returns before the runner executes the write, and a crash can discard
// it. The goroutine catches up at a sync point: an operation that returns
// a value, a Barrier, or a Section marker, which waits for every write
// posted before it. So Go state that a program shares with its driver, or
// with a later incarnation, must be written only right after a sync point,
// never right after a Write: a crash between the write's post and its
// execution would leave the effect of a step that never happened. Go
// state that only the same incarnation reads is safe anywhere.
type Proc interface {
	memmodel.Proc
	// Barrier blocks the process until the driver calls ReleaseBarrier.
	Barrier()
}

// Program is the code a simulated process runs, from start to completion.
type Program func(p Proc)

// Config parameterizes a Runner.
type Config struct {
	// Protocol is the coherence protocol; default WriteThrough.
	Protocol Protocol
	// Scheduler picks the next process at every step; default round-robin.
	Scheduler sched.Scheduler
	// Observer, if non-nil, receives every trace event as it is emitted.
	Observer func(trace.Event)
	// MaxSteps bounds the execution length; default 5,000,000.
	MaxSteps int
}

type procStatus uint8

const (
	statusPoised procStatus = iota + 1 // has a pending op, schedulable
	statusAwaiting
	statusBarrier
	statusDone
	statusCrashed // crash-stopped by the driver; takes no further steps
)

// request is one message from a process goroutine to the runner.
type request struct {
	kind    memmodel.OpKind // zero for section/barrier pseudo-requests
	section memmodel.Section
	barrier bool

	v memmodel.Var
	// vars lists a multi-await's spin variables (mpred != nil). Every
	// single-variable operation — including single-variable Await — carries
	// only v, keeping the per-step request allocation-free.
	vars  []memmodel.Var
	arg   uint64
	exp   uint64
	pred  memmodel.Pred
	mpred memmodel.MultiPred
}

// response is the runner's reply completing an operation.
type response struct {
	val     uint64
	vals    []uint64
	swapped bool
}

func (r response) equal(o response) bool {
	return r.val == o.val && r.swapped == o.swapped && slices.Equal(r.vals, o.vals)
}

func (r response) String() string {
	if r.vals != nil {
		return fmt.Sprintf("vals=%v", r.vals)
	}
	return fmt.Sprintf("val=%d swapped=%v", r.val, r.swapped)
}

type procState struct {
	id          int
	incarnation int
	prog        Program
	// req carries the goroutine's handoffs: a send when it waits for a
	// reply, and the close when its program returns.
	req     chan struct{}
	resp    chan response
	status  procStatus
	pending request

	// outbox holds the requests the goroutine issued since the runner
	// last replied, in issue order; next is the runner's read position.
	// Ownership moves with the handoff (see simProc).
	outbox []request
	next   int
	// exited records that the goroutine closed req: its program returned,
	// and no request in the outbox waits for a reply. The runner sets it.
	exited bool
	// handed and posted belong to the goroutine: handed is set at its
	// first handoff, and posted while the outbox holds a write it posted
	// since its last one.
	handed, posted bool
	// script holds the recorded responses the incarnation answers its
	// first operations from (RunAhead); played counts the ones the runner
	// has checked.
	script []stamped
	played int

	// stalled marks a process paused by fault injection (fail-slow model).
	// It is orthogonal to status: the process keeps its pending operation
	// (or its parked await) but is not schedulable until the stall ends.
	stalled   bool
	stalledAt int
	// stallUntil is the global step index at which the stall expires on its
	// own; negative means indefinite (ends only through Resume).
	stallUntil int
	// park numbers the process's current await parking (Runner.parks); a
	// waiter entry with another number is stale.
	park uint32
}

func newProcState(id, incarnation int, prog Program) *procState {
	return &procState{
		id:          id,
		incarnation: incarnation,
		prog:        prog,
		req:         make(chan struct{}),
		resp:        make(chan response),
	}
}

// scriptedCheck decides an await check that starts at global step start
// when the process answered the await from its script: the check holds
// from the step the recording says the await completed at, and fails
// before it. The predicate is not consulted: the process has run past the
// await, and a predicate may read captured variables that the program has
// changed since. reply then checks the step and the values.
func (ps *procState) scriptedCheck(start int) (holds, scripted bool) {
	if ps.played == len(ps.script) {
		return false, false
	}
	return ps.script[ps.played].step <= start, true
}

// waiter is one entry of a variable's waiter list: process id, listed when
// it parked on an await that reads the variable.
type waiter struct {
	id   int32
	park uint32
}

// Runner owns one simulated execution. It implements memmodel.Allocator
// for the setup phase; allocation after Start panics. All methods must be
// called from a single driver goroutine.
type Runner struct {
	cfg   Config
	mem   []uint64
	names []string
	homes []int32
	coh   *coherence
	procs []*procState
	accts []*Account
	// acctHist[id] holds the accounts of id's dead incarnations, oldest
	// first; accts[id] is always the current incarnation's account.
	acctHist [][]*Account

	started  bool
	steps    int
	nDone    int
	nCrashed int

	// closed is set by Close, which closes every incarnation's resp
	// channel; afterwards no Runner call may send on one. A plain bool
	// suffices — all Runner methods are confined to the single driver
	// goroutine — and unlike sync.Once it can be rearmed by Reset.
	closed bool
	// retired holds the incarnations Restart replaced; their goroutines
	// stay parked until Close closes their resp channels.
	retired []*procState
	wg      sync.WaitGroup

	// Step indexes, kept up to date as processes change state so that a
	// step scans no process list (TestStepIndexesMatchScan checks each
	// against a full scan). poisedIDs lists the schedulable processes in
	// ascending order; a status or stall change marks it dirty, and a
	// rebuild happens on next use. poisedOps is Poised()'s scratch.
	poisedIDs   []int
	poisedDirty bool
	poisedOps   []sched.PendingOp
	// waiters[v] lists the processes parked on an await that reads v. An
	// entry goes stale when its process wakes, crashes or is restarted;
	// stale entries are dropped when the list is next walked or compacted.
	waiters [][]waiter
	parks   uint32
	// nBarrier counts processes at a barrier, nFinite procStates under a
	// finite stall.
	nBarrier int
	nFinite  int

	awaitVals []uint64

	// rec, if non-nil, records the initial incarnations' responses
	// (Record); ahead and aheadSteps are the script RunAhead hands to them
	// at Start. diverged is the first failed response check; every later
	// Step returns it.
	rec        *Recording
	ahead      *Recording
	aheadSteps int
	diverged   *DivergenceError

	// handoffs and replayed are this execution's counts, added to the
	// package totals (ReadCounts) by Close.
	handoffs, replayed int64
	// outboxes holds the outbox buffers of a closed execution's processes,
	// which Reset keeps for the next execution's processes.
	outboxes [][]request
}

// stamped is one recorded response and the global step index at which the
// operation that produced it started.
type stamped struct {
	step int
	resp response
}

// Recording holds the responses every initial incarnation (the processes
// Start launches) received in one execution, each stamped with the global
// step that produced it. A sweep records its fault-free reference run
// (Record) and starts every faulty row from the part of the recording
// before the row's first fault (RunAhead). A Recording is read-only once
// its execution ends and may then be shared by concurrent executions.
type Recording struct {
	procs [][]stamped
}

// DivergenceError reports that a process answered an operation from its
// script differently from what the runner computed, or at another step
// than the recording's: the simulated program depends on something other
// than simulated memory, or the execution left the recorded one before
// the script ended. Step returns it, and keeps returning it, since the
// process has run ahead on the wrong answer.
type DivergenceError struct {
	// Proc is the process id.
	Proc int
	// Step is the global step index at which the operation started, and
	// RecordedStep the one at which it started in the recording.
	Step, RecordedStep int
	// Recorded and Computed render the two responses.
	Recorded, Computed string
}

func (e *DivergenceError) Error() string {
	return fmt.Sprintf("sim: p%d diverged from its script at step %d: recorded %s at step %d, computed %s",
		e.Proc, e.Step, e.Recorded, e.RecordedStep, e.Computed)
}

// Counts are simulator work totals: shared-memory steps, handoffs (one
// runner-process channel round trip each: a launch, a reply, or the
// answer to a section marker that flushed posted writes, each answered by
// the process's next send on req or its close), and replayed steps (steps
// of operations the process answered from its script).
type Counts struct {
	Steps    int64 `json:"steps"`
	Handoffs int64 `json:"handoffs"`
	Replayed int64 `json:"replayed_steps"`
}

// Sub returns c - o.
func (c Counts) Sub(o Counts) Counts {
	return Counts{Steps: c.Steps - o.Steps, Handoffs: c.Handoffs - o.Handoffs, Replayed: c.Replayed - o.Replayed}
}

var totals struct{ steps, handoffs, replayed atomic.Int64 }

// ReadCounts returns the totals of every runner closed so far in this
// process. A runner adds its counts once, at Close (or Reset).
func ReadCounts() Counts {
	return Counts{Steps: totals.steps.Load(), Handoffs: totals.handoffs.Load(), Replayed: totals.replayed.Load()}
}

// New returns a Runner with the given configuration.
func New(cfg Config) *Runner {
	return &Runner{cfg: cfg.withDefaults()}
}

// withDefaults fills cfg's zero-valued fields: write-through, round-robin,
// a 5,000,000-step budget.
func (cfg Config) withDefaults() Config {
	if cfg.Protocol == 0 {
		cfg.Protocol = WriteThrough
	}
	if cfg.Scheduler == nil {
		cfg.Scheduler = sched.NewRoundRobin()
	}
	if cfg.MaxSteps == 0 {
		cfg.MaxSteps = 5_000_000
	}
	return cfg
}

// Alloc implements memmodel.Allocator. The variable is homed in global
// memory (remote to every process under DSM).
func (r *Runner) Alloc(name string, init uint64) memmodel.Var {
	return r.AllocHome(name, init, -1)
}

// AllocHome implements memmodel.HomeAllocator: the variable resides in
// process home's memory segment under the DSM protocol (home < 0 means
// global memory). The CC protocols ignore homes.
func (r *Runner) AllocHome(name string, init uint64, home int) memmodel.Var {
	if r.started {
		panic("sim: Alloc after Start")
	}
	v := memmodel.Var(len(r.mem))
	r.mem = append(r.mem, init)
	r.names = append(r.names, name)
	r.homes = append(r.homes, int32(home))
	return v
}

// AllocN implements memmodel.Allocator.
func (r *Runner) AllocN(name string, n int, init uint64) []memmodel.Var {
	vs := make([]memmodel.Var, n)
	for i := range vs {
		vs[i] = r.Alloc(name+"["+strconv.Itoa(i)+"]", init)
	}
	return vs
}

// AddProc registers a process with its program and returns its id.
// Processes must be added before Start.
func (r *Runner) AddProc(prog Program) int {
	if r.started {
		panic("sim: AddProc after Start")
	}
	id := len(r.procs)
	ps := newProcState(id, 0, prog)
	if n := len(r.outboxes); n > 0 {
		ps.outbox, r.outboxes = r.outboxes[n-1], r.outboxes[:n-1]
	}
	r.procs = append(r.procs, ps)
	r.accts = append(r.accts, newAccount(id, 0))
	return id
}

// NumProcs returns the number of registered processes.
func (r *Runner) NumProcs() int { return len(r.procs) }

// NumVars returns the number of allocated shared variables.
func (r *Runner) NumVars() int { return len(r.mem) }

// VarName returns the debug name a variable was allocated with.
func (r *Runner) VarName(v memmodel.Var) string { return r.names[v] }

// Value returns the current value of a shared variable, for assertions.
// This is a driver-side peek, not a model step: no RMR, no trace event.
func (r *Runner) Value(v memmodel.Var) uint64 { return r.mem[v] }

// StepCount returns the number of shared-memory steps executed so far.
func (r *Runner) StepCount() int { return r.steps }

// Account returns the cost account of process id's current incarnation.
func (r *Runner) Account(id int) *Account { return r.accts[id] }

// AccountsOf returns every incarnation's account for process id, oldest
// first (the last element is the current incarnation's account). Without
// restarts it is a one-element slice.
func (r *Runner) AccountsOf(id int) []*Account {
	if len(r.acctHist) == 0 || len(r.acctHist[id]) == 0 {
		return []*Account{r.accts[id]}
	}
	out := make([]*Account, 0, len(r.acctHist[id])+1)
	out = append(out, r.acctHist[id]...)
	return append(out, r.accts[id])
}

// Incarnation returns process id's current incarnation number: 0 until the
// first Restart, then incremented per restart.
func (r *Runner) Incarnation(id int) int { return r.procs[id].incarnation }

// Protocol returns the coherence protocol in effect.
func (r *Runner) Protocol() Protocol { return r.cfg.Protocol }

// Record makes the execution record the responses of the processes Start
// launches into rec, replacing its contents. Call it before Start.
func (r *Runner) Record(rec *Recording) { r.rec = rec }

// RunAhead starts every process Start launches with the responses rec
// recorded for it before global step steps: the process answers those
// operations itself and runs ahead to its state at that step in one
// handoff. Step still executes each operation for real and checks the
// response it computes against the recorded one (see DivergenceError).
// This is sound because simulated programs interact only through simulated
// memory: a program's requests are a function of the responses it got. An
// execution whose first steps-many steps repeat the recorded one then
// runs exactly as it would without a script. Call it before Start; steps 0
// gives every process an empty script.
func (r *Runner) RunAhead(rec *Recording, steps int) {
	r.ahead, r.aheadSteps = rec, steps
}

// Start launches all process goroutines and settles each at its first
// operation. It must be called exactly once, after allocation and AddProc.
func (r *Runner) Start() error {
	if r.started {
		return errors.New("sim: Start called twice")
	}
	if r.closed {
		return errAborted
	}
	r.started = true
	if r.coh == nil {
		r.coh = newCoherence(r.cfg.Protocol, len(r.procs), len(r.mem), r.homes)
	} else {
		r.coh.reset(r.cfg.Protocol, len(r.procs), len(r.mem), r.homes)
	}
	if cap(r.acctHist) >= len(r.procs) {
		r.acctHist = r.acctHist[:len(r.procs)]
		for i := range r.acctHist {
			r.acctHist[i] = nil
		}
	} else {
		r.acctHist = make([][]*Account, len(r.procs))
	}
	if cap(r.waiters) >= len(r.mem) {
		r.waiters = r.waiters[:len(r.mem)]
		for i := range r.waiters {
			r.waiters[i] = r.waiters[i][:0]
		}
	} else {
		r.waiters = make([][]waiter, len(r.mem))
	}
	if r.rec != nil {
		r.rec.procs = make([][]stamped, len(r.procs))
	}
	if r.ahead != nil {
		for id, ps := range r.procs {
			if id < len(r.ahead.procs) {
				s := r.ahead.procs[id]
				n, _ := slices.BinarySearchFunc(s, r.aheadSteps, func(e stamped, step int) int { return e.step - step })
				ps.script = s[:n]
			}
		}
	}
	// Each goroutine is settled before the next is launched, so at most
	// one is ever outside its resp receive: a driver panic here leaves
	// every launched goroutine abortable by Close.
	for _, ps := range r.procs {
		r.launch(ps)
		r.settle(ps)
	}
	return nil
}

// launch starts the goroutine running ps's program and hears its first
// handoff.
func (r *Runner) launch(ps *procState) {
	r.wg.Add(1)
	go func() {
		defer r.wg.Done()
		defer close(ps.req)
		defer func() {
			if v := recover(); v != nil && v != errAborted { //nolint:errorlint // sentinel identity
				panic(v)
			}
		}()
		ps.prog(&simProc{ps: ps})
	}()
	r.hear(ps)
}

// hear waits for ps's goroutine to hand off: to send on req, waiting for
// the reply to the last request in its outbox, or to close req on return.
// Afterwards the runner owns ps.outbox.
func (r *Runner) hear(ps *procState) {
	r.handoffs++
	_, ok := <-ps.req
	ps.exited = !ok
}

// answer replies to the request ps's goroutine waits on, returns the
// emptied outbox to it, and hears its next handoff: one round trip.
func (r *Runner) answer(ps *procState, resp response) {
	ps.outbox = ps.outbox[:0]
	ps.next = 0
	ps.resp <- resp
	r.hear(ps)
}

// Close aborts any still-running process goroutines and waits for them to
// exit. It is safe to call multiple times and after normal completion.
// Every live goroutine is parked receiving on its resp channel, or has
// exited (a program that finished inside its script, or after posting its
// last writes), so closing that channel is the abort; this covers
// incarnations retired by Restart.
// After Close, Start, Step, ReleaseBarrier and Restart return errAborted.
// The first Close adds the execution's counts to the package totals.
func (r *Runner) Close() {
	if !r.closed {
		r.closed = true
		totals.steps.Add(int64(r.steps))
		totals.handoffs.Add(r.handoffs)
		totals.replayed.Add(r.replayed)
		for _, ps := range r.procs {
			close(ps.resp)
		}
		for _, ps := range r.retired {
			close(ps.resp)
		}
		r.retired = r.retired[:0]
	}
	r.wg.Wait()
}

// Reset returns the Runner to the freshly-constructed state of New(cfg),
// reusing the memory, name, home, process, account-slice, coherence and
// scheduler-scratch buffers of the previous execution. It first Closes the
// current execution (aborting any still-running process goroutines), so a
// sweep can run thousands of short executions on one Runner without
// re-paying their dominant allocations.
//
// What Reset may reuse: every buffer whose contents are fully rebuilt by
// the next setup phase (Alloc/AddProc/Start) — the shared-memory array,
// variable names and homes, the coherence sharer/owner words, the procs
// and accts slices, and the poised/await scratch — and the processes'
// outbox buffers, whose goroutines Close saw exit. What it must NOT reuse:
// Account objects and procState channels, which escape into Reports and
// into process goroutines of the previous execution; those are always
// allocated fresh. Like every Runner method it must be called from the
// single driver goroutine.
func (r *Runner) Reset(cfg Config) {
	r.Close()
	for _, ps := range r.procs {
		r.outboxes = append(r.outboxes, ps.outbox[:0])
	}
	r.cfg = cfg.withDefaults()
	r.mem = r.mem[:0]
	r.names = r.names[:0]
	r.homes = r.homes[:0]
	r.procs = r.procs[:0]
	r.accts = r.accts[:0]
	r.started = false
	r.steps = 0
	r.nDone = 0
	r.nCrashed = 0
	r.closed = false
	r.parks = 0
	r.nBarrier = 0
	r.nFinite = 0
	r.poisedDirty = true
	r.rec, r.ahead, r.aheadSteps, r.diverged = nil, nil, 0, nil
	r.handoffs, r.replayed = 0, 0
	// r.wg is reusable as-is: Close waited for every previous goroutine,
	// so its counter is back to zero. r.coh, r.acctHist and r.waiters are
	// re-prepared by Start, which knows the new process/variable counts.
}

// settle advances process ps until it is poised at a shared-memory op,
// blocked at a barrier, or done, processing section transitions inline.
// It reads ps's requests from its outbox, which the last handoff filled.
// A handoff that waits for a reply ends the outbox with the request it
// waits on, so an outbox used up means the goroutine has exited: the
// process is done. A section marker that ends the outbox of a goroutine
// still running flushed posted writes, and is answered here.
func (r *Runner) settle(ps *procState) {
	for {
		if ps.next == len(ps.outbox) {
			if ps.status != statusDone {
				r.setStatus(ps, statusDone)
				r.nDone++
			}
			return
		}
		rq := ps.outbox[ps.next]
		ps.next++
		switch {
		case rq.section != 0:
			r.accts[ps.id].transition(rq.section)
			r.emit(trace.Event{
				Step:          r.steps,
				Proc:          ps.id,
				Var:           memmodel.NoVar,
				Section:       rq.section,
				SectionChange: true,
			})
			if ps.next == len(ps.outbox) && !ps.exited {
				r.answer(ps, response{})
			}
		case rq.barrier:
			r.setStatus(ps, statusBarrier)
			return
		default:
			ps.pending = rq
			r.setStatus(ps, statusPoised)
			return
		}
	}
}

// setStatus moves ps to status st, keeping nBarrier and the poised list up
// to date.
func (r *Runner) setStatus(ps *procState, st procStatus) {
	if ps.status == st {
		return
	}
	if ps.status == statusBarrier {
		r.nBarrier--
	}
	if st == statusBarrier {
		r.nBarrier++
	}
	ps.status = st
	r.poisedDirty = true
}

// refreshPoised rebuilds poisedIDs if a status or stall changed since the
// last rebuild.
func (r *Runner) refreshPoised() {
	if !r.poisedDirty {
		return
	}
	r.poisedDirty = false
	r.poisedIDs = r.poisedIDs[:0]
	for _, ps := range r.procs {
		if ps.status == statusPoised && !ps.stalled {
			r.poisedIDs = append(r.poisedIDs, ps.id)
		}
	}
}

// Done reports whether every process has completed its program.
func (r *Runner) Done() bool { return r.nDone == len(r.procs) }

// Terminated reports whether the execution can make no further steps for a
// benign reason: every process has either completed its program or been
// crash-stopped by the driver.
func (r *Runner) Terminated() bool { return r.nDone+r.nCrashed == len(r.procs) }

// Crash kills process id: the process takes no further shared-memory
// steps, regardless of its current state (poised, awaiting, or at a
// barrier). Its writes so far remain visible — a crash removes future
// steps only. Crashing a process that already finished, or crashing twice,
// is an error. Under the crash-stop model the process stays dead forever;
// under the crash-recovery model a driver later re-admits it with Restart
// (see DESIGN.md, "Fault model" and "Crash-recovery model").
func (r *Runner) Crash(id int) error {
	if id < 0 || id >= len(r.procs) {
		return fmt.Errorf("sim: Crash(%d): no such process", id)
	}
	ps := r.procs[id]
	switch ps.status {
	case statusDone:
		return fmt.Errorf("sim: Crash(%d): process already finished", id)
	case statusCrashed:
		return fmt.Errorf("sim: Crash(%d): process already crashed", id)
	}
	r.setStatus(ps, statusCrashed)
	r.unstall(ps) // a crash supersedes any injected stall
	r.nCrashed++
	return nil
}

// Restart re-admits crashed process id as a fresh incarnation running prog
// (typically a recovery section followed by the process's remaining work).
// The incarnation number increments, a fresh cost account opens (the dead
// incarnation's account moves to AccountsOf history), and the new
// incarnation starts with no cached copies: its first access to every
// variable is a miss, exactly as the crash-recovery model prescribes for a
// process whose local state was lost.
//
// The dead incarnation's goroutine stays parked at its interrupted
// operation until Close; it takes no further steps and its program's
// remaining effects never happen. Writes it posted that the runner had not
// executed yet are discarded with it, like the rest of its outbox.
// Restarting a process that is alive or finished is an error.
//
// A pending restart is progress potential: after Step returns a
// *NoProgressError (the watchdog's wedge verdict), the runner remains
// usable — a driver holding a scheduled restart applies it and resumes
// stepping, which is how fault.Drive turns crash-stop wedges into recovery
// opportunities when its plan schedules restarts.
func (r *Runner) Restart(id int, prog Program) error {
	if !r.started {
		return errors.New("sim: Restart before Start")
	}
	if r.closed {
		return errAborted
	}
	if id < 0 || id >= len(r.procs) {
		return fmt.Errorf("sim: Restart(%d): no such process", id)
	}
	old := r.procs[id]
	if old.status != statusCrashed {
		return fmt.Errorf("sim: Restart(%d): process is not crashed", id)
	}
	ps := newProcState(id, old.incarnation+1, prog)
	r.procs[id] = ps
	r.retired = append(r.retired, old)
	r.acctHist[id] = append(r.acctHist[id], r.accts[id])
	r.accts[id] = newAccount(id, ps.incarnation)
	r.coh.restart(id)
	r.nCrashed--
	r.launch(ps)
	r.settle(ps)
	return nil
}

// Stall pauses process id under the fail-slow fault model: the process
// keeps its pending operation (or its parked await) but takes no steps
// until the stall ends. duration >= 0 is the number of further global steps
// after which the stall expires on its own; a negative duration is
// indefinite and ends only through Resume. Unlike Crash, a stall removes no
// steps — the process continues exactly where it paused — and unlike a
// barrier it is driver-invisible to the program. When no other process can
// step, finite stalls are fast-forwarded (see Step): in the asynchronous
// model a delayed-but-alive process eventually takes its step, so a finite
// stall can never wedge an execution. Stalling a finished, crashed or
// already-stalled process is an error.
func (r *Runner) Stall(id, duration int) error {
	if id < 0 || id >= len(r.procs) {
		return fmt.Errorf("sim: Stall(%d): no such process", id)
	}
	ps := r.procs[id]
	switch ps.status {
	case statusDone:
		return fmt.Errorf("sim: Stall(%d): process already finished", id)
	case statusCrashed:
		return fmt.Errorf("sim: Stall(%d): process already crashed", id)
	}
	if ps.stalled {
		return fmt.Errorf("sim: Stall(%d): process already stalled", id)
	}
	ps.stalled = true
	ps.stalledAt = r.steps
	if duration < 0 {
		ps.stallUntil = -1
	} else {
		ps.stallUntil = r.steps + duration
		r.nFinite++
	}
	r.poisedDirty = true
	return nil
}

// unstall ends ps's stall, if any, keeping nFinite and the poised list up
// to date.
func (r *Runner) unstall(ps *procState) {
	if !ps.stalled {
		return
	}
	ps.stalled = false
	if ps.stallUntil >= 0 {
		r.nFinite--
	}
	r.poisedDirty = true
}

// Resume ends process id's injected stall, making it schedulable again.
func (r *Runner) Resume(id int) error {
	if id < 0 || id >= len(r.procs) {
		return fmt.Errorf("sim: Resume(%d): no such process", id)
	}
	ps := r.procs[id]
	if !ps.stalled {
		return fmt.Errorf("sim: Resume(%d): process is not stalled", id)
	}
	r.unstall(ps)
	return nil
}

// IsStalled reports whether process id is currently under an injected
// stall. Crashing a stalled process supersedes the stall.
func (r *Runner) IsStalled(id int) bool {
	ps := r.procs[id]
	return ps.stalled && ps.status != statusCrashed && ps.status != statusDone
}

// Stalled returns descriptors of the currently stalled live processes,
// ascending by process id.
func (r *Runner) Stalled() []StalledProc {
	var out []StalledProc
	for _, ps := range r.procs {
		if !r.IsStalled(ps.id) {
			continue
		}
		out = append(out, StalledProc{
			Proc:       ps.id,
			Section:    r.accts[ps.id].Section(),
			Indefinite: ps.stallUntil < 0,
			Since:      ps.stalledAt,
			ResumeAt:   ps.stallUntil,
		})
	}
	return out
}

// expireStalls clears finite stalls whose deadline has passed. It scans
// the processes only when a finite stall is pending.
func (r *Runner) expireStalls() {
	if r.nFinite == 0 {
		return
	}
	for _, ps := range r.procs {
		if ps.stalled && ps.stallUntil >= 0 && ps.stallUntil <= r.steps {
			r.unstall(ps)
		}
	}
}

// fastForwardStalls models the passage of time when no other process can
// step: the finite stalls with the earliest deadline expire immediately —
// only the order of resumptions is observable, and a delayed (non-crashed)
// process eventually steps. Indefinite stalls never fast-forward. Reports
// whether any stall was cleared.
func (r *Runner) fastForwardStalls() bool {
	if r.nFinite == 0 {
		return false
	}
	earliest := -1
	for _, ps := range r.procs {
		if ps.stalled && ps.stallUntil >= 0 && (earliest < 0 || ps.stallUntil < earliest) {
			earliest = ps.stallUntil
		}
	}
	if earliest < 0 {
		return false
	}
	for _, ps := range r.procs {
		if ps.stalled && ps.stallUntil == earliest {
			r.unstall(ps)
		}
	}
	return true
}

// Alive reports whether process id has neither finished its program nor
// been crash-stopped. A stalled process is alive: it will step again if
// resumed.
func (r *Runner) Alive(id int) bool {
	st := r.procs[id].status
	return st != statusDone && st != statusCrashed
}

// Crashed returns the ids of crash-stopped processes, ascending.
func (r *Runner) Crashed() []int {
	var out []int
	for _, ps := range r.procs {
		if ps.status == statusCrashed {
			out = append(out, ps.id)
		}
	}
	return out
}

// Poised returns the pending operations of all schedulable processes, in
// ascending process order. Stalled processes are not schedulable and are
// excluded, like crashed ones.
func (r *Runner) Poised() []sched.PendingOp {
	r.refreshPoised()
	r.poisedOps = r.poisedOps[:0]
	for _, id := range r.poisedIDs {
		r.poisedOps = append(r.poisedOps, r.procs[id].pendingOp())
	}
	return r.poisedOps
}

// PendingOf returns the pending operation of process id if it is currently
// poised, without scanning the whole population.
func (r *Runner) PendingOf(id int) (sched.PendingOp, bool) {
	ps := r.procs[id]
	if ps.status != statusPoised || ps.stalled {
		return sched.PendingOp{}, false
	}
	return ps.pendingOp(), true
}

// pendingOp renders ps's pending operation for the scheduler. A
// multi-variable await reports its first variable as Var.
func (ps *procState) pendingOp() sched.PendingOp {
	op := sched.PendingOp{
		Proc:        ps.id,
		Kind:        ps.pending.kind,
		Var:         ps.pending.v,
		Arg:         ps.pending.arg,
		CASExpected: ps.pending.exp,
	}
	if ps.pending.mpred != nil {
		op.Var = ps.pending.vars[0]
		op.Vars = ps.pending.vars
	}
	return op
}

// Awaiting returns the ids of processes currently parked on an await (not
// schedulable until one of their spin variables is invalidated).
func (r *Runner) Awaiting() []int {
	var out []int
	for _, ps := range r.procs {
		if ps.status == statusAwaiting {
			out = append(out, ps.id)
		}
	}
	return out
}

// IsAtBarrier reports whether process id is currently blocked at a
// Barrier, without scanning the whole population.
func (r *Runner) IsAtBarrier(id int) bool { return r.procs[id].status == statusBarrier }

// AtBarrier returns the ids of processes currently blocked at a Barrier.
func (r *Runner) AtBarrier() []int {
	var out []int
	for _, ps := range r.procs {
		if ps.status == statusBarrier {
			out = append(out, ps.id)
		}
	}
	return out
}

// ReleaseBarrier resumes a process blocked at a Barrier and settles it at
// its next operation.
func (r *Runner) ReleaseBarrier(id int) error {
	if r.closed {
		return errAborted
	}
	if id < 0 || id >= len(r.procs) {
		return fmt.Errorf("sim: ReleaseBarrier(%d): no such process", id)
	}
	ps := r.procs[id]
	if ps.status != statusBarrier {
		return fmt.Errorf("sim: process %d is not at a barrier", id)
	}
	r.answer(ps, response{})
	r.settle(ps)
	return nil
}

// Step executes one scheduled shared-memory step. It returns progressed ==
// false with a nil error when no step can be taken because every live
// process is done or barrier-blocked (the driver decides what to do next),
// a *NoProgressError (matching ErrNoProgress) when live processes exist
// but all are awaiting, and a *DivergenceError when a scripted response
// proved wrong (see RunAhead).
func (r *Runner) Step() (progressed bool, err error) {
	if !r.started {
		return false, errors.New("sim: Step before Start")
	}
	if r.closed {
		return false, errAborted
	}
	if r.diverged != nil {
		return false, r.diverged
	}
	if r.steps >= r.cfg.MaxSteps {
		return false, fmt.Errorf("%w (%d)", ErrMaxSteps, r.cfg.MaxSteps)
	}
	for {
		r.expireStalls()
		r.refreshPoised()
		if len(r.poisedIDs) > 0 {
			break
		}
		if r.Done() || r.Terminated() {
			return false, nil
		}
		if r.nBarrier > 0 {
			return false, nil // driver must release barriers
		}
		// Nothing else can step: time passes, so pending finite stalls
		// expire now (each pass clears at least one, so this terminates).
		if r.fastForwardStalls() {
			continue
		}
		return false, r.noProgress()
	}

	var pick int
	if oa, ok := r.cfg.Scheduler.(sched.OpAware); ok {
		pick = oa.NextOp(r.steps, r.Poised())
	} else {
		pick = r.cfg.Scheduler.Next(r.steps, r.poisedIDs)
	}
	if pick < 0 || pick >= len(r.procs) {
		return false, fmt.Errorf("sim: scheduler %q picked nonexistent process %d", r.cfg.Scheduler.Name(), pick)
	}
	ps := r.procs[pick]
	if ps.status != statusPoised {
		return false, fmt.Errorf("sim: scheduler %q picked non-poised process %d", r.cfg.Scheduler.Name(), pick)
	}
	start, scripted := r.steps, ps.played < len(ps.script)
	resp, completed := r.execute(ps)
	if scripted {
		r.replayed += int64(r.steps - start)
	}
	if completed {
		r.reply(ps, start, resp)
	}
	if r.diverged != nil {
		return false, r.diverged
	}
	return true, nil
}

// Run executes steps until all processes complete. It returns an error on
// deadlock, step-budget exhaustion, or a barrier stall (barriers require a
// staging driver that releases them).
func (r *Runner) Run() error {
	for {
		progressed, err := r.Step()
		if err != nil {
			return err
		}
		if !progressed {
			if r.Done() || r.Terminated() {
				return nil
			}
			return fmt.Errorf("sim: processes %v stalled at barriers under Run; use Step/ReleaseBarrier", r.AtBarrier())
		}
	}
}

// execute applies the pending operation of ps and emits its trace
// event(s), waking awaiters. It returns the operation's response, or
// completed == false when an await check failed and parked ps.
func (r *Runner) execute(ps *procState) (resp response, completed bool) {
	rq := ps.pending
	switch rq.kind {
	case memmodel.OpRead:
		rmr := r.coh.read(ps.id, rq.v)
		val := r.mem[rq.v]
		r.record(ps.id, trace.Event{
			Kind: memmodel.OpRead, Var: rq.v,
			Before: val, After: val, Trivial: true, RMR: rmr,
		})
		return response{val: val}, true

	case memmodel.OpWrite:
		before := r.mem[rq.v]
		rmr := r.coh.write(ps.id, rq.v)
		r.mem[rq.v] = rq.arg
		r.record(ps.id, trace.Event{
			Kind: memmodel.OpWrite, Var: rq.v, Arg: rq.arg,
			Before: before, After: rq.arg, Trivial: before == rq.arg, RMR: rmr,
		})
		r.wakeAwaiters(ps.id, rq.v)
		return response{}, true

	case memmodel.OpCAS:
		before := r.mem[rq.v]
		swapped := before == rq.exp
		trivial := !swapped || rq.arg == before
		var rmr bool
		if swapped && !trivial {
			rmr = r.coh.write(ps.id, rq.v)
			r.mem[rq.v] = rq.arg
		} else {
			rmr = r.coh.read(ps.id, rq.v)
		}
		r.record(ps.id, trace.Event{
			Kind: memmodel.OpCAS, Var: rq.v, Arg: rq.arg, CASExpected: rq.exp,
			Before: before, After: r.mem[rq.v], Swapped: swapped, Trivial: trivial, RMR: rmr,
		})
		if swapped && !trivial {
			r.wakeAwaiters(ps.id, rq.v)
		}
		return response{val: before, swapped: swapped}, true

	case memmodel.OpFetchAdd:
		before := r.mem[rq.v]
		after := before + rq.arg
		trivial := rq.arg == 0
		var rmr bool
		if trivial {
			rmr = r.coh.read(ps.id, rq.v)
		} else {
			rmr = r.coh.write(ps.id, rq.v)
			r.mem[rq.v] = after
		}
		r.record(ps.id, trace.Event{
			Kind: memmodel.OpFetchAdd, Var: rq.v, Arg: rq.arg,
			Before: before, After: after, Trivial: trivial, RMR: rmr,
		})
		if !trivial {
			r.wakeAwaiters(ps.id, rq.v)
		}
		return response{val: before}, true

	case memmodel.OpAwait:
		return r.executeAwait(ps)

	default:
		panic(fmt.Sprintf("sim: unknown op kind %v", rq.kind))
	}
}

// executeAwait performs one await check: it (re-)reads every spin variable
// (charging cache-refill RMRs for invalidated copies), evaluates the
// predicate, and either completes the await or parks the process again.
// Single-variable awaits (the hot path — every spin loop in the algorithm
// packages) run allocation-free; multi-awaits evaluate their predicate on
// a runner-owned scratch slice and copy it only when the await completes,
// because the returned values escape to the awaiting program.
func (r *Runner) executeAwait(ps *procState) (response, bool) {
	rq, start := ps.pending, r.steps
	if rq.mpred == nil {
		rmr := r.coh.read(ps.id, rq.v)
		val := r.mem[rq.v]
		r.record(ps.id, trace.Event{
			Kind: memmodel.OpAwait, Var: rq.v,
			Before: val, After: val, Trivial: true, RMR: rmr,
		})
		holds, scripted := ps.scriptedCheck(start)
		if !scripted {
			holds = rq.pred(val)
		}
		if holds {
			return response{val: val}, true
		}
		r.park(ps)
		return response{}, false
	}
	if cap(r.awaitVals) < len(rq.vars) {
		r.awaitVals = make([]uint64, len(rq.vars))
	}
	vals := r.awaitVals[:len(rq.vars)]
	for i, v := range rq.vars {
		rmr := r.coh.read(ps.id, v)
		vals[i] = r.mem[v]
		r.record(ps.id, trace.Event{
			Kind: memmodel.OpAwait, Var: v,
			Before: vals[i], After: vals[i], Trivial: true, RMR: rmr,
		})
	}
	holds, scripted := ps.scriptedCheck(start)
	if !scripted {
		holds = rq.mpred(vals)
	}
	if holds {
		out := make([]uint64, len(vals))
		copy(out, vals)
		return response{val: out[0], vals: out}, true
	}
	r.park(ps)
	return response{}, false
}

// park makes ps wait on its pending await and lists it once under each of
// its spin variables.
func (r *Runner) park(ps *procState) {
	r.setStatus(ps, statusAwaiting)
	r.parks++
	ps.park = r.parks
	if ps.pending.mpred == nil {
		r.listWaiter(ps, ps.pending.v)
		return
	}
	for i, v := range ps.pending.vars {
		if !slices.Contains(ps.pending.vars[:i], v) {
			r.listWaiter(ps, v)
		}
	}
}

// listWaiter appends ps to v's waiter list. A list that was never walked
// can fill with stale entries (a multi-await woken through another of its
// variables), so a list grown to twice the process count is first
// compacted to its live entries, at most one per process; the cost is
// amortized over the appends that filled it.
func (r *Runner) listWaiter(ps *procState, v memmodel.Var) {
	list := r.waiters[v]
	if len(list) >= 2*len(r.procs) {
		live := list[:0]
		for _, w := range list {
			if q := r.procs[w.id]; q.status == statusAwaiting && q.park == w.park {
				live = append(live, w)
			}
		}
		list = live
	}
	r.waiters[v] = append(list, waiter{id: int32(ps.id), park: ps.park})
}

// wakeAwaiters re-poises every process spinning on v after its cached copy
// was invalidated by writer's step. It visits only v's waiter list, and
// empties it: each listed process either spins on v and wakes now, or its
// entry is stale.
func (r *Runner) wakeAwaiters(writer int, v memmodel.Var) {
	for _, w := range r.waiters[v] {
		q := r.procs[w.id]
		if q.id == writer || q.status != statusAwaiting {
			continue
		}
		if q.pending.mpred == nil {
			if q.pending.v == v {
				r.setStatus(q, statusPoised)
			}
			continue
		}
		for _, av := range q.pending.vars {
			if av == v {
				r.setStatus(q, statusPoised)
				break
			}
		}
	}
	r.waiters[v] = r.waiters[v][:0]
}

// record finalizes an event's bookkeeping fields, updates the process
// account, and emits it.
func (r *Runner) record(proc int, e trace.Event) {
	e.Step = r.steps
	e.Proc = proc
	e.Section = r.accts[proc].Section()
	r.steps++
	r.accts[proc].recordStep(e.RMR)
	r.emit(e)
}

func (r *Runner) emit(e trace.Event) {
	if r.cfg.Observer != nil {
		r.cfg.Observer(e)
	}
}

// reply completes ps's pending operation, which started at global step
// start, and settles ps at its next one. It records the response if the
// execution is being recorded. Only the request the goroutine waits on,
// the last in its outbox, is answered. An operation the process answered
// from its script is checked instead: the process has already run past
// it, so the response and the step must be the recorded ones. A mismatch
// sets r.diverged and leaves ps where it is. A posted write needs neither.
func (r *Runner) reply(ps *procState, start int, resp response) {
	if r.rec != nil && ps.incarnation == 0 {
		kept := resp
		kept.vals = slices.Clone(resp.vals) // the program may modify its copy
		r.rec.procs[ps.id] = append(r.rec.procs[ps.id], stamped{step: start, resp: kept})
	}
	if ps.played < len(ps.script) {
		want := ps.script[ps.played]
		ps.played++
		if want.step != start || !want.resp.equal(resp) {
			r.diverged = &DivergenceError{Proc: ps.id, Step: start, RecordedStep: want.step,
				Recorded: want.resp.String(), Computed: resp.String()}
			return
		}
	} else if ps.next == len(ps.outbox) && !ps.exited {
		r.answer(ps, resp)
	}
	r.settle(ps)
}

// StuckProc describes one process the watchdog found blocked forever: the
// section it is stuck in and the spin variables (with their current values)
// whose invalidation it is waiting for.
type StuckProc struct {
	// Proc is the process id.
	Proc int
	// Section is the passage section the process is stuck in (the section
	// of its last step).
	Section memmodel.Section
	// Vars are the variables the pending await spins on.
	Vars []memmodel.Var
	// VarNames are the debug names of Vars.
	VarNames []string
	// Values are the variables' values at detection time.
	Values []uint64
	// Doomed marks a wedge attributable to a fault-injected peer: the
	// execution also contains crashed or injected-stalled processes, so the
	// process is blocked behind a victim that will never (or not by itself)
	// take the unblocking step — as opposed to an algorithmic deadlock
	// among live processes.
	Doomed bool
}

func (s StuckProc) String() string {
	var b strings.Builder
	verb := "blocked"
	if s.Doomed {
		verb = "doomed"
	}
	fmt.Fprintf(&b, "p%d %s in %s awaiting", s.Proc, verb, s.Section)
	for i, name := range s.VarNames {
		fmt.Fprintf(&b, " %s=%d", name, s.Values[i])
	}
	return b.String()
}

// StalledProc describes one process paused by fault injection at watchdog
// time (or via Runner.Stalled): where it is paused and how its stall ends.
type StalledProc struct {
	// Proc is the process id.
	Proc int
	// Section is the passage section the process is stalled in (the
	// section of its last step).
	Section memmodel.Section
	// Indefinite reports a stall that never expires on its own.
	Indefinite bool
	// Since is the global step index at which the stall was injected.
	Since int
	// ResumeAt is the global step index at which a finite stall expires;
	// meaningless when Indefinite.
	ResumeAt int
}

func (s StalledProc) String() string {
	if s.Indefinite {
		return fmt.Sprintf("p%d stalled in %s (indefinite, since step %d)", s.Proc, s.Section, s.Since)
	}
	return fmt.Sprintf("p%d stalled in %s (since step %d, resumes at step %d)",
		s.Proc, s.Section, s.Since, s.ResumeAt)
}

// NoProgressError is the watchdog's structured non-progress diagnostic:
// some processes have not finished, none has an enabled step, and no future
// step can unblock any of them (awaiting processes become schedulable only
// through another process's write). The diagnostic distinguishes three
// populations: injected-stalled processes (paused by the fail-slow fault
// driver — Stalled), processes blocked on an await (Stuck, with Doomed set
// when the wedge is attributable to crashed or stalled victims rather than
// an algorithmic deadlock), and crash-stopped processes (CrashedProcs). It
// matches ErrNoProgress under errors.Is.
//
// An empty Stuck with a non-empty Stalled means every non-victim process
// completed its program: the survivors are done and only indefinitely
// stalled victims remain — the benign outcome a fail-slow sweep accepts.
type NoProgressError struct {
	// Stuck lists the awaiting (non-stalled) processes, ascending by
	// process id.
	Stuck []StuckProc
	// Stalled lists the injected-stalled processes, ascending. Finite
	// stalls are fast-forwarded before the watchdog fires, so entries here
	// are indefinite except in pathological driver interleavings.
	Stalled []StalledProc
	// CrashedProcs lists crash-stopped processes (often the cause of the
	// hang), ascending.
	CrashedProcs []int
}

// Error implements error.
func (e *NoProgressError) Error() string {
	var b strings.Builder
	b.WriteString(ErrNoProgress.Error())
	if len(e.CrashedProcs) > 0 {
		fmt.Fprintf(&b, " (crashed: %v)", e.CrashedProcs)
	}
	for _, s := range e.Stalled {
		b.WriteString("\n  ")
		b.WriteString(s.String())
	}
	for _, s := range e.Stuck {
		b.WriteString("\n  ")
		b.WriteString(s.String())
	}
	return b.String()
}

// Is reports a match for ErrNoProgress.
func (e *NoProgressError) Is(target error) bool {
	return target == ErrNoProgress //nolint:errorlint // sentinel identity
}

// noProgress builds the structured watchdog diagnostic.
func (r *Runner) noProgress() *NoProgressError {
	e := &NoProgressError{CrashedProcs: r.Crashed(), Stalled: r.Stalled()}
	doomed := len(e.CrashedProcs) > 0 || len(e.Stalled) > 0
	var ids []int
	for _, ps := range r.procs {
		if ps.status == statusAwaiting && !ps.stalled {
			ids = append(ids, ps.id)
		}
	}
	sort.Ints(ids)
	for _, id := range ids {
		ps := r.procs[id]
		s := StuckProc{Proc: id, Section: r.accts[id].Section(), Doomed: doomed}
		spinVars := ps.pending.vars
		if ps.pending.mpred == nil {
			spinVars = []memmodel.Var{ps.pending.v}
		}
		for _, v := range spinVars {
			s.Vars = append(s.Vars, v)
			s.VarNames = append(s.VarNames, r.names[v])
			s.Values = append(s.Values, r.mem[v])
		}
		e.Stuck = append(e.Stuck, s)
	}
	return e
}
