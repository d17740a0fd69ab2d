package sim

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/memmodel"
	"repro/internal/sched"
	"repro/internal/trace"
)

// The reference code below is the runner's former per-step scans over
// every process. The runner now keeps incremental indexes instead (the
// poised list, the per-variable waiter lists, the barrier and finite-stall
// counts); these scans are the independent oracle they are checked
// against.

// scanPoised lists the schedulable processes, ascending.
func scanPoised(r *Runner) []int {
	var out []int
	for _, ps := range r.procs {
		if ps.status == statusPoised && !ps.stalled {
			out = append(out, ps.id)
		}
	}
	return out
}

// scanPoisedOps renders the schedulable processes' pending operations,
// ascending.
func scanPoisedOps(r *Runner) []sched.PendingOp {
	var out []sched.PendingOp
	for _, ps := range r.procs {
		if ps.status != statusPoised || ps.stalled {
			continue
		}
		out = append(out, ps.pendingOp())
	}
	return out
}

// scanAtBarrier counts the processes blocked at a barrier.
func scanAtBarrier(r *Runner) int {
	n := 0
	for _, ps := range r.procs {
		if ps.status == statusBarrier {
			n++
		}
	}
	return n
}

// scanFiniteStalls counts the processes under a finite stall.
func scanFiniteStalls(r *Runner) int {
	n := 0
	for _, ps := range r.procs {
		if ps.stalled && ps.stallUntil >= 0 {
			n++
		}
	}
	return n
}

// scanDueStalls lists the processes whose finite stall is due: the former
// per-step scan cleared every one of them before each scheduling decision.
func scanDueStalls(r *Runner) []int {
	var out []int
	for _, ps := range r.procs {
		if ps.stalled && ps.stallUntil >= 0 && ps.stallUntil <= r.steps {
			out = append(out, ps.id)
		}
	}
	return out
}

// scanWakes returns the ids of the processes a write to v by writer wakes:
// every other process of procs awaiting on a spin set that contains v.
func scanWakes(procs []*procState, writer int, v memmodel.Var) []int {
	var out []int
	for _, q := range procs {
		if q.id == writer || q.status != statusAwaiting {
			continue
		}
		if q.pending.mpred == nil {
			if q.pending.v == v {
				out = append(out, q.id)
			}
			continue
		}
		for _, av := range q.pending.vars {
			if av == v {
				out = append(out, q.id)
				break
			}
		}
	}
	return out
}

// spinVars returns the variables ps's pending await reads.
func spinVars(ps *procState) []memmodel.Var {
	if ps.pending.mpred == nil {
		return []memmodel.Var{ps.pending.v}
	}
	return ps.pending.vars
}

// checkIndexes compares every incremental index of r with a full scan.
func checkIndexes(t *testing.T, r *Runner, where string) {
	t.Helper()
	r.refreshPoised()
	if got, want := r.poisedIDs, scanPoised(r); !reflect.DeepEqual(append([]int(nil), got...), want) {
		t.Fatalf("%s: poised list %v, scan %v", where, got, want)
	}
	if got, want := r.Poised(), scanPoisedOps(r); !reflect.DeepEqual(append([]sched.PendingOp(nil), got...), want) {
		t.Fatalf("%s: Poised() %+v, scan %+v", where, got, want)
	}
	if got, want := r.nBarrier, scanAtBarrier(r); got != want {
		t.Fatalf("%s: barrier count %d, scan %d", where, got, want)
	}
	for id, ps := range r.procs {
		if got, want := r.IsAtBarrier(id), ps.status == statusBarrier; got != want {
			t.Fatalf("%s: IsAtBarrier(%d) = %v, status %d", where, id, got, ps.status)
		}
	}
	if n := scanFiniteStalls(r); r.nFinite != n {
		t.Fatalf("%s: finite-stall count %d, scan %d", where, r.nFinite, n)
	}
	for _, ps := range r.procs {
		if ps.status != statusAwaiting {
			continue
		}
		for _, v := range spinVars(ps) {
			listed := false
			for _, w := range r.waiters[v] {
				if int(w.id) == ps.id && w.park == ps.park {
					listed = true
					break
				}
			}
			if !listed {
				t.Fatalf("%s: awaiting p%d is not listed under its spin variable %s", where, ps.id, r.names[v])
			}
		}
	}
	for v, list := range r.waiters {
		if len(list) > 2*len(r.procs) {
			t.Fatalf("%s: waiter list of %s holds %d entries for %d processes", where, r.names[v], len(list), len(r.procs))
		}
	}
}

// scanCheckSched is a seeded random scheduler that checks, at every
// decision, that the poised list it is handed equals a full scan taken
// after stall expiry. The op-aware variant checks the pending operations.
type scanCheckSched struct {
	t     *testing.T
	r     *Runner
	inner *sched.Random
}

func (s *scanCheckSched) Name() string { return "scan-check" }

func (s *scanCheckSched) Next(step int, poised []int) int {
	s.t.Helper()
	if want := scanPoised(s.r); !reflect.DeepEqual(append([]int(nil), poised...), want) {
		s.t.Fatalf("step %d: scheduler got poised %v, scan %v", step, poised, want)
	}
	s.checkExpired(step)
	return s.inner.Next(step, poised)
}

// checkExpired fails if a finite stall that is due survived into a
// scheduling decision.
func (s *scanCheckSched) checkExpired(step int) {
	s.t.Helper()
	if due := scanDueStalls(s.r); len(due) > 0 {
		s.t.Fatalf("step %d: the stalls of %v are due but still in force", step, due)
	}
}

type scanCheckOpSched struct{ *scanCheckSched }

func (s *scanCheckOpSched) NextOp(step int, poised []sched.PendingOp) int {
	s.t.Helper()
	if want := scanPoisedOps(s.r); !reflect.DeepEqual(append([]sched.PendingOp(nil), poised...), want) {
		s.t.Fatalf("step %d: scheduler got ops %+v, scan %+v", step, poised, want)
	}
	s.checkExpired(step)
	ids := make([]int, len(poised))
	for i, op := range poised {
		ids[i] = op.Proc
	}
	return s.inner.Next(step, ids)
}

// wakes reports whether event e invalidates its variable's cached copies,
// which is when the runner wakes the variable's awaiters.
func wakes(e trace.Event) bool {
	switch e.Kind {
	case memmodel.OpWrite:
		return true
	case memmodel.OpCAS:
		return e.Swapped && !e.Trivial
	case memmodel.OpFetchAdd:
		return !e.Trivial
	}
	return false
}

// indexWorkload builds one execution on r: its variables and processes.
type indexWorkload struct {
	name  string
	build func(r *Runner, rng *rand.Rand)
	// passages, if non-nil, is Go state the programs of the execution
	// last built keep: the number of passages each process has completed.
	passages []int
}

// lockWorkload runs three passages per process of a reader-writer lock,
// with a barrier in some critical sections. Each process counts its
// passages in Go state right after its remainder marker, which is a sync
// point for a write before it.
func lockWorkload(name string, mk func() memmodel.Algorithm, readers, writers int) indexWorkload {
	passages := make([]int, readers+writers)
	return indexWorkload{name: name, passages: passages, build: func(r *Runner, rng *rand.Rand) {
		clear(passages)
		alg := mk()
		if err := alg.Init(r, readers, writers); err != nil {
			panic(err)
		}
		for i := 0; i < readers+writers; i++ {
			i, barrier := i, rng.Intn(3) == 0
			r.AddProc(func(p Proc) {
				for k := 0; k < 3; k++ {
					p.Section(memmodel.SecEntry)
					if i < readers {
						alg.ReaderEnter(p, i)
					} else {
						alg.WriterEnter(p, i-readers)
					}
					p.Section(memmodel.SecCS)
					if barrier {
						p.Barrier()
					}
					p.Section(memmodel.SecExit)
					if i < readers {
						alg.ReaderExit(p, i)
					} else {
						alg.WriterExit(p, i-readers)
					}
					p.Section(memmodel.SecRemainder)
					passages[i]++
				}
			})
		}
	}}
}

// multiSpinWorkload has one process bump b many times before setting a,
// while the others wait on a three-entry multi-await over a and b (b
// listed twice): every bump wakes them through b, so a's waiter list
// fills with stale entries and must be compacted.
var multiSpinWorkload = indexWorkload{name: "multi-spin", build: func(r *Runner, rng *rand.Rand) {
	a := r.Alloc("a", 0)
	b := r.Alloc("b", 0)
	bumps := 20 + rng.Intn(20)
	r.AddProc(func(p Proc) {
		for i := 0; i < bumps; i++ {
			p.FetchAdd(b, 1)
		}
		p.Write(a, 1)
	})
	for i := 0; i < 3; i++ {
		r.AddProc(func(p Proc) {
			seen := uint64(0)
			for {
				vs := p.AwaitMulti([]memmodel.Var{a, b, b}, func(vs []uint64) bool {
					return vs[0] == 1 || vs[1] > seen
				})
				if vs[0] == 1 {
					return
				}
				seen = vs[1]
			}
		})
	}
}}

// restartProgram is a fresh incarnation's program: a few random reads and
// writes, and an await, over the execution's variables.
func restartProgram(r *Runner, rng *rand.Rand) Program {
	nv := r.NumVars()
	ops := make([][3]int, 1+rng.Intn(4))
	for i := range ops {
		ops[i] = [3]int{rng.Intn(3), rng.Intn(nv), rng.Intn(3)}
	}
	return func(p Proc) {
		p.Section(memmodel.SecRecover)
		for _, op := range ops {
			v, x := memmodel.Var(op[1]), uint64(op[2])
			switch op[0] {
			case 0:
				p.Read(v)
			case 1:
				p.Write(v, x)
			default:
				p.Await(v, func(y uint64) bool { return y == x })
			}
		}
		p.Section(memmodel.SecRemainder)
	}
}

// TestStepIndexesMatchScan is the independent oracle for the runner's
// incremental step indexes. It runs seeded random executions of several
// workloads, including multi-variable awaits, under random crashes,
// restarts, finite and indefinite stalls, resumes and barrier releases.
// After every driver action it compares each index with a full scan; at
// every scheduling decision it compares the poised list the scheduler is
// handed with a scan and checks that no due finite stall is still in
// force; and after every step it checks that exactly the awaiters of the
// variables the step wrote woke up.
func TestStepIndexesMatchScan(t *testing.T) {
	workloads := []indexWorkload{
		lockWorkload("af-log", func() memmodel.Algorithm { return core.New(core.FLog) }, 4, 3),
		lockWorkload("af-one", func() memmodel.Algorithm { return core.New(core.FOne) }, 3, 2),
		lockWorkload("centralized", func() memmodel.Algorithm { return baseline.NewCentralized() }, 3, 2),
		lockWorkload("phase-fair", func() memmodel.Algorithm { return baseline.NewPhaseFair() }, 3, 2),
		multiSpinWorkload,
	}
	seeds := 25
	if testing.Short() {
		seeds = 5
	}
	for _, wl := range workloads {
		for _, opAware := range []bool{false, true} {
			for seed := 1; seed <= seeds; seed++ {
				name := fmt.Sprintf("%s/opaware=%v/seed=%d", wl.name, opAware, seed)
				t.Run(name, func(t *testing.T) {
					indexExecution(t, wl, opAware, int64(seed))
				})
			}
		}
	}
}

func indexExecution(t *testing.T, wl indexWorkload, opAware bool, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	chk := &scanCheckSched{t: t, inner: sched.NewRandom(seed)}
	var s sched.Scheduler = chk
	if opAware {
		s = &scanCheckOpSched{chk}
	}
	var events []trace.Event
	protos := []Protocol{WriteThrough, WriteBack, DSM}
	r := New(Config{
		Protocol:  protos[rng.Intn(len(protos))],
		Scheduler: s,
		Observer:  func(e trace.Event) { events = append(events, e) },
	})
	defer r.Close()
	chk.r = r
	wl.build(r, rng)
	if err := r.Start(); err != nil {
		t.Fatal(err)
	}
	checkIndexes(t, r, "after Start")
	n := r.NumProcs()
	restarts := 0
	for action := 0; action < 4000; action++ {
		where := fmt.Sprintf("action %d (step %d)", action, r.StepCount())
		switch k := rng.Intn(100); {
		case k < 2:
			id := rng.Intn(n)
			if r.Alive(id) {
				if err := r.Crash(id); err != nil {
					t.Fatalf("%s: Crash(%d): %v", where, id, err)
				}
			}
		case k < 5:
			id := rng.Intn(n)
			if restarts < 3*n && !r.Alive(id) && r.procs[id].status == statusCrashed {
				restarts++
				if err := r.Restart(id, restartProgram(r, rng)); err != nil {
					t.Fatalf("%s: Restart(%d): %v", where, id, err)
				}
			}
		case k < 9:
			id := rng.Intn(n)
			if r.Alive(id) && !r.procs[id].stalled {
				d := rng.Intn(25)
				if rng.Intn(4) == 0 {
					d = Forever
				}
				if err := r.Stall(id, d); err != nil {
					t.Fatalf("%s: Stall(%d): %v", where, id, err)
				}
			}
		case k < 12:
			id := rng.Intn(n)
			if r.procs[id].stalled {
				if err := r.Resume(id); err != nil {
					t.Fatalf("%s: Resume(%d): %v", where, id, err)
				}
			}
		case k < 16:
			if ids := r.AtBarrier(); len(ids) > 0 {
				id := ids[rng.Intn(len(ids))]
				if err := r.ReleaseBarrier(id); err != nil {
					t.Fatalf("%s: ReleaseBarrier(%d): %v", where, id, err)
				}
			}
		default:
			if !indexStep(t, r, &events, where) {
				checkIndexes(t, r, where)
				if r.Terminated() {
					return
				}
				// Idle or wedged: let the fault actions above unblock it.
				continue
			}
		}
		checkIndexes(t, r, where)
	}
}

// indexStep takes one Step and checks its wake-ups against scanWakes run
// on a snapshot of the processes taken before the step. It reports whether
// the step progressed.
func indexStep(t *testing.T, r *Runner, events *[]trace.Event, where string) bool {
	t.Helper()
	snap := make([]*procState, len(r.procs))
	for i, ps := range r.procs {
		c := *ps
		snap[i] = &c
	}
	*events = (*events)[:0]
	progressed, err := r.Step()
	if err != nil {
		var npe *NoProgressError
		if !errors.As(err, &npe) {
			t.Fatalf("%s: Step: %v", where, err)
		}
		return false
	}
	if !progressed {
		return false
	}
	woken := map[int]bool{}
	for _, e := range *events {
		if wakes(e) {
			for _, id := range scanWakes(snap, e.Proc, e.Var) {
				woken[id] = true
			}
		}
	}
	for i, before := range snap {
		if before.status != statusAwaiting {
			continue
		}
		want := statusAwaiting
		if woken[i] {
			want = statusPoised
		}
		if got := r.procs[i].status; got != want {
			t.Fatalf("%s: awaiter p%d on %v has status %d after the step, want %d", where, i, spinVars(before), got, want)
		}
	}
	return true
}
