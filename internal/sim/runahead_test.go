package sim

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/memmodel"
	"repro/internal/sched"
	"repro/internal/trace"
)

// oracleRun is what one execution of the run-ahead oracle shows: its trace
// events (section changes included), every incarnation's account, the
// errors its steps returned, its final memory, and whether it ended done
// and terminated.
type oracleRun struct {
	events     []trace.Event
	accounts   [][]*Account
	stepErrs   []string
	mem        []uint64
	done, term bool
	counts     Counts
}

// oracleExecution runs one seeded random execution of wl: random
// crashes, restarts, finite and indefinite stalls, resumes and barrier
// releases between steps, as in TestStepIndexesMatchScan. The driver
// actions come from a generator seeded with seed until the step count
// first reaches fork, and from one seeded with fork from then on, so
// executions with the same seed agree up to step fork and may differ
// after it (fork < 0 never forks). rec, if non-nil, records the execution;
// script, if non-nil, starts it with script's responses from before step
// fork.
func oracleExecution(t *testing.T, wl indexWorkload, proto Protocol, seed int64, fork int, rec, script *Recording) oracleRun {
	t.Helper()
	var run oracleRun
	r := New(Config{
		Protocol:  proto,
		Scheduler: sched.NewRandom(seed),
		Observer:  func(e trace.Event) { run.events = append(run.events, e) },
	})
	rng := rand.New(rand.NewSource(seed))
	wl.build(r, rng)
	if rec != nil {
		r.Record(rec)
	}
	if script != nil {
		r.RunAhead(script, fork)
	}
	if err := r.Start(); err != nil {
		t.Fatal(err)
	}
	n := r.NumProcs()
	restarts := 0
	for action := 0; action < 3000 && !r.Terminated(); action++ {
		if fork >= 0 && r.StepCount() >= fork {
			rng, fork = rand.New(rand.NewSource(int64(fork)*7919+seed)), -1
		}
		id := rng.Intn(n)
		var err error
		switch k := rng.Intn(100); {
		case k < 2:
			if r.Alive(id) {
				err = r.Crash(id)
			}
		case k < 5:
			if restarts < 2*n && r.procs[id].status == statusCrashed {
				restarts++
				err = r.Restart(id, restartProgram(r, rng))
			}
		case k < 8:
			if r.Alive(id) && !r.procs[id].stalled {
				d := rng.Intn(25)
				if rng.Intn(4) == 0 {
					d = Forever
				}
				err = r.Stall(id, d)
			}
		case k < 11:
			if r.procs[id].stalled {
				err = r.Resume(id)
			}
		case k < 15:
			if ids := r.AtBarrier(); len(ids) > 0 {
				err = r.ReleaseBarrier(ids[rng.Intn(len(ids))])
			}
		default:
			if _, serr := r.Step(); serr != nil {
				run.stepErrs = append(run.stepErrs, fmt.Sprintf("step %d: %v", r.StepCount(), serr))
			}
		}
		if err != nil {
			t.Fatalf("action %d (step %d): %v", action, r.StepCount(), err)
		}
	}
	for id := 0; id < n; id++ {
		run.accounts = append(run.accounts, r.AccountsOf(id))
	}
	run.mem = slices.Clone(r.mem)
	run.done, run.term = r.Done(), r.Terminated()
	before := ReadCounts()
	r.Close()
	run.counts = ReadCounts().Sub(before)
	return run
}

// TestRunAheadMatchesLive is the oracle for run-ahead. For seeded random
// executions of several lock algorithms and a multi-await workload, under
// write-through, write-back and DSM, with crashes, restarts, stalls and
// barrier releases, it records a reference execution and then runs, for
// every prefix length k from 0 to the reference's step count, an
// execution that agrees with the reference up to step k and differs after
// it: first live, then started from the reference's script cut at k. The
// two must show identical event streams, accounts of every incarnation,
// step errors, and final Done/Terminated state.
func TestRunAheadMatchesLive(t *testing.T) {
	workloads := []indexWorkload{
		lockWorkload("af-log", func() memmodel.Algorithm { return core.New(core.FLog) }, 2, 2),
		lockWorkload("af-one", func() memmodel.Algorithm { return core.New(core.FOne) }, 2, 1),
		lockWorkload("centralized", func() memmodel.Algorithm { return baseline.NewCentralized() }, 2, 1),
		multiSpinWorkload,
	}
	seeds := 2
	if testing.Short() {
		seeds = 1
	}
	for _, wl := range workloads {
		for _, proto := range []Protocol{WriteThrough, WriteBack, DSM} {
			for seed := int64(1); seed <= int64(seeds); seed++ {
				t.Run(fmt.Sprintf("%s/%s/seed=%d", wl.name, proto, seed), func(t *testing.T) {
					rec := &Recording{}
					ref := oracleExecution(t, wl, proto, seed, -1, rec, nil)
					steps := int(ref.counts.Steps)
					var replayed int64
					for k := 0; k <= steps; k++ {
						live := oracleExecution(t, wl, proto, seed, k, nil, nil)
						ahead := oracleExecution(t, wl, proto, seed, k, nil, rec)
						compareRuns(t, k, live, ahead)
						replayed += ahead.counts.Replayed
					}
					if replayed == 0 {
						t.Fatal("no step was replayed from a script")
					}
				})
			}
		}
	}
}

func compareRuns(t *testing.T, k int, live, ahead oracleRun) {
	t.Helper()
	if !reflect.DeepEqual(live.stepErrs, ahead.stepErrs) {
		t.Fatalf("k=%d: step errors differ:\nlive:  %q\nahead: %q", k, live.stepErrs, ahead.stepErrs)
	}
	if len(live.events) != len(ahead.events) {
		t.Fatalf("k=%d: %d events live, %d with the script", k, len(live.events), len(ahead.events))
	}
	for i := range live.events {
		if !reflect.DeepEqual(live.events[i], ahead.events[i]) {
			t.Fatalf("k=%d: event %d differs:\nlive:  %+v\nahead: %+v", k, i, live.events[i], ahead.events[i])
		}
	}
	if !reflect.DeepEqual(live.accounts, ahead.accounts) {
		t.Fatalf("k=%d: accounts differ", k)
	}
	if !slices.Equal(live.mem, ahead.mem) {
		t.Fatalf("k=%d: final memory %v live, %v with the script", k, live.mem, ahead.mem)
	}
	if live.done != ahead.done || live.term != ahead.term {
		t.Fatalf("k=%d: done/terminated %v/%v live, %v/%v with the script", k, live.done, live.term, ahead.done, ahead.term)
	}
	if live.counts.Steps != ahead.counts.Steps {
		t.Fatalf("k=%d: %d steps live, %d with the script", k, live.counts.Steps, ahead.counts.Steps)
	}
	if ahead.counts.Handoffs > live.counts.Handoffs {
		t.Fatalf("k=%d: %d handoffs with the script, more than %d live", k, ahead.counts.Handoffs, live.counts.Handoffs)
	}
}

// sharedStateProgs builds a two-process execution in which p0 reads a Go
// variable that p1 sets: the programs talk outside simulated memory. Under
// round-robin p1 has set it by the time p0 reads it, but a p0 running
// ahead reads it before p1 has even started.
func sharedStateProgs(r *Runner) {
	x, y, z := r.Alloc("x", 0), r.Alloc("y", 0), r.Alloc("z", 0)
	shared := uint64(0)
	r.AddProc(func(p Proc) {
		p.Read(x)
		p.Read(x)
		p.Write(y, shared)
		p.Read(y)
	})
	r.AddProc(func(p Proc) {
		p.Write(z, 1)
		shared = 7
	})
}

// TestRunAheadDivergence: a program that reads Go state shared between
// processes makes Step return a *DivergenceError naming the process, the
// step, and both responses; Step keeps returning it, and Close still
// returns.
func TestRunAheadDivergence(t *testing.T) {
	rec := &Recording{}
	ref := New(Config{})
	sharedStateProgs(ref)
	ref.Record(rec)
	mustOK(t, ref.Start())
	mustOK(t, ref.Run())
	steps := ref.StepCount()
	ref.Close()

	r := New(Config{})
	defer r.Close()
	sharedStateProgs(r)
	r.RunAhead(rec, steps)
	mustOK(t, r.Start())
	err := r.Run()
	var de *DivergenceError
	if !errors.As(err, &de) {
		t.Fatalf("Run: %v, want a *DivergenceError", err)
	}
	if de.Proc != 0 || de.Step != 4 {
		t.Errorf("divergence at p%d step %d, want p0 step 4", de.Proc, de.Step)
	}
	for _, want := range []string{"p0", "step 4", "recorded val=7", "computed val=0"} {
		if !strings.Contains(de.Error(), want) {
			t.Errorf("%q does not mention %q", de.Error(), want)
		}
	}
	if _, err := r.Step(); !errors.As(err, &de) {
		t.Errorf("Step after the divergence: %v, want the *DivergenceError again", err)
	}
}

// TestCloseMidPrefix: Close in the middle of a scripted prefix aborts every
// goroutine: one parked on its response past its script, and one whose
// program finished inside its script and exited while the runner still
// holds its outbox. Close waits for every goroutine, so a missed abort
// hangs the test.
func TestCloseMidPrefix(t *testing.T) {
	build := func(r *Runner) {
		v := r.Alloc("v", 0)
		r.AddProc(func(p Proc) {
			p.Section(memmodel.SecEntry)
			p.Write(v, 1)
			p.Section(memmodel.SecRemainder)
		})
		r.AddProc(func(p Proc) {
			for i := 0; i < 6; i++ {
				p.FetchAdd(v, 1)
			}
		})
	}
	rec := &Recording{}
	ref := New(Config{Scheduler: sched.NewRoundRobin()})
	build(ref)
	ref.Record(rec)
	mustOK(t, ref.Start())
	mustOK(t, ref.Run())
	ref.Close()

	r := New(Config{Scheduler: sched.NewRoundRobin()})
	build(r)
	r.RunAhead(rec, 4) // p0's whole program, p1's first FetchAdds
	mustOK(t, r.Start())
	if ps := r.procs[0]; ps.status != statusPoised || len(ps.outbox)-ps.next != 1 {
		t.Fatalf("p0: status %d with %d requests unread, want its write poised and its last section unread", ps.status, len(ps.outbox)-ps.next)
	}
	if _, err := r.Step(); err != nil {
		t.Fatal(err)
	}
	r.Close()
	if _, err := r.Step(); !errors.Is(err, errAborted) {
		t.Errorf("Step after Close: %v, want errAborted", err)
	}
}

// TestRunAheadCounts: an execution run ahead over its whole length takes
// one handoff per process and replays every step; the same execution live
// takes a handoff per operation.
func TestRunAheadCounts(t *testing.T) {
	build := func(r *Runner) {
		v := r.Alloc("v", 0)
		for i := 0; i < 3; i++ {
			r.AddProc(func(p Proc) {
				p.Section(memmodel.SecEntry)
				p.FetchAdd(v, 1)
				p.Read(v)
				p.Section(memmodel.SecRemainder)
			})
		}
	}
	run := func(rec, script *Recording) Counts {
		r := New(Config{})
		build(r)
		if rec != nil {
			r.Record(rec)
		}
		if script != nil {
			r.RunAhead(script, 6)
		}
		mustOK(t, r.Start())
		mustOK(t, r.Run())
		before := ReadCounts()
		r.Close()
		r.Close() // counted once
		return ReadCounts().Sub(before)
	}
	rec := &Recording{}
	if got, want := run(rec, nil), (Counts{Steps: 6, Handoffs: 9}); got != want {
		t.Errorf("live counts %+v, want %+v", got, want)
	}
	if got, want := run(nil, rec), (Counts{Steps: 6, Handoffs: 3, Replayed: 6}); got != want {
		t.Errorf("run-ahead counts %+v, want %+v", got, want)
	}
}

// TestRunAheadStepDivergence: an execution that leaves the recorded one
// inside the script is caught by the step check even when every response
// agrees: recorded under round-robin, p0's second read came at step 2; run
// lowest-first it comes at step 1, with the same value.
func TestRunAheadStepDivergence(t *testing.T) {
	build := func(r *Runner) {
		x, y := r.Alloc("x", 0), r.Alloc("y", 0)
		r.AddProc(func(p Proc) {
			p.Read(x)
			p.Read(x)
		})
		r.AddProc(func(p Proc) { p.Read(y) })
	}
	rec := &Recording{}
	ref := New(Config{Scheduler: sched.NewRoundRobin()})
	build(ref)
	ref.Record(rec)
	mustOK(t, ref.Start())
	mustOK(t, ref.Run())
	ref.Close()

	r := New(Config{Scheduler: &sched.LowestFirst{}})
	defer r.Close()
	build(r)
	r.RunAhead(rec, 3)
	mustOK(t, r.Start())
	var de *DivergenceError
	if err := r.Run(); !errors.As(err, &de) {
		t.Fatalf("Run: %v, want a *DivergenceError", err)
	}
	if de.Proc != 0 || de.Step != 1 || de.RecordedStep != 2 || de.Recorded != de.Computed {
		t.Errorf("got %+v, want p0 at step 1 against step 2 with equal responses", de)
	}
}
