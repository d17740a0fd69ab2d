package sim

import (
	"errors"
	"testing"

	"repro/internal/memmodel"
	"repro/internal/sched"
	"repro/internal/trace"
)

// abortStates bring a two-process execution to a state in which a process
// goroutine is parked when the driver calls Close: p0 spins on v until p1
// writes it after a barrier.
var abortStates = []struct {
	name  string
	stage func(t *testing.T, r *Runner)
}{
	{"crashed", func(t *testing.T, r *Runner) {
		mustOK(t, r.Crash(1))
	}},
	{"restarted", func(t *testing.T, r *Runner) {
		// The retired incarnation stays parked at its barrier; the new
		// one parks at its first operation.
		mustOK(t, r.Crash(1))
		v := r.procs[0].pending.v
		mustOK(t, r.Restart(1, func(p Proc) { p.Read(v) }))
	}},
	{"stalled", func(t *testing.T, r *Runner) {
		mustOK(t, r.Stall(0, Forever))
	}},
	{"awaiting", func(t *testing.T, r *Runner) {
		if _, err := r.Step(); err != nil {
			t.Fatal(err)
		}
		if got := r.Awaiting(); len(got) != 1 || got[0] != 0 {
			t.Fatalf("Awaiting = %v, want [0]", got)
		}
	}},
	{"barrier", func(t *testing.T, r *Runner) {
		if !r.IsAtBarrier(1) {
			t.Fatal("p1 is not at its barrier")
		}
	}},
}

func mustOK(t *testing.T, err error) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
}

// TestCloseAbortsMidExecution: Close returns with a process goroutine
// parked in each state (Close waits for every goroutine, so a missed abort
// hangs the test rather than passing by timing). Afterwards Step,
// ReleaseBarrier and Restart report errAborted instead of sending on a
// closed channel, and a Reset runner runs byte-identically to a fresh one.
func TestCloseAbortsMidExecution(t *testing.T) {
	fresh := New(Config{Scheduler: sched.NewRoundRobin()})
	defer fresh.Close()
	want := spinPair(t, fresh)

	for _, st := range abortStates {
		t.Run(st.name, func(t *testing.T) {
			r := New(Config{Scheduler: &sched.LowestFirst{}})
			v := r.Alloc("v", 0)
			r.AddProc(func(p Proc) {
				p.Await(v, func(x uint64) bool { return x == 1 })
			})
			r.AddProc(func(p Proc) {
				p.Barrier()
				p.Write(v, 1)
			})
			mustOK(t, r.Start())
			st.stage(t, r)

			r.Close()
			if _, err := r.Step(); !errors.Is(err, errAborted) {
				t.Errorf("Step after Close: %v, want errAborted", err)
			}
			if err := r.ReleaseBarrier(1); !errors.Is(err, errAborted) {
				t.Errorf("ReleaseBarrier after Close: %v, want errAborted", err)
			}
			if err := r.Restart(1, func(Proc) {}); !errors.Is(err, errAborted) {
				t.Errorf("Restart after Close: %v, want errAborted", err)
			}
			r.Close() // a second Close is a no-op

			r.Reset(Config{Scheduler: sched.NewRoundRobin()})
			if got := spinPair(t, r); got != want {
				t.Fatalf("run after Close and Reset diverged:\n got: %s\nwant: %s", got, want)
			}
			r.Close()
		})
	}
}

// TestStartAfterCloseErrors: a runner closed before Start launches no
// goroutine and reports errAborted.
func TestStartAfterCloseErrors(t *testing.T) {
	r := New(Config{})
	r.AddProc(func(p Proc) {})
	r.Close()
	if err := r.Start(); !errors.Is(err, errAborted) {
		t.Errorf("Start after Close: %v, want errAborted", err)
	}
}

// TestCloseAfterPanicInStart: an Observer that panics while Start settles
// the second of three processes (on the section marker in its outbox)
// leaves the first two parked on their responses and the third never
// launched; Close must still abort both and return (a goroutine left
// blocked elsewhere would hang the test).
func TestCloseAfterPanicInStart(t *testing.T) {
	r := New(Config{Observer: func(e trace.Event) {
		if e.SectionChange && e.Proc == 1 {
			panic("observer")
		}
	}})
	v := r.Alloc("v", 0)
	for i := 0; i < 3; i++ {
		r.AddProc(func(p Proc) {
			p.Section(memmodel.SecEntry)
			p.Read(v)
		})
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("Start did not panic")
			}
		}()
		_ = r.Start()
	}()
	r.Close()
	if _, err := r.Step(); !errors.Is(err, errAborted) {
		t.Errorf("Step after Close: %v, want errAborted", err)
	}
}
