package sim

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/memmodel"
	"repro/internal/sched"
	"repro/internal/trace"
)

func TestMisusePanics(t *testing.T) {
	t.Run("alloc after start", func(t *testing.T) {
		r := New(Config{})
		r.AddProc(func(p Proc) {})
		if err := r.Start(); err != nil {
			t.Fatal(err)
		}
		defer r.Close()
		defer func() {
			if recover() == nil {
				t.Error("Alloc after Start did not panic")
			}
		}()
		r.Alloc("late", 0)
	})
	t.Run("addproc after start", func(t *testing.T) {
		r := New(Config{})
		r.AddProc(func(p Proc) {})
		if err := r.Start(); err != nil {
			t.Fatal(err)
		}
		defer r.Close()
		defer func() {
			if recover() == nil {
				t.Error("AddProc after Start did not panic")
			}
		}()
		r.AddProc(func(p Proc) {})
	})
}

func TestStartTwiceErrors(t *testing.T) {
	r := New(Config{})
	r.AddProc(func(p Proc) {})
	if err := r.Start(); err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if err := r.Start(); err == nil {
		t.Error("second Start did not error")
	}
}

func TestStepBeforeStartErrors(t *testing.T) {
	r := New(Config{})
	if _, err := r.Step(); err == nil {
		t.Error("Step before Start did not error")
	}
}

func TestDeadlockMessageNamesVariables(t *testing.T) {
	r := New(Config{})
	v := r.Alloc("stuck-var", 42)
	r.AddProc(func(p Proc) {
		p.Await(v, func(x uint64) bool { return x == 0 })
	})
	if err := r.Start(); err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	err := r.Run()
	if !errors.Is(err, ErrNoProgress) {
		t.Fatalf("err = %v", err)
	}
	if !strings.Contains(err.Error(), "stuck-var=42") {
		t.Errorf("deadlock diagnostic %q lacks variable name and value", err)
	}
}

// TestWriteBackAwaitAccounting: under write-back a waiter's re-check after
// an invalidation costs one RMR (shared fetch), and the writer's repeated
// writes while holding exclusivity are free.
func TestWriteBackAwaitAccounting(t *testing.T) {
	r := New(Config{Protocol: WriteBack, Scheduler: sched.NewRoundRobin()})
	v := r.Alloc("v", 0)
	r.AddProc(func(p Proc) {
		p.Await(v, func(x uint64) bool { return x >= 3 })
	})
	r.AddProc(func(p Proc) {
		p.Write(v, 1) // RMR: acquire exclusive
		p.Write(v, 2) // free? No: the waiter re-checked after write 1,
		// taking a shared copy and downgrading us; this write re-upgrades.
		p.Write(v, 3)
	})
	if err := r.Start(); err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if err := r.Run(); err != nil {
		t.Fatal(err)
	}
	// Waiter: initial check (1 RMR) + up to 3 re-checks (1 RMR each).
	if got := r.Account(0).TotalRMR; got < 2 || got > 4 {
		t.Errorf("waiter RMR = %d, want in [2,4]", got)
	}
	// Writer: every write follows a waiter's shared re-fetch (round-robin
	// interleaves them), so each write re-upgrades: 3 RMRs.
	if got := r.Account(1).TotalRMR; got != 3 {
		t.Errorf("writer RMR = %d, want 3 (upgrade per write after downgrade)", got)
	}
}

// TestWriteBackQuietWriterKeepsExclusive: without a competing reader, a
// writer's stream of writes costs exactly one RMR.
func TestWriteBackQuietWriterKeepsExclusive(t *testing.T) {
	r := New(Config{Protocol: WriteBack})
	v := r.Alloc("v", 0)
	r.AddProc(func(p Proc) {
		for i := 1; i <= 10; i++ {
			p.Write(v, uint64(i))
		}
	})
	if err := r.Start(); err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if err := r.Run(); err != nil {
		t.Fatal(err)
	}
	if got := r.Account(0).TotalRMR; got != 1 {
		t.Errorf("TotalRMR = %d, want 1", got)
	}
}

// TestAwaitImmediatelySatisfied: an await whose predicate already holds
// completes in one step without parking.
func TestAwaitImmediatelySatisfied(t *testing.T) {
	r := New(Config{})
	v := r.Alloc("v", 5)
	r.AddProc(func(p Proc) {
		if got := p.Await(v, func(x uint64) bool { return x == 5 }); got != 5 {
			t.Errorf("Await = %d", got)
		}
	})
	if err := r.Start(); err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if err := r.Run(); err != nil {
		t.Fatal(err)
	}
	if got := r.Account(0).TotalSteps; got != 1 {
		t.Errorf("steps = %d, want 1", got)
	}
}

// TestMixedBarrierAndAwaitDeadlockDetection: barrier-parked processes do
// not mask an await deadlock; Step reports no-progress (barrier case)
// rather than deadlock while a barrier is pending.
func TestMixedBarrierAndAwait(t *testing.T) {
	r := New(Config{})
	v := r.Alloc("v", 0)
	r.AddProc(func(p Proc) {
		p.Await(v, func(x uint64) bool { return x == 1 })
	})
	r.AddProc(func(p Proc) {
		p.Barrier()
		p.Write(v, 1)
	})
	if err := r.Start(); err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	progressed, err := r.Step()
	// p0's initial await check is poised; run it down.
	for progressed && err == nil {
		progressed, err = r.Step()
	}
	if err != nil {
		t.Fatalf("unexpected error with a barrier pending: %v", err)
	}
	// Release the barrier; the write wakes p0 and everything finishes.
	if err := r.ReleaseBarrier(1); err != nil {
		t.Fatal(err)
	}
	if err := r.Run(); err != nil {
		t.Fatalf("Run after release: %v", err)
	}
	if !r.Done() {
		t.Fatal("not done")
	}
}

// TestSectionEventsCarryNoVar: section transitions are not steps and are
// marked accordingly.
func TestSectionEventsCarryNoVar(t *testing.T) {
	var rec trace.Recorder
	r := New(Config{Observer: rec.Observe})
	r.AddProc(func(p Proc) {
		p.Section(memmodel.SecEntry)
		p.Section(memmodel.SecRemainder)
	})
	if err := r.Start(); err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if err := r.Run(); err != nil {
		t.Fatal(err)
	}
	if r.StepCount() != 0 {
		t.Errorf("sections counted as steps: %d", r.StepCount())
	}
	for _, e := range rec.Events() {
		if !e.SectionChange || e.Var != memmodel.NoVar {
			t.Errorf("unexpected event %v", e)
		}
	}
}

// TestAccessorsSmoke covers the small introspection surface.
func TestAccessorsSmoke(t *testing.T) {
	r := New(Config{Protocol: WriteBack})
	v := r.Alloc("x", 1)
	r.AddProc(func(p Proc) {
		if p.ID() != 0 {
			t.Errorf("ID = %d", p.ID())
		}
		p.Read(v)
	})
	if r.NumProcs() != 1 || r.NumVars() != 1 || r.VarName(v) != "x" {
		t.Error("accessors wrong")
	}
	if r.Protocol() != WriteBack {
		t.Error("protocol wrong")
	}
	if err := r.Start(); err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if err := r.Run(); err != nil {
		t.Fatal(err)
	}
}

// TestSchedulerPanicOnBadPick: a scheduler returning a non-poised process
// is an error, not a hang.
func TestSchedulerBadPick(t *testing.T) {
	bad := badSched{}
	r := New(Config{Scheduler: bad})
	v := r.Alloc("v", 0)
	r.AddProc(func(p Proc) { p.Read(v) })
	if err := r.Start(); err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if _, err := r.Step(); err == nil {
		t.Error("bad scheduler pick not detected")
	}
}

type badSched struct{}

func (badSched) Name() string            { return "bad" }
func (badSched) Next(_ int, _ []int) int { return 99 }
