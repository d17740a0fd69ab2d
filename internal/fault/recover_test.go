package fault

import (
	"testing"

	"repro/internal/memmodel"
	"repro/internal/sim"
)

// TestDriveReleasesBarriers: Drive now runs staged executions, releasing
// barrier-parked processes when nothing else can step.
func TestDriveReleasesBarriers(t *testing.T) {
	r := sim.New(sim.Config{})
	flag := r.Alloc("flag", 0)
	r.AddProc(func(p sim.Proc) {
		p.Barrier() // released once p1 has parked in its Await
		p.Write(flag, 1)
	})
	r.AddProc(func(p sim.Proc) {
		p.Await(flag, func(x uint64) bool { return x == 1 })
	})
	if err := r.Start(); err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if _, err := Drive(r, Plan{}); err != nil {
		t.Fatalf("Drive: %v", err)
	}
	if !r.Terminated() {
		t.Error("staged execution did not terminate")
	}
}

// TestDriveCrashAtBarrier: a process crashed while barrier-parked stays
// dead; Drive must not try to release it.
func TestDriveCrashAtBarrier(t *testing.T) {
	r := sim.New(sim.Config{})
	v := r.Alloc("v", 0)
	r.AddProc(func(p sim.Proc) {
		p.Barrier()
		p.Write(v, 1)
	})
	r.AddProc(func(p sim.Proc) {
		p.Read(v)
		p.Read(v)
	})
	if err := r.Start(); err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if _, err := Drive(r, Plan{Crashes: []Point{{Victim: 0, Step: 0}}}); err != nil {
		t.Fatalf("Drive: %v", err)
	}
	if got := r.Value(v); got != 0 {
		t.Errorf("crashed process's write landed: v = %d", got)
	}
}

// recoverableProducer builds the crash-recovery fixture: p0 must write flag
// before p1's Await can pass. p0's restart program inspects flag (shared
// state survives the crash) and redoes the write only if it is missing.
func recoverableProducer(t *testing.T) (*sim.Runner, func(int) sim.Program, memmodel.Var) {
	t.Helper()
	r := sim.New(sim.Config{})
	flag := r.Alloc("flag", 0)
	scratch := r.Alloc("scratch", 0)
	r.AddProc(func(p sim.Proc) {
		p.Write(flag, 1)
		p.Write(scratch, 1)
	})
	r.AddProc(func(p sim.Proc) {
		p.Await(flag, func(x uint64) bool { return x == 1 })
	})
	if err := r.Start(); err != nil {
		t.Fatal(err)
	}
	prog := func(victim int) sim.Program {
		return func(p sim.Proc) {
			p.Section(memmodel.SecRecover)
			if p.Read(flag) == 0 {
				p.Write(flag, 1)
			}
			p.Write(scratch, 1)
		}
	}
	return r, prog, flag
}

// TestDriveRecoverUnwedges: the crash point that wedges the consumer under
// crash-stop (kill the producer before its first step) terminates cleanly
// under crash-recovery, because the restarted incarnation redoes the write.
func TestDriveRecoverUnwedges(t *testing.T) {
	for _, delay := range []int{0, 1, 5, 100} {
		r, prog, flag := recoverableProducer(t)
		ev, err := Drive(r, Plan{Restarts: []RestartPoint{{Victim: 0, Step: 0, Delay: delay}}, Recover: prog})
		events := ev.Restarts
		if err != nil {
			t.Fatalf("delay=%d: Drive: %v", delay, err)
		}
		if len(events) != 1 || !events[0].Crashed || !events[0].Restarted {
			t.Fatalf("delay=%d: events = %+v", delay, events)
		}
		if !r.Terminated() {
			t.Errorf("delay=%d: not terminated", delay)
		}
		if got := r.Value(flag); got != 1 {
			t.Errorf("delay=%d: flag = %d after recovery", delay, got)
		}
		if got := r.Incarnation(0); got != 1 {
			t.Errorf("delay=%d: incarnation = %d, want 1", delay, got)
		}
		r.Close()
	}
}

// TestDriveRecoverExhaustive crashes the producer at every boundary; every
// configuration must terminate with the flag written.
func TestDriveRecoverExhaustive(t *testing.T) {
	ref, _, _ := recoverableProducer(t)
	if err := ref.Run(); err != nil {
		t.Fatal(err)
	}
	total := ref.StepCount()
	ref.Close()
	for k := 0; k <= total; k++ {
		for _, delay := range []int{0, 2} {
			r, prog, flag := recoverableProducer(t)
			ev, err := Drive(r, Plan{Restarts: []RestartPoint{{Victim: 0, Step: k, Delay: delay}}, Recover: prog})
			events := ev.Restarts
			if err != nil {
				t.Fatalf("k=%d delay=%d: %v", k, delay, err)
			}
			if events[0].Crashed && !events[0].Restarted {
				t.Errorf("k=%d delay=%d: crash without restart", k, delay)
			}
			if got := r.Value(flag); got != 1 {
				t.Errorf("k=%d delay=%d: flag = %d", k, delay, got)
			}
			r.Close()
		}
	}
}

// TestDriveRecoverRecrash kills the restarted incarnation inside its
// recovery program; the third incarnation finishes the repair.
func TestDriveRecoverRecrash(t *testing.T) {
	r, prog, flag := recoverableProducer(t)
	defer r.Close()
	pts := []RestartPoint{
		{Victim: 0, Step: 0, Delay: 0},
		{Victim: 0, Step: 1, Delay: 0}, // lands in incarnation 1's recovery
	}
	ev, err := Drive(r, Plan{Restarts: pts, Recover: prog})
	events := ev.Restarts
	if err != nil {
		t.Fatalf("Drive: %v", err)
	}
	if !events[0].Crashed || !events[1].Crashed {
		t.Fatalf("events = %+v, want both crashes applied", events)
	}
	if events[1].CrashSection != memmodel.SecRecover {
		t.Errorf("second crash landed in %v, want SecRecover", events[1].CrashSection)
	}
	if got := r.Incarnation(0); got != 2 {
		t.Errorf("incarnation = %d, want 2", got)
	}
	if got := r.Value(flag); got != 1 {
		t.Errorf("flag = %d", got)
	}
	if accts := r.AccountsOf(0); len(accts) != 3 {
		t.Errorf("AccountsOf(0) has %d accounts, want 3", len(accts))
	}
}

// TestDriveRecoverMootPoint: a point firing after the victim finished is
// skipped and reported as neither crashed nor restarted.
func TestDriveRecoverMootPoint(t *testing.T) {
	r, prog, _ := recoverableProducer(t)
	defer r.Close()
	ev, err := Drive(r, Plan{Restarts: []RestartPoint{{Victim: 1, Step: 1 << 20, Delay: 0}}, Recover: prog})
	events := ev.Restarts
	if err != nil {
		t.Fatalf("Drive: %v", err)
	}
	if events[0].Crashed || events[0].Restarted {
		t.Errorf("moot point applied: %+v", events[0])
	}
}

// TestDriveRecoverStagedBarrier: a plan with no points releases barrier
// stages, as a crash-only plan does.
func TestDriveRecoverStagedBarrier(t *testing.T) {
	r := sim.New(sim.Config{})
	flag := r.Alloc("flag", 0)
	r.AddProc(func(p sim.Proc) {
		p.Barrier()
		p.Write(flag, 1)
	})
	r.AddProc(func(p sim.Proc) {
		p.Await(flag, func(x uint64) bool { return x == 1 })
	})
	if err := r.Start(); err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if _, err := Drive(r, Plan{}); err != nil {
		t.Fatalf("Drive: %v", err)
	}
	if !r.Terminated() {
		t.Error("staged execution did not terminate")
	}
}

// TestDriveRejectsRestartsWithoutRecover: a plan that schedules restarts
// but gives no recovery program is refused before the first step, rather
// than panicking on the nil program when the first restart comes due.
func TestDriveRejectsRestartsWithoutRecover(t *testing.T) {
	r, _, _ := recoverableProducer(t)
	defer r.Close()
	_, err := Drive(r, Plan{Restarts: []RestartPoint{{Victim: 0, Step: 0, Delay: 0}}})
	if err == nil {
		t.Fatal("Drive accepted restart points with a nil Recover")
	}
	if got := r.StepCount(); got != 0 {
		t.Errorf("StepCount = %d after the refused plan, want 0", got)
	}
	if got := r.Crashed(); len(got) != 0 {
		t.Errorf("Crashed = %v after the refused plan, want none", got)
	}
}
