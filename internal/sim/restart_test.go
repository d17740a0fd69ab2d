package sim

import (
	"errors"
	"testing"

	"repro/internal/memmodel"
)

// driveToWedge steps r until it returns a *NoProgressError, failing the test
// on any other outcome.
func driveToWedge(t *testing.T, r *Runner) *NoProgressError {
	t.Helper()
	for {
		progressed, err := r.Step()
		if err != nil {
			var npe *NoProgressError
			if !errors.As(err, &npe) {
				t.Fatalf("Step: %v", err)
			}
			return npe
		}
		if !progressed {
			t.Fatal("execution quiesced without wedging")
		}
	}
}

// TestRestartBasic: a crashed process is re-admitted with a fresh program,
// a bumped incarnation number, and a fresh account; the execution that was
// wedged on the crash completes after the restart.
func TestRestartBasic(t *testing.T) {
	r := New(Config{})
	v := r.Alloc("v", 0)
	r.AddProc(func(p Proc) {
		p.Await(v, func(x uint64) bool { return x == 1 })
	})
	r.AddProc(func(p Proc) {
		p.Read(v) // crashed before the write below ever runs
		p.Barrier()
		p.Write(v, 1)
	})
	if err := r.Start(); err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	// Let p1's read execute, then crash it at the barrier.
	for !r.IsAtBarrier(1) {
		if _, err := r.Step(); err != nil {
			t.Fatal(err)
		}
	}
	if err := r.Crash(1); err != nil {
		t.Fatal(err)
	}
	driveToWedge(t, r)

	if got := r.Incarnation(1); got != 0 {
		t.Errorf("incarnation before restart = %d, want 0", got)
	}
	preRMR := r.Account(1).TotalRMR
	if err := r.Restart(1, func(p Proc) { p.Write(v, 1) }); err != nil {
		t.Fatal(err)
	}
	if got := r.Incarnation(1); got != 1 {
		t.Errorf("incarnation after restart = %d, want 1", got)
	}
	if err := r.Run(); err != nil {
		t.Fatal(err)
	}
	if !r.Done() {
		t.Fatal("not done after restart")
	}
	if r.Value(v) != 1 {
		t.Errorf("v = %d, want 1", r.Value(v))
	}
	// Per-incarnation accounts: the dead incarnation's costs are preserved
	// in history, the new incarnation starts from zero.
	accts := r.AccountsOf(1)
	if len(accts) != 2 {
		t.Fatalf("AccountsOf(1) has %d accounts, want 2", len(accts))
	}
	if accts[0].Incarnation != 0 || accts[1].Incarnation != 1 {
		t.Errorf("incarnation tags = %d,%d, want 0,1", accts[0].Incarnation, accts[1].Incarnation)
	}
	if accts[0].TotalRMR != preRMR {
		t.Errorf("dead incarnation RMR = %d, want %d", accts[0].TotalRMR, preRMR)
	}
	if accts[1] != r.Account(1) {
		t.Error("last AccountsOf element is not the current account")
	}
	// A process never restarted has a one-element history.
	if got := len(r.AccountsOf(0)); got != 1 {
		t.Errorf("AccountsOf(0) has %d accounts, want 1", got)
	}
}

// TestRestartColdCache: the new incarnation's first read of a variable its
// dead incarnation had cached is a miss (one RMR).
func TestRestartColdCache(t *testing.T) {
	for _, proto := range []Protocol{WriteThrough, WriteBack} {
		t.Run(proto.String(), func(t *testing.T) {
			r := New(Config{Protocol: proto})
			v := r.Alloc("v", 7)
			r.AddProc(func(p Proc) {
				p.Read(v) // warm the cache
				p.Barrier()
			})
			if err := r.Start(); err != nil {
				t.Fatal(err)
			}
			defer r.Close()
			for !r.IsAtBarrier(0) {
				if _, err := r.Step(); err != nil {
					t.Fatal(err)
				}
			}
			if err := r.Crash(0); err != nil {
				t.Fatal(err)
			}
			if err := r.Restart(0, func(p Proc) {
				p.Read(v)
				p.Read(v)
			}); err != nil {
				t.Fatal(err)
			}
			if err := r.Run(); err != nil {
				t.Fatal(err)
			}
			// First read misses (cold cache), second hits.
			if got := r.Account(0).TotalRMR; got != 1 {
				t.Errorf("restarted incarnation RMR = %d, want 1 (cold first read, warm second)", got)
			}
		})
	}
}

// TestRestartErrors: restarting an alive, finished, or nonexistent process
// is an error, as is restarting before Start.
func TestRestartErrors(t *testing.T) {
	t.Run("before start", func(t *testing.T) {
		r := New(Config{})
		r.AddProc(func(p Proc) {})
		if err := r.Restart(0, func(p Proc) {}); err == nil {
			t.Error("Restart before Start did not error")
		}
	})
	t.Run("alive, finished, out of range", func(t *testing.T) {
		r := New(Config{})
		v := r.Alloc("v", 0)
		r.AddProc(func(p Proc) { p.Read(v) })
		r.AddProc(func(p Proc) {
			p.Await(v, func(x uint64) bool { return x == 1 })
		})
		if err := r.Start(); err != nil {
			t.Fatal(err)
		}
		defer r.Close()
		if err := r.Restart(1, func(p Proc) {}); err == nil {
			t.Error("Restart of alive process did not error")
		}
		if err := r.Restart(2, func(p Proc) {}); err == nil {
			t.Error("Restart of nonexistent process did not error")
		}
		// Run p0 to completion (p1 spins forever; crash it to terminate).
		if err := r.Crash(1); err != nil {
			t.Fatal(err)
		}
		if err := r.Run(); err != nil {
			t.Fatal(err)
		}
		if err := r.Restart(0, func(p Proc) {}); err == nil {
			t.Error("Restart of finished process did not error")
		}
	})
}

// TestCrashWhileAwaiting: a process crashed while parked in Await stays
// dead — a later write to its spin variable must not wake it.
func TestCrashWhileAwaiting(t *testing.T) {
	r := New(Config{})
	v := r.Alloc("v", 0)
	done := r.Alloc("done", 0)
	r.AddProc(func(p Proc) {
		p.Await(v, func(x uint64) bool { return x == 1 })
		p.Write(done, 1) // must never execute
	})
	r.AddProc(func(p Proc) {
		p.Barrier()
		p.Write(v, 1)
	})
	if err := r.Start(); err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	// Drive p0 into its parked await (its initial check is a poised step).
	for len(r.Awaiting()) == 0 {
		if _, err := r.Step(); err != nil {
			t.Fatal(err)
		}
	}
	if err := r.Crash(0); err != nil {
		t.Fatal(err)
	}
	if err := r.ReleaseBarrier(1); err != nil {
		t.Fatal(err)
	}
	for {
		progressed, err := r.Step()
		if err != nil {
			t.Fatal(err)
		}
		if !progressed {
			break
		}
	}
	if !r.Terminated() {
		t.Fatal("not terminated")
	}
	if r.Value(done) != 0 {
		t.Error("crashed process took a step after the crash")
	}
}

// TestCrashAtBarrier: a process crashed while blocked at a barrier cannot
// be released; restart re-admits it.
func TestCrashAtBarrier(t *testing.T) {
	r := New(Config{})
	v := r.Alloc("v", 0)
	r.AddProc(func(p Proc) {
		p.Barrier()
		p.Write(v, 99) // dead incarnation's tail: must never run
	})
	if err := r.Start(); err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if got := r.AtBarrier(); len(got) != 1 || got[0] != 0 {
		t.Fatalf("AtBarrier = %v", got)
	}
	if err := r.Crash(0); err != nil {
		t.Fatal(err)
	}
	if err := r.ReleaseBarrier(0); err == nil {
		t.Error("ReleaseBarrier on crashed process did not error")
	}
	if got := r.AtBarrier(); len(got) != 0 {
		t.Errorf("crashed process still reported at barrier: %v", got)
	}
	if err := r.Restart(0, func(p Proc) { p.Write(v, 1) }); err != nil {
		t.Fatal(err)
	}
	if err := r.Run(); err != nil {
		t.Fatal(err)
	}
	if r.Value(v) != 1 {
		t.Errorf("v = %d, want 1", r.Value(v))
	}
}

// TestDoubleCrash: crashing the same process twice is an error and does not
// corrupt the crashed-process count.
func TestDoubleCrash(t *testing.T) {
	r := New(Config{})
	v := r.Alloc("v", 0)
	r.AddProc(func(p Proc) {
		p.Await(v, func(x uint64) bool { return x == 1 })
	})
	if err := r.Start(); err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if err := r.Crash(0); err != nil {
		t.Fatal(err)
	}
	if err := r.Crash(0); err == nil {
		t.Error("double crash did not error")
	}
	if got := r.Crashed(); len(got) != 1 {
		t.Errorf("Crashed = %v, want [0]", got)
	}
	if !r.Terminated() {
		t.Error("Terminated should hold with the only process crashed")
	}
}

// TestCrashRestartCrash: one process can be crashed, restarted, and crashed
// again; each incarnation gets its own account and a second restart works.
func TestCrashRestartCrash(t *testing.T) {
	r := New(Config{})
	v := r.Alloc("v", 0)
	r.AddProc(func(p Proc) {
		for {
			p.Read(v)
		}
	})
	if err := r.Start(); err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	spin := func(p Proc) {
		for {
			p.Read(v)
		}
	}
	for want := 1; want <= 2; want++ {
		if _, err := r.Step(); err != nil {
			t.Fatal(err)
		}
		if err := r.Crash(0); err != nil {
			t.Fatalf("crash #%d: %v", want, err)
		}
		if err := r.Restart(0, spin); err != nil {
			t.Fatalf("restart #%d: %v", want, err)
		}
		if got := r.Incarnation(0); got != want {
			t.Errorf("incarnation = %d, want %d", got, want)
		}
	}
	accts := r.AccountsOf(0)
	if len(accts) != 3 {
		t.Fatalf("AccountsOf has %d accounts, want 3", len(accts))
	}
	for i, a := range accts {
		if a.Incarnation != i {
			t.Errorf("accts[%d].Incarnation = %d", i, a.Incarnation)
		}
	}
	// Terminate the still-spinning third incarnation.
	if err := r.Crash(0); err != nil {
		t.Fatal(err)
	}
}

// TestRestartAfterWedgeResumesStepping: Step is re-callable after a
// *NoProgressError once a restart supplies the missing progress.
func TestRestartAfterWedgeResumesStepping(t *testing.T) {
	r := New(Config{})
	v := r.Alloc("v", 0)
	r.AddProc(func(p Proc) {
		p.Await(v, func(x uint64) bool { return x == 1 })
	})
	r.AddProc(func(p Proc) {
		p.Read(v)
		p.Barrier() // crash point; the write below never happens
		p.Write(v, 1)
	})
	if err := r.Start(); err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	for !r.IsAtBarrier(1) {
		if _, err := r.Step(); err != nil {
			t.Fatal(err)
		}
	}
	if err := r.Crash(1); err != nil {
		t.Fatal(err)
	}
	npe := driveToWedge(t, r)
	if len(npe.CrashedProcs) != 1 || npe.CrashedProcs[0] != 1 {
		t.Errorf("CrashedProcs = %v, want [1]", npe.CrashedProcs)
	}
	if err := r.Restart(1, func(p Proc) { p.Write(v, 1) }); err != nil {
		t.Fatal(err)
	}
	if err := r.Run(); err != nil {
		t.Fatalf("Run after restart: %v", err)
	}
	if !r.Done() {
		t.Fatal("not done")
	}
}

// TestRestartSectionAccounting: a restarted incarnation's recovery-section
// costs land in SecRecover of its own account, and a passage resumed at the
// CS still closes and is recorded.
func TestRestartSectionAccounting(t *testing.T) {
	r := New(Config{})
	v := r.Alloc("v", 0)
	r.AddProc(func(p Proc) {
		p.Section(memmodel.SecEntry)
		p.Write(v, 1)
		p.Barrier() // crash inside the entry section
		p.Section(memmodel.SecCS)
		p.Section(memmodel.SecExit)
		p.Section(memmodel.SecRemainder)
	})
	if err := r.Start(); err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	for !r.IsAtBarrier(0) {
		if _, err := r.Step(); err != nil {
			t.Fatal(err)
		}
	}
	if err := r.Crash(0); err != nil {
		t.Fatal(err)
	}
	if got := r.Account(0).Section(); got != memmodel.SecEntry {
		t.Fatalf("crash section = %v, want entry", got)
	}
	if err := r.Restart(0, func(p Proc) {
		p.Section(memmodel.SecRecover)
		p.Read(v) // repair step: charged to the recovery section
		p.Section(memmodel.SecCS)
		p.Write(v, 2)
		p.Section(memmodel.SecExit)
		p.Section(memmodel.SecRemainder)
	}); err != nil {
		t.Fatal(err)
	}
	if err := r.Run(); err != nil {
		t.Fatal(err)
	}
	a := r.Account(0)
	if a.SectionRMR[memmodel.SecRecover] != 1 {
		t.Errorf("SecRecover RMR = %d, want 1", a.SectionRMR[memmodel.SecRecover])
	}
	if len(a.Passages) != 1 {
		t.Fatalf("restarted incarnation recorded %d passages, want 1", len(a.Passages))
	}
	// The resumed passage opened at the CS: zero entry cost by construction.
	if p := a.Passages[0]; p.EntrySteps != 0 || p.CSSteps != 1 {
		t.Errorf("resumed passage = %+v, want 0 entry steps, 1 CS step", p)
	}
	// The dead incarnation never completed a passage.
	if got := len(r.AccountsOf(0)[0].Passages); got != 0 {
		t.Errorf("dead incarnation recorded %d passages, want 0", got)
	}
}
