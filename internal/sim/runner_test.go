package sim

import (
	"errors"
	"testing"

	"repro/internal/memmodel"
	"repro/internal/sched"
	"repro/internal/trace"
)

// run builds a runner, adds the programs, runs to completion and returns
// it. It fails the test on any error.
func run(t *testing.T, cfg Config, alloc func(a memmodel.Allocator) interface{}, progs func(shared interface{}) []Program) *Runner {
	t.Helper()
	r := New(cfg)
	shared := alloc(r)
	for _, p := range progs(shared) {
		r.AddProc(p)
	}
	if err := r.Start(); err != nil {
		t.Fatalf("Start: %v", err)
	}
	t.Cleanup(r.Close)
	if err := r.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	return r
}

func TestSingleProcReadWriteRMRs(t *testing.T) {
	var v memmodel.Var
	r := run(t, Config{Protocol: WriteThrough},
		func(a memmodel.Allocator) interface{} { v = a.Alloc("v", 7); return nil },
		func(interface{}) []Program {
			return []Program{func(p Proc) {
				if got := p.Read(v); got != 7 {
					t.Errorf("Read = %d, want 7", got)
				}
				p.Read(v)     // cached: free
				p.Write(v, 9) // RMR
				p.Write(v, 9) // trivial but still an RMR under write-through
				if got := p.Read(v); got != 9 {
					t.Errorf("Read = %d, want 9", got)
				}
			}}
		})
	acct := r.Account(0)
	if acct.TotalSteps != 5 {
		t.Errorf("TotalSteps = %d, want 5", acct.TotalSteps)
	}
	// read(RMR) + read(free) + write(RMR) + write(RMR) + read(free)
	if acct.TotalRMR != 3 {
		t.Errorf("TotalRMR = %d, want 3", acct.TotalRMR)
	}
	if got := r.Value(v); got != 9 {
		t.Errorf("final value = %d, want 9", got)
	}
}

func TestWriteBackRepeatWritesFree(t *testing.T) {
	var v memmodel.Var
	r := run(t, Config{Protocol: WriteBack},
		func(a memmodel.Allocator) interface{} { v = a.Alloc("v", 0); return nil },
		func(interface{}) []Program {
			return []Program{func(p Proc) {
				p.Write(v, 1) // RMR: acquire exclusive
				p.Write(v, 2) // free
				p.Write(v, 3) // free
				p.Read(v)     // free
			}}
		})
	if got := r.Account(0).TotalRMR; got != 1 {
		t.Errorf("TotalRMR = %d, want 1 (exclusive writes are free)", got)
	}
}

func TestCASSemantics(t *testing.T) {
	var v memmodel.Var
	run(t, Config{},
		func(a memmodel.Allocator) interface{} { v = a.Alloc("v", 5); return nil },
		func(interface{}) []Program {
			return []Program{func(p Proc) {
				prev, ok := p.CAS(v, 4, 10)
				if ok || prev != 5 {
					t.Errorf("failed CAS: prev=%d ok=%v, want 5,false", prev, ok)
				}
				prev, ok = p.CAS(v, 5, 10)
				if !ok || prev != 5 {
					t.Errorf("successful CAS: prev=%d ok=%v, want 5,true", prev, ok)
				}
				if got := p.Read(v); got != 10 {
					t.Errorf("value after CAS = %d, want 10", got)
				}
			}}
		})
}

func TestFetchAddSemantics(t *testing.T) {
	var v memmodel.Var
	r := run(t, Config{},
		func(a memmodel.Allocator) interface{} { v = a.Alloc("v", 10); return nil },
		func(interface{}) []Program {
			return []Program{func(p Proc) {
				if prev := p.FetchAdd(v, 5); prev != 10 {
					t.Errorf("FetchAdd prev = %d, want 10", prev)
				}
				// Negative delta via two's complement.
				if prev := p.FetchAdd(v, ^uint64(0)); prev != 15 {
					t.Errorf("FetchAdd prev = %d, want 15", prev)
				}
			}}
		})
	if got := r.Value(v); got != 14 {
		t.Errorf("final value = %d, want 14", got)
	}
}

// TestAwaitLocalSpinAccounting verifies the local-spin RMR model: a waiter
// is charged one RMR for its initial read and one per invalidation-triggered
// re-check, regardless of how long it spins.
func TestAwaitLocalSpinAccounting(t *testing.T) {
	var flag, other memmodel.Var
	r := run(t, Config{Protocol: WriteThrough, Scheduler: sched.NewRoundRobin()},
		func(a memmodel.Allocator) interface{} {
			flag = a.Alloc("flag", 0)
			other = a.Alloc("other", 0)
			return nil
		},
		func(interface{}) []Program {
			waiter := func(p Proc) {
				got := p.Await(flag, func(x uint64) bool { return x == 3 })
				if got != 3 {
					t.Errorf("Await returned %d, want 3", got)
				}
			}
			writer := func(p Proc) {
				p.Write(other, 1) // unrelated write: must not wake the waiter
				p.Write(flag, 1)  // wakes waiter, pred false
				p.Write(flag, 2)  // wakes waiter, pred false
				p.Write(flag, 3)  // wakes waiter, pred true
			}
			return []Program{waiter, writer}
		})
	// Waiter: initial check (1 RMR) + three re-checks (1 RMR each) = 4.
	if got := r.Account(0).TotalRMR; got != 4 {
		t.Errorf("waiter TotalRMR = %d, want 4", got)
	}
	// The waiter's step count must be bounded by wake-ups, not spin time.
	if got := r.Account(0).TotalSteps; got != 4 {
		t.Errorf("waiter TotalSteps = %d, want 4", got)
	}
}

// TestAwaitCoalescedWrites verifies that multiple writes landing before the
// waiter is rescheduled cost it only one re-check.
func TestAwaitCoalescedWrites(t *testing.T) {
	var flag memmodel.Var
	// lowest-first runs the writer (p0) fully before the waiter (p1)
	// re-checks.
	r := run(t, Config{Scheduler: sched.LowestFirst{}},
		func(a memmodel.Allocator) interface{} { flag = a.Alloc("flag", 0); return nil },
		func(interface{}) []Program {
			writer := func(p Proc) {
				p.Write(flag, 1)
				p.Write(flag, 2)
				p.Write(flag, 3)
			}
			waiter := func(p Proc) {
				p.Await(flag, func(x uint64) bool { return x == 3 })
			}
			return []Program{writer, waiter}
		})
	// With writer first, the waiter's initial check may already see 3:
	// exactly one check, one RMR.
	if got := r.Account(1).TotalRMR; got != 1 {
		t.Errorf("waiter TotalRMR = %d, want 1 (coalesced)", got)
	}
}

func TestAwaitMulti(t *testing.T) {
	var a1, a2 memmodel.Var
	r := run(t, Config{Scheduler: sched.NewRoundRobin()},
		func(a memmodel.Allocator) interface{} {
			a1 = a.Alloc("a1", 0)
			a2 = a.Alloc("a2", 0)
			return nil
		},
		func(interface{}) []Program {
			waiter := func(p Proc) {
				vals := p.AwaitMulti([]memmodel.Var{a1, a2}, func(vs []uint64) bool {
					return vs[0]+vs[1] >= 2
				})
				if vals[0]+vals[1] < 2 {
					t.Errorf("AwaitMulti returned %v before predicate held", vals)
				}
			}
			w1 := func(p Proc) { p.Write(a1, 1) }
			w2 := func(p Proc) { p.Write(a2, 1) }
			return []Program{waiter, w1, w2}
		})
	// Waiter reads both vars on each check; total RMRs bounded by
	// checks * 2.
	if got := r.Account(0).TotalRMR; got < 2 || got > 6 {
		t.Errorf("waiter TotalRMR = %d, want within [2,6]", got)
	}
}

func TestDeadlockDetected(t *testing.T) {
	r := New(Config{})
	v := r.Alloc("never", 0)
	r.AddProc(func(p Proc) {
		p.Await(v, func(x uint64) bool { return x == 1 })
	})
	if err := r.Start(); err != nil {
		t.Fatalf("Start: %v", err)
	}
	defer r.Close()
	err := r.Run()
	if !errors.Is(err, ErrNoProgress) {
		t.Fatalf("Run error = %v, want ErrNoProgress", err)
	}
}

func TestMaxStepsEnforced(t *testing.T) {
	r := New(Config{MaxSteps: 10})
	v := r.Alloc("v", 0)
	r.AddProc(func(p Proc) {
		for i := 0; i < 1000; i++ {
			p.Write(v, uint64(i))
		}
	})
	if err := r.Start(); err != nil {
		t.Fatalf("Start: %v", err)
	}
	defer r.Close()
	err := r.Run()
	if !errors.Is(err, ErrMaxSteps) {
		t.Fatalf("Run error = %v, want ErrMaxSteps", err)
	}
}

func TestSectionAttribution(t *testing.T) {
	var v memmodel.Var
	r := run(t, Config{},
		func(a memmodel.Allocator) interface{} { v = a.Alloc("v", 0); return nil },
		func(interface{}) []Program {
			return []Program{func(p Proc) {
				p.Section(memmodel.SecEntry)
				p.Write(v, 1) // entry RMR
				p.Section(memmodel.SecCS)
				p.Read(v) // cs, free (cached)
				p.Section(memmodel.SecExit)
				p.Write(v, 2) // exit RMR
				p.Write(v, 3) // exit RMR
				p.Section(memmodel.SecRemainder)
			}}
		})
	acct := r.Account(0)
	if len(acct.Passages) != 1 {
		t.Fatalf("Passages = %d, want 1", len(acct.Passages))
	}
	pass := acct.Passages[0]
	if pass.EntryRMR != 1 || pass.CSRMR != 0 || pass.ExitRMR != 2 {
		t.Errorf("passage RMRs = %+v, want entry=1 cs=0 exit=2", pass)
	}
	if pass.EntrySteps != 1 || pass.CSSteps != 1 || pass.ExitSteps != 2 {
		t.Errorf("passage steps = %+v", pass)
	}
	if pass.RMR() != 3 || pass.Steps() != 4 {
		t.Errorf("totals RMR=%d steps=%d, want 3, 4", pass.RMR(), pass.Steps())
	}
}

func TestMultiplePassages(t *testing.T) {
	var v memmodel.Var
	r := run(t, Config{},
		func(a memmodel.Allocator) interface{} { v = a.Alloc("v", 0); return nil },
		func(interface{}) []Program {
			return []Program{func(p Proc) {
				for i := 0; i < 3; i++ {
					p.Section(memmodel.SecEntry)
					p.Write(v, uint64(i))
					p.Section(memmodel.SecCS)
					p.Section(memmodel.SecExit)
					p.Read(v)
					p.Section(memmodel.SecRemainder)
				}
			}}
		})
	acct := r.Account(0)
	if len(acct.Passages) != 3 {
		t.Fatalf("Passages = %d, want 3", len(acct.Passages))
	}
	mx := acct.MaxPassage()
	if mx.EntryRMR != 1 {
		t.Errorf("MaxPassage.EntryRMR = %d, want 1", mx.EntryRMR)
	}
}

// TestDeterminism runs the same racy program twice with the same seed and
// requires identical traces, and with different seeds expects divergence to
// be at least possible (weaker check: traces are valid).
func TestDeterminism(t *testing.T) {
	runOnce := func(seed int64) []trace.Event {
		var rec trace.Recorder
		r := New(Config{Scheduler: sched.NewRandom(seed), Observer: rec.Observe})
		v := r.Alloc("v", 0)
		for i := 0; i < 4; i++ {
			i := i
			r.AddProc(func(p Proc) {
				for k := 0; k < 10; k++ {
					p.CAS(v, uint64(i+k), uint64(i+k+1))
					p.Read(v)
				}
			})
		}
		if err := r.Start(); err != nil {
			t.Fatalf("Start: %v", err)
		}
		defer r.Close()
		if err := r.Run(); err != nil {
			t.Fatalf("Run: %v", err)
		}
		return append([]trace.Event(nil), rec.Events()...)
	}
	a, b := runOnce(11), runOnce(11)
	if len(a) != len(b) {
		t.Fatalf("trace lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("traces diverge at %d: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestBarrierStaging(t *testing.T) {
	r := New(Config{})
	v := r.Alloc("v", 0)
	r.AddProc(func(p Proc) {
		p.Write(v, 1)
		p.Barrier()
		p.Write(v, 2)
	})
	if err := r.Start(); err != nil {
		t.Fatalf("Start: %v", err)
	}
	defer r.Close()

	// Step until the process stalls at the barrier.
	for {
		progressed, err := r.Step()
		if err != nil {
			t.Fatalf("Step: %v", err)
		}
		if !progressed {
			break
		}
	}
	if got := r.Value(v); got != 1 {
		t.Fatalf("value before barrier release = %d, want 1", got)
	}
	at := r.AtBarrier()
	if len(at) != 1 || at[0] != 0 {
		t.Fatalf("AtBarrier = %v, want [0]", at)
	}
	if err := r.ReleaseBarrier(0); err != nil {
		t.Fatalf("ReleaseBarrier: %v", err)
	}
	if err := r.Run(); err != nil {
		t.Fatalf("Run after release: %v", err)
	}
	if got := r.Value(v); got != 2 {
		t.Fatalf("final value = %d, want 2", got)
	}
}

func TestReleaseBarrierNotAtBarrier(t *testing.T) {
	r := New(Config{})
	r.AddProc(func(p Proc) {})
	if err := r.Start(); err != nil {
		t.Fatalf("Start: %v", err)
	}
	defer r.Close()
	if err := r.ReleaseBarrier(0); err == nil {
		t.Fatal("ReleaseBarrier on non-barrier process must error")
	}
}

func TestRunStallsAtBarrierIsError(t *testing.T) {
	r := New(Config{})
	r.AddProc(func(p Proc) { p.Barrier() })
	if err := r.Start(); err != nil {
		t.Fatalf("Start: %v", err)
	}
	defer r.Close()
	if err := r.Run(); err == nil {
		t.Fatal("Run must error when stalled at a barrier")
	}
}

func TestCloseAbortsBlockedProcs(t *testing.T) {
	r := New(Config{})
	v := r.Alloc("v", 0)
	r.AddProc(func(p Proc) {
		p.Await(v, func(x uint64) bool { return x == 1 })
	})
	if err := r.Start(); err != nil {
		t.Fatalf("Start: %v", err)
	}
	// Close must return (not hang) even with the process parked.
	r.Close()
	r.Close() // double close is safe
}

func TestObserverSeesCASFields(t *testing.T) {
	var rec trace.Recorder
	r := New(Config{Observer: rec.Observe})
	v := r.Alloc("v", 1)
	r.AddProc(func(p Proc) {
		p.CAS(v, 1, 2) // success
		p.CAS(v, 1, 3) // failure
		p.CAS(v, 2, 2) // success but trivial
	})
	if err := r.Start(); err != nil {
		t.Fatalf("Start: %v", err)
	}
	defer r.Close()
	if err := r.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	steps := rec.Steps()
	if len(steps) != 3 {
		t.Fatalf("steps = %d, want 3", len(steps))
	}
	if !steps[0].Swapped || steps[0].Trivial {
		t.Errorf("step 0: %+v, want swapped non-trivial", steps[0])
	}
	if steps[1].Swapped || !steps[1].Trivial {
		t.Errorf("step 1: %+v, want failed (trivial)", steps[1])
	}
	if !steps[2].Swapped || !steps[2].Trivial {
		t.Errorf("step 2: %+v, want swapped trivial", steps[2])
	}
}

// TestTrivialCASIsReadForCoherence pins the accounting convention from
// DESIGN.md: failed CAS steps behave like reads and do not invalidate the
// spinning process's cache.
func TestTrivialCASIsReadForCoherence(t *testing.T) {
	var v, gate memmodel.Var
	r := run(t, Config{Protocol: WriteThrough, Scheduler: sched.LowestFirst{}},
		func(a memmodel.Allocator) interface{} {
			v = a.Alloc("v", 0)
			gate = a.Alloc("gate", 0)
			return nil
		},
		func(interface{}) []Program {
			// p0 reads v (cached), then signals p1, then re-reads v: the
			// re-read must be free because p1's failed CAS didn't
			// invalidate it.
			p0 := func(p Proc) {
				p.Read(v)
				p.Write(gate, 1)
				p.Await(gate, func(x uint64) bool { return x == 2 })
				p.Read(v) // must still be cached
			}
			p1 := func(p Proc) {
				p.Await(gate, func(x uint64) bool { return x == 1 })
				p.CAS(v, 99, 100) // fails; read-like
				p.Write(gate, 2)
			}
			return []Program{p0, p1}
		})
	// p0: read v (1 RMR) + write gate (1) + await initial check (0: gate
	// cached? p0 wrote gate so it holds a valid copy -> free) + one
	// re-check after p1 writes gate=2 (1 RMR) + read v (0, still cached).
	if got := r.Account(0).TotalRMR; got != 3 {
		t.Errorf("p0 TotalRMR = %d, want 3 (failed CAS must not invalidate)", got)
	}
}

func TestAllocN(t *testing.T) {
	r := New(Config{})
	vs := r.AllocN("arr", 4, 9)
	if len(vs) != 4 {
		t.Fatalf("AllocN returned %d vars", len(vs))
	}
	for i, v := range vs {
		if r.Value(v) != 9 {
			t.Errorf("arr[%d] = %d, want 9", i, r.Value(v))
		}
	}
	if r.VarName(vs[2]) != "arr[2]" {
		t.Errorf("VarName = %q", r.VarName(vs[2]))
	}
	if r.NumVars() != 4 {
		t.Errorf("NumVars = %d", r.NumVars())
	}
}

func TestPoisedReflectsPendingOps(t *testing.T) {
	r := New(Config{})
	v := r.Alloc("v", 0)
	r.AddProc(func(p Proc) { p.Write(v, 5) })
	r.AddProc(func(p Proc) { p.CAS(v, 0, 1) })
	if err := r.Start(); err != nil {
		t.Fatalf("Start: %v", err)
	}
	defer r.Close()
	ops := r.Poised()
	if len(ops) != 2 {
		t.Fatalf("Poised = %d ops, want 2", len(ops))
	}
	if ops[0].Kind != memmodel.OpWrite || ops[0].Arg != 5 {
		t.Errorf("op0 = %+v", ops[0])
	}
	if ops[1].Kind != memmodel.OpCAS || ops[1].CASExpected != 0 || ops[1].Arg != 1 {
		t.Errorf("op1 = %+v", ops[1])
	}
	if err := r.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
}
