package counter

// History-collection harness: run counter implementations inside the CC
// simulator, record each operation's observation window via an atomic step
// clock maintained by the trace observer, and feed the history to the
// checker. The windows are over-approximations (clock read just before /
// just after the operation), which only widens the set of admissible
// linearizations — so "not linearizable" verdicts remain sound.

import (
	"sync/atomic"
	"testing"

	"repro/internal/memmodel"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/trace"
)

// collect runs adders and readers against a fresh counter and returns the
// merged operation history.
func collect(t *testing.T, build func(a memmodel.Allocator) Counter,
	s sched.Scheduler, adders, addsEach, readers, readsEach int, deltas []int32) []Op {
	t.Helper()
	var clock atomic.Int64
	r := sim.New(sim.Config{
		Scheduler: s,
		Observer: func(e trace.Event) {
			if !e.SectionChange {
				clock.Add(1)
			}
		},
	})
	c := build(r)

	perProc := make([][]Op, adders+readers)
	for a := 0; a < adders; a++ {
		a := a
		r.AddProc(func(p sim.Proc) {
			for i := 0; i < addsEach; i++ {
				delta := deltas[(a*addsEach+i)%len(deltas)]
				start := clock.Load()
				c.Add(p, a, delta)
				perProc[a] = append(perProc[a], Op{
					Proc: a, Start: int(start), End: int(clock.Load()), Delta: delta,
				})
			}
		})
	}
	for rd := 0; rd < readers; rd++ {
		rd := rd
		r.AddProc(func(p sim.Proc) {
			for i := 0; i < readsEach; i++ {
				start := clock.Load()
				got := c.Read(p)
				perProc[adders+rd] = append(perProc[adders+rd], Op{
					Proc: adders + rd, Start: int(start), End: int(clock.Load()),
					IsRead: true, Result: got,
				})
			}
		})
	}
	if err := r.Start(); err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if err := r.Run(); err != nil {
		t.Fatal(err)
	}
	var ops []Op
	for _, procOps := range perProc {
		ops = append(ops, procOps...)
	}
	return ops
}

// TestFArrayLinearizable: the paper's counter yields linearizable
// histories across many seeds and shapes.
func TestFArrayLinearizable(t *testing.T) {
	deltas := []int32{1, 2, -1, 3}
	for _, seed := range []int64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10} {
		ops := collect(t,
			func(a memmodel.Allocator) Counter { return NewFArray(a, "C", 3) },
			sched.NewRandom(seed), 3, 3, 2, 4, deltas)
		ok, _, err := CheckCounter(ops)
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			t.Errorf("seed %d: f-array history not linearizable:", seed)
			for _, o := range ops {
				t.Logf("  %v", o)
			}
		}
	}
}

// TestFArrayLinearizableUnderPCT: adversarial-ish PCT schedules too.
func TestFArrayLinearizableUnderPCT(t *testing.T) {
	deltas := []int32{5, -3, 2}
	for _, seed := range []int64{1, 2, 3, 4, 5} {
		ops := collect(t,
			func(a memmodel.Allocator) Counter { return NewFArray(a, "C", 3) },
			sched.NewPCT(seed, 6, 5000), 3, 2, 2, 3, deltas)
		if ok, _, err := CheckCounter(ops); err != nil || !ok {
			t.Errorf("seed %d: not linearizable (err=%v)", seed, err)
		}
	}
}

// TestCASWordLinearizable: the single-word counter is trivially atomic.
func TestCASWordLinearizable(t *testing.T) {
	deltas := []int32{1, -2, 4}
	for _, seed := range []int64{11, 12, 13} {
		ops := collect(t,
			func(a memmodel.Allocator) Counter { return NewCASWord(a, "C") },
			sched.NewRandom(seed), 3, 3, 2, 3, deltas)
		if ok, _, err := CheckCounter(ops); err != nil || !ok {
			t.Errorf("seed %d: not linearizable (err=%v)", seed, err)
		}
	}
}

// TestCellArrayScanAnomaly constructs the classic non-linearizable scan:
// the reader's scan passes cell 0 before Add(1) lands there, then reads
// cell 1 after a *later* Add(2) lands — observing the second add without
// the first, which no linearization of a counter admits. This is the
// precise sense in which the cell-array ablation is weaker than the
// paper's f-array (whose single-root reads are atomic).
func TestCellArrayScanAnomaly(t *testing.T) {
	ctrl := &sched.Controlled{}
	var clock atomic.Int64
	r := sim.New(sim.Config{
		Scheduler: ctrl,
		Observer: func(e trace.Event) {
			if !e.SectionChange {
				clock.Add(1)
			}
		},
	})
	c := NewCellArray(r, "C", 2)

	var ops [3]Op
	gate := r.Alloc("gate", 0) // staging only; not part of the counter
	// p0: the scanning reader.
	r.AddProc(func(p sim.Proc) {
		start := clock.Load()
		got := c.Read(p)
		ops[0] = Op{Proc: 0, Start: int(start), End: int(clock.Load()), IsRead: true, Result: got}
	})
	// p1: Add(1) to slot 0.
	r.AddProc(func(p sim.Proc) {
		start := clock.Load()
		c.Add(p, 0, 1)
		ops[1] = Op{Proc: 1, Start: int(start), End: int(clock.Load()), Delta: 1}
		p.Write(gate, 1)
	})
	// p2: Add(2) to slot 1, strictly after p1 (gate).
	r.AddProc(func(p sim.Proc) {
		p.Await(gate, func(x uint64) bool { return x == 1 })
		start := clock.Load()
		c.Add(p, 1, 2)
		ops[2] = Op{Proc: 2, Start: int(start), End: int(clock.Load()), Delta: 2}
	})
	if err := r.Start(); err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	step := func(id int) {
		t.Helper()
		ctrl.Target = id
		if ok, err := r.Step(); err != nil || !ok {
			t.Fatalf("step p%d: %v", id, err)
		}
	}
	// Reader scans cell 0 (sees 0).
	step(0)
	// p1 completes Add(1) to cell 0 and opens the gate.
	for i := 0; i < 100; i++ {
		if _, poised := r.PendingOf(1); !poised {
			break
		}
		step(1)
	}
	// p2 wakes, completes Add(2) to cell 1.
	for i := 0; i < 100; i++ {
		if _, poised := r.PendingOf(2); !poised {
			break
		}
		step(2)
	}
	// Reader scans cell 1 (sees 2) and returns 0 + 2 = 2.
	for i := 0; i < 100; i++ {
		if _, poised := r.PendingOf(0); !poised {
			break
		}
		step(0)
	}
	if !r.Done() {
		t.Fatal("staging incomplete")
	}

	if ops[0].Result != 2 {
		t.Fatalf("staging failed: reader returned %d, want 2", ops[0].Result)
	}
	ok, _, err := CheckCounter(ops[:])
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Fatal("scan anomaly accepted as linearizable")
	}
}
