package baseline

import (
	"testing"

	"repro/internal/explore"
	"repro/internal/memmodel"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/spec"
)

// TestQueueRWPropertiesGrid: the full correctness matrix.
func TestQueueRWPropertiesGrid(t *testing.T) {
	type popCase struct{ n, m int }
	pops := []popCase{{1, 1}, {2, 1}, {4, 2}, {3, 3}, {6, 2}}
	for _, pop := range pops {
		for _, protocol := range []sim.Protocol{sim.WriteThrough, sim.WriteBack} {
			for _, seed := range []int64{1, 2, 3, 4} {
				rep := spec.Run(NewQueueRW(), spec.Scenario{
					NReaders: pop.n, NWriters: pop.m,
					ReaderPassages: 4, WriterPassages: 3,
					Protocol:  protocol,
					Scheduler: sched.NewRandom(seed),
					CSReads:   2,
				})
				if !rep.OK() {
					t.Errorf("n=%d m=%d %v seed=%d:\n%s",
						pop.n, pop.m, protocol, seed, rep.Failures())
				}
			}
		}
	}
}

// TestQueueRWUnderPCT: deeper interleavings.
func TestQueueRWUnderPCT(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		rep := spec.Run(NewQueueRW(), spec.Scenario{
			NReaders: 4, NWriters: 2,
			ReaderPassages: 3, WriterPassages: 2,
			Scheduler: sched.NewPCT(seed, 6, 10_000),
			CSReads:   2,
			MaxSteps:  500_000,
		})
		if !rep.OK() {
			t.Errorf("PCT seed=%d:\n%s", seed, rep.Failures())
		}
	}
}

// TestQueueRWExhaustive model-checks every schedule at n=1, m=1 and caps
// a 2-reader+1-writer exploration.
func TestQueueRWExhaustive(t *testing.T) {
	res, err := explore.Algorithm(
		func() memmodel.Algorithm { return NewQueueRW() },
		spec.Scenario{NReaders: 1, NWriters: 1, ReaderPassages: 1, WriterPassages: 1},
		explore.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Violation != "" {
		t.Fatalf("violation on path %v:\n%s", res.ViolationPath, res.Violation)
	}
	if !res.Complete {
		t.Fatalf("tiny tree not exhausted in %d runs", res.Runs)
	}
	t.Logf("queue-rw (1,1): exhausted %d schedules", res.Runs)

	capRuns := 40_000
	if testing.Short() {
		capRuns = 5_000
	}
	res, err = explore.Algorithm(
		func() memmodel.Algorithm { return NewQueueRW() },
		spec.Scenario{NReaders: 2, NWriters: 1, ReaderPassages: 1, WriterPassages: 1},
		explore.Config{MaxRuns: capRuns})
	if err != nil {
		t.Fatal(err)
	}
	if res.Violation != "" {
		t.Fatalf("(2,1) violation on path %v:\n%s", res.ViolationPath, res.Violation)
	}
	t.Logf("queue-rw (2,1): %d schedules, complete=%v", res.Runs, res.Complete)
}

// TestQueueRWReadersBatch: adjacent readers share the CS.
func TestQueueRWReadersBatch(t *testing.T) {
	rep := spec.Run(NewQueueRW(), spec.Scenario{
		NReaders: 5, NWriters: 1,
		ReaderPassages: 2, WriterPassages: 0,
		Scheduler: sched.NewRoundRobin(),
		CSReads:   10,
	})
	if !rep.OK() {
		t.Fatalf("%s", rep.Failures())
	}
	if rep.MaxConcurrentReaders < 2 {
		t.Errorf("MaxConcurrentReaders = %d: early read handoff not batching", rep.MaxConcurrentReaders)
	}
}

// TestQueueRWTaskFair stages the FIFO property in both directions: a
// reader that arrives after a waiting writer must not overtake it, and a
// writer must wait for the whole reader batch admitted before it.
func TestQueueRWTaskFair(t *testing.T) {
	ctrl := &sched.Controlled{}
	r := sim.New(sim.Config{Scheduler: ctrl})
	alg := NewQueueRW()
	if err := alg.Init(r, 2, 1); err != nil {
		t.Fatal(err)
	}
	mk := func(reader bool, id int) sim.Program {
		return func(p sim.Proc) {
			p.Barrier()
			p.Section(memmodel.SecEntry)
			if reader {
				alg.ReaderEnter(p, id)
			} else {
				alg.WriterEnter(p, id)
			}
			p.Section(memmodel.SecCS)
			p.Barrier()
			p.Section(memmodel.SecExit)
			if reader {
				alg.ReaderExit(p, id)
			} else {
				alg.WriterExit(p, id)
			}
			p.Section(memmodel.SecRemainder)
		}
	}
	r.AddProc(mk(true, 0))  // r0
	r.AddProc(mk(true, 1))  // r1
	r.AddProc(mk(false, 0)) // w (proc 2)
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
	drive := func(id int) {
		t.Helper()
		for i := 0; i < 100_000; i++ {
			if r.IsAtBarrier(id) {
				return
			}
			if _, poised := r.PendingOf(id); !poised {
				return // parked
			}
			step(id)
		}
		t.Fatalf("p%d did not settle", id)
	}
	release := func(id int) {
		t.Helper()
		if err := r.ReleaseBarrier(id); err != nil {
			t.Fatal(err)
		}
	}

	// r0 enters the CS (head of chain).
	release(0)
	drive(0)
	if !r.IsAtBarrier(0) {
		t.Fatal("r0 not in CS")
	}
	// The writer queues behind r0's batch and parks on S.
	release(2)
	drive(2)
	if r.IsAtBarrier(2) {
		t.Fatal("writer entered alongside r0")
	}
	// r1 arrives after the writer: it must park on the writer's chain
	// node, NOT join r0's batch.
	release(1)
	drive(1)
	if r.IsAtBarrier(1) {
		t.Fatal("task fairness violated: r1 overtook a queued writer")
	}
	// r0 exits -> the writer (not r1) gets in.
	release(0)
	drive(0)
	drive(2)
	if !r.IsAtBarrier(2) {
		t.Fatal("writer did not enter after the batch drained")
	}
	if r.IsAtBarrier(1) {
		t.Fatal("r1 entered while the writer held the CS")
	}
	// Writer exits -> r1 finally enters.
	release(2)
	drive(2)
	drive(1)
	if !r.IsAtBarrier(1) {
		t.Fatal("r1 never entered")
	}
	release(1)
	drive(1)
	if len(r.Account(1).Passages) != 1 {
		t.Fatal("r1 passage incomplete")
	}
}

// TestQueueRWCostShape: readers O(1)-ish solo; the sweep structure means a
// writer wakes once per exiting batch reader.
func TestQueueRWCostShape(t *testing.T) {
	cost := func(n int) int {
		rep := spec.Run(NewQueueRW(), spec.Scenario{
			NReaders: n, NWriters: 1,
			ReaderPassages: 1, WriterPassages: 0,
			Scheduler: sched.NewSticky(),
		})
		if !rep.OK() {
			t.Fatalf("n=%d: %s", n, rep.Failures())
		}
		return rep.MaxReaderPassage.RMR()
	}
	if a, b := cost(4), cost(128); b > a {
		t.Errorf("solo reader RMR grew with n: %d -> %d", a, b)
	}
}
