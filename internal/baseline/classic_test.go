package baseline

import (
	"testing"

	"repro/internal/memmodel"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/spec"
)

func classics() []func() memmodel.Algorithm {
	return []func() memmodel.Algorithm{
		func() memmodel.Algorithm { return NewBRLock() },
		func() memmodel.Algorithm { return NewCourtoisR() },
		func() memmodel.Algorithm { return NewCourtoisW() },
	}
}

// TestClassicPropertiesGrid: mutual exclusion and completion for the
// classic baselines across populations, protocols and seeds.
func TestClassicPropertiesGrid(t *testing.T) {
	type popCase struct{ n, m int }
	pops := []popCase{{1, 1}, {2, 1}, {4, 2}, {3, 3}}
	for _, mk := range classics() {
		for _, pop := range pops {
			for _, protocol := range []sim.Protocol{sim.WriteThrough, sim.WriteBack} {
				for _, seed := range []int64{1, 2, 3} {
					alg := mk()
					rep := spec.Run(alg, spec.Scenario{
						NReaders: pop.n, NWriters: pop.m,
						ReaderPassages: 3, WriterPassages: 2,
						Protocol:  protocol,
						Scheduler: sched.NewRandom(seed),
						CSReads:   2,
					})
					if !rep.OK() {
						t.Errorf("%s n=%d m=%d %v seed=%d:\n%s",
							alg.Name(), pop.n, pop.m, protocol, seed, rep.Failures())
					}
				}
			}
		}
	}
}

// TestClassicReadersOverlap: all three allow readers in the CS together.
// The Courtois entry prologue is ~10 steps of lock traffic, so the CS must
// be long enough for a lockstep schedule to overlap passages.
func TestClassicReadersOverlap(t *testing.T) {
	for _, mk := range classics() {
		alg := mk()
		rep := spec.Run(alg, spec.Scenario{
			NReaders: 5, NWriters: 1,
			ReaderPassages: 2, WriterPassages: 0,
			Scheduler: sched.NewRoundRobin(),
			CSReads:   25,
		})
		if !rep.OK() {
			t.Fatalf("%s: %s", alg.Name(), rep.Failures())
		}
		if rep.MaxConcurrentReaders < 2 {
			t.Errorf("%s: MaxConcurrentReaders = %d", alg.Name(), rep.MaxConcurrentReaders)
		}
	}
}

// TestBRLockCostSplit: O(1) readers, Theta(n) writer sweep.
func TestBRLockCostSplit(t *testing.T) {
	cost := func(n int) (reader, writer int) {
		rep := spec.Run(NewBRLock(), spec.Scenario{
			NReaders: n, NWriters: 1,
			ReaderPassages: 1, WriterPassages: 1,
			Scheduler: sched.NewSticky(),
		})
		if !rep.OK() {
			t.Fatalf("n=%d: %s", n, rep.Failures())
		}
		return rep.MaxReaderPassage.RMR(), rep.MaxWriterPassage.RMR()
	}
	r8, w8 := cost(8)
	r128, w128 := cost(128)
	if r128 != r8 {
		t.Errorf("brlock reader RMR grew: %d -> %d", r8, r128)
	}
	if w128 < 10*w8/2 {
		t.Errorf("brlock writer sweep not linear: %d -> %d over 16x n", w8, w128)
	}
}

// TestCourtoisRWriterStarvesUnderReaders: reader preference means a writer
// cannot enter while the readcount never reaches zero. Staged via biased
// scheduling: readers run first and overlap, writer steps only when
// readers block or finish.
func TestCourtoisRReaderPreferenceShape(t *testing.T) {
	// Behavioural check: with heavy reader traffic and one writer, the
	// run still completes (finite passages) — preference is about
	// priority, not deadlock.
	for _, seed := range []int64{3, 7} {
		rep := spec.Run(NewCourtoisR(), spec.Scenario{
			NReaders: 6, NWriters: 1,
			ReaderPassages: 4, WriterPassages: 2,
			Scheduler: sched.NewRandom(seed),
			CSReads:   1,
		})
		if !rep.OK() {
			t.Errorf("seed %d: %s", seed, rep.Failures())
		}
	}
}

// TestCourtoisWWriterPreference: a staged schedule where a writer
// announces itself while a reader holds the CS; a second reader arriving
// afterwards must NOT enter before the writer (it is held at the r gate).
func TestCourtoisWWriterPreference(t *testing.T) {
	ctrl := &sched.Controlled{}
	r := sim.New(sim.Config{Scheduler: ctrl})
	alg := NewCourtoisW()
	if err := alg.Init(r, 2, 1); err != nil {
		t.Fatal(err)
	}
	// r0 holds the CS; w announces and blocks on w-lock; r1 arrives and
	// must block at the gate; r0 leaves; w enters before r1.
	mkReader := func(rid int) sim.Program {
		return func(p sim.Proc) {
			p.Barrier()
			p.Section(memmodel.SecEntry)
			alg.ReaderEnter(p, rid)
			p.Section(memmodel.SecCS)
			p.Barrier()
			p.Section(memmodel.SecExit)
			alg.ReaderExit(p, rid)
			p.Section(memmodel.SecRemainder)
		}
	}
	r.AddProc(mkReader(0))
	r.AddProc(mkReader(1))
	r.AddProc(func(p sim.Proc) {
		p.Barrier()
		p.Section(memmodel.SecEntry)
		alg.WriterEnter(p, 0)
		p.Section(memmodel.SecCS)
		p.Barrier()
		p.Section(memmodel.SecExit)
		alg.WriterExit(p, 0)
		p.Section(memmodel.SecRemainder)
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
	drive := func(id int, stopAtBarrier bool) {
		t.Helper()
		for i := 0; i < 100_000; i++ {
			if stopAtBarrier && r.IsAtBarrier(id) {
				return
			}
			if _, poised := r.PendingOf(id); !poised {
				return
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

	release(0)
	drive(0, true) // r0 into the CS
	if !r.IsAtBarrier(0) {
		t.Fatal("r0 not in CS")
	}
	release(2)
	drive(2, true) // writer announces, blocks on the resource lock
	if r.IsAtBarrier(2) {
		t.Fatal("writer entered alongside r0")
	}
	release(1)
	drive(1, true) // r1 must be held at the gate
	if r.IsAtBarrier(1) {
		t.Fatal("writer preference violated: r1 entered after a writer announced")
	}
	release(0)
	drive(0, false) // r0 exits fully
	drive(2, true)  // writer proceeds into the CS
	if !r.IsAtBarrier(2) {
		t.Fatal("writer did not enter after the last reader left")
	}
	drive(1, true)
	if r.IsAtBarrier(1) {
		t.Fatal("r1 entered while the writer held the CS")
	}
	// Writer exits; r1 finally enters and completes.
	release(2)
	drive(2, false)
	drive(1, true)
	if !r.IsAtBarrier(1) {
		t.Fatal("r1 never entered")
	}
	release(1)
	drive(1, false)
}

// TestClassicWritersOnly: all classics degrade to mutexes among writers.
func TestClassicWritersOnly(t *testing.T) {
	for _, mk := range classics() {
		alg := mk()
		rep := spec.Run(alg, spec.Scenario{
			NReaders: 0, NWriters: 3,
			ReaderPassages: 0, WriterPassages: 3,
			Scheduler: sched.NewRandom(5),
		})
		if !rep.OK() {
			t.Errorf("%s: %s", alg.Name(), rep.Failures())
		}
	}
}
