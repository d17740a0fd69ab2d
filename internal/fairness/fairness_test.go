package fairness_test

import (
	"testing"

	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/explore"
	"repro/internal/fairness"
	"repro/internal/memmodel"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/spec"
)

func TestName(t *testing.T) {
	if got := fairness.New(core.New(core.FLog)).Name(); got != "af-log+wpri" {
		t.Errorf("Name = %q", got)
	}
}

// TestWrappedPropertiesGrid: the wrapper must preserve mutual exclusion
// and progress for every inner algorithm across random schedules.
func TestWrappedPropertiesGrid(t *testing.T) {
	inners := []func() memmodel.Algorithm{
		func() memmodel.Algorithm { return core.New(core.FOne) },
		func() memmodel.Algorithm { return core.New(core.FLog) },
		func() memmodel.Algorithm { return core.New(core.FLinear) },
		func() memmodel.Algorithm { return baseline.NewCentralized() },
		func() memmodel.Algorithm { return baseline.NewFlagArray() },
		func() memmodel.Algorithm { return baseline.NewPhaseFair() },
	}
	for _, mk := range inners {
		for _, protocol := range []sim.Protocol{sim.WriteThrough, sim.WriteBack} {
			for _, seed := range []int64{1, 2, 3} {
				alg := fairness.New(mk())
				rep := spec.Run(alg, spec.Scenario{
					NReaders: 4, NWriters: 2,
					ReaderPassages: 3, WriterPassages: 2,
					Protocol:  protocol,
					Scheduler: sched.NewRandom(seed),
					CSReads:   2,
				})
				if !rep.OK() {
					t.Errorf("%s %v seed=%d:\n%s", alg.Name(), protocol, seed, rep.Failures())
				}
			}
		}
	}
}

// TestWrappedExhaustive model-checks the wrapped lock at n=1, m=1.
func TestWrappedExhaustive(t *testing.T) {
	cap := 40_000 // the full tree is ~286k schedules; keep default runs fast
	if testing.Short() {
		cap = 5_000
	}
	res, err := explore.Algorithm(
		func() memmodel.Algorithm { return fairness.New(core.New(core.FOne)) },
		spec.Scenario{NReaders: 1, NWriters: 1, ReaderPassages: 1, WriterPassages: 1},
		explore.Config{MaxRuns: cap})
	if err != nil {
		t.Fatal(err)
	}
	if res.Violation != "" {
		t.Fatalf("violation on path %v:\n%s", res.ViolationPath, res.Violation)
	}
	t.Logf("af-1+wpri: %d schedules explored, complete=%v", res.Runs, res.Complete)
}

// TestGateCostConstant: the wrapper adds O(1) RMRs per passage on both
// sides (uncontended).
func TestGateCostConstant(t *testing.T) {
	base := spec.Run(core.New(core.FLog), spec.Scenario{
		NReaders: 8, NWriters: 1,
		ReaderPassages: 2, WriterPassages: 2,
		Scheduler: sched.NewSticky(),
	})
	wrapped := spec.Run(fairness.New(core.New(core.FLog)), spec.Scenario{
		NReaders: 8, NWriters: 1,
		ReaderPassages: 2, WriterPassages: 2,
		Scheduler: sched.NewSticky(),
	})
	if !base.OK() || !wrapped.OK() {
		t.Fatalf("runs failed:\n%s%s", base.Failures(), wrapped.Failures())
	}
	if d := wrapped.MaxReaderPassage.RMR() - base.MaxReaderPassage.RMR(); d < 0 || d > 3 {
		t.Errorf("reader gate overhead = %d RMRs, want in [0,3]", d)
	}
	if d := wrapped.MaxWriterPassage.RMR() - base.MaxWriterPassage.RMR(); d < 0 || d > 5 {
		t.Errorf("writer gate overhead = %d RMRs, want in [0,5]", d)
	}
}

// staged drives the wrapped lock under a Controlled scheduler.
type staged struct {
	t    *testing.T
	r    *sim.Runner
	ctrl *sched.Controlled
}

func newStaged(t *testing.T, alg memmodel.Algorithm, readerProgs, writerProgs int) *staged {
	t.Helper()
	ctrl := &sched.Controlled{}
	r := sim.New(sim.Config{Scheduler: ctrl})
	if err := alg.Init(r, readerProgs, writerProgs); err != nil {
		t.Fatal(err)
	}
	for rid := 0; rid < readerProgs; rid++ {
		rid := rid
		r.AddProc(func(p sim.Proc) {
			p.Barrier()
			p.Section(memmodel.SecEntry)
			alg.ReaderEnter(p, rid)
			p.Section(memmodel.SecCS)
			p.Barrier()
			p.Section(memmodel.SecExit)
			alg.ReaderExit(p, rid)
			p.Section(memmodel.SecRemainder)
		})
	}
	for wid := 0; wid < writerProgs; wid++ {
		wid := wid
		r.AddProc(func(p sim.Proc) {
			p.Barrier()
			p.Section(memmodel.SecEntry)
			alg.WriterEnter(p, wid)
			p.Section(memmodel.SecCS)
			p.Barrier()
			p.Section(memmodel.SecExit)
			alg.WriterExit(p, wid)
			p.Section(memmodel.SecRemainder)
		})
	}
	if err := r.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(r.Close)
	return &staged{t: t, r: r, ctrl: ctrl}
}

func (s *staged) step(id int) {
	s.t.Helper()
	s.ctrl.Target = id
	progressed, err := s.r.Step()
	if err != nil || !progressed {
		s.t.Fatalf("step p%d: progressed=%v err=%v", id, progressed, err)
	}
}

func (s *staged) release(id int) {
	s.t.Helper()
	if err := s.r.ReleaseBarrier(id); err != nil {
		s.t.Fatalf("release p%d: %v", id, err)
	}
}

func (s *staged) isAwaiting(id int) bool {
	for _, a := range s.r.Awaiting() {
		if a == id {
			return true
		}
	}
	return false
}

func (s *staged) driveUntil(id int, what string, cond func() bool) {
	s.t.Helper()
	for i := 0; !cond(); i++ {
		if i > 100_000 {
			s.t.Fatalf("p%d: %s not reached", id, what)
		}
		if _, poised := s.r.PendingOf(id); !poised {
			s.t.Fatalf("p%d blocked before %s", id, what)
		}
		s.step(id)
	}
}

func (s *staged) driveWhilePoised(id int) {
	s.t.Helper()
	for i := 0; i < 100_000; i++ {
		if _, poised := s.r.PendingOf(id); !poised {
			return
		}
		s.step(id)
	}
	s.t.Fatalf("p%d still poised", id)
}

// TestWriterNoLongerStarves replays the reader-churn scenario from
// core/af_starvation_test.go against the wrapped lock: the second reader's
// re-entry attempt now blocks at the gate instead of keeping C above zero,
// the churn dies out, and the writer gets in.
func TestWriterNoLongerStarves(t *testing.T) {
	s := newStaged(t, fairness.New(core.New(core.FOne)), 2, 1)
	const r0, r1, w = 0, 1, 2

	// R0 into the CS.
	s.release(r0)
	s.driveUntil(r0, "R0 in CS", func() bool { return s.r.IsAtBarrier(r0) })

	// Writer announces at the gate and blocks inside the inner entry
	// (C = 1 from R0).
	s.release(w)
	s.driveWhilePoised(w)
	if !s.isAwaiting(w) {
		t.Fatal("writer should be blocked in the inner entry")
	}

	// R1 tries to start a passage: with the gate closed it must block
	// BEFORE touching the inner lock (C stays 1, no churn possible).
	s.release(r1)
	s.driveWhilePoised(r1)
	if !s.isAwaiting(r1) {
		t.Fatal("R1 should be parked at the writer-priority gate")
	}
	if got := s.r.Account(r1).Section(); got != memmodel.SecEntry {
		t.Fatalf("R1 section = %v, want entry (gated)", got)
	}

	// R0 leaves; its exit drains the group and the writer proceeds into
	// the CS while R1 is still gated: writer priority achieved.
	s.release(r0)
	s.driveWhilePoised(r0) // R0 runs to completion
	s.driveUntil(w, "writer in CS", func() bool { return s.r.IsAtBarrier(w) })
	if !s.isAwaiting(r1) {
		t.Fatal("R1 should still be gated while the writer is in the CS")
	}

	// Writer exits, clearing the gate; R1 completes.
	s.release(w)
	s.driveWhilePoised(w)
	s.driveUntil(r1, "R1 in CS", func() bool { return s.r.IsAtBarrier(r1) })
	s.release(r1)
	s.driveWhilePoised(r1)
	if len(s.r.Account(r1).Passages) != 1 {
		t.Fatal("R1 did not complete its passage")
	}
}

// TestReaderCanStarveUnderWriterChurn demonstrates the trade: back-to-back
// writers keep the gate closed, so a reader makes no progress while
// writers keep arriving — reader starvation-freedom is gone (deliberately).
func TestReaderCanStarveUnderWriterChurn(t *testing.T) {
	s := newStaged(t, fairness.New(core.New(core.FOne)), 1, 2)
	const rd, w0, w1 = 0, 1, 2

	// W0 announces and enters the CS.
	s.release(w0)
	s.driveUntil(w0, "w0 in CS", func() bool { return s.r.IsAtBarrier(w0) })

	// W1 announces (gate count 2) and queues on the inner WL.
	s.release(w1)
	s.driveWhilePoised(w1)
	if !s.isAwaiting(w1) {
		t.Fatal("w1 should queue behind w0")
	}

	// The reader arrives: gated.
	s.release(rd)
	s.driveWhilePoised(rd)
	if !s.isAwaiting(rd) {
		t.Fatal("reader should be gated")
	}

	// W0 completes entirely; the gate count drops to 1 (w1 still pending).
	// The reader wakes for one gate re-check, sees 1, and re-parks while
	// w1 proceeds into the CS.
	s.release(w0)
	s.driveWhilePoised(w0)
	s.driveWhilePoised(rd) // gate re-check: still closed
	s.driveUntil(w1, "w1 in CS", func() bool { return s.r.IsAtBarrier(w1) })
	s.driveWhilePoised(rd)
	if !s.isAwaiting(rd) {
		t.Fatal("reader should still be gated while writers keep arriving")
	}

	// Only when the last writer leaves does the reader get in.
	s.release(w1)
	s.driveWhilePoised(w1)
	s.driveUntil(rd, "reader in CS", func() bool { return s.r.IsAtBarrier(rd) })
	s.release(rd)
	s.driveWhilePoised(rd)
	if len(s.r.Account(rd).Passages) != 1 {
		t.Fatal("reader never completed")
	}
}

// TestPropsAdjusted: the wrapper declares the fairness trade.
func TestPropsAdjusted(t *testing.T) {
	props := fairness.New(core.New(core.FLog)).Props()
	if props.ReaderStarvationFree {
		t.Error("wrapper must not claim reader starvation-freedom")
	}
	if !props.ConcurrentEntering {
		t.Error("Concurrent Entering must be preserved (writers in remainder -> gate open)")
	}
}
