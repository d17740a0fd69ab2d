package core

// This file contains the staged regression test for the HelpWCS read-order
// deviation documented on the AF type: the extended abstract's line 51
// compares C[i].read() = W[i].read() with C read first, which admits a
// mutual-exclusion violation when implemented as two separate counter
// reads. The test constructs the violating schedule deterministically:
//
//   1. Writer w finishes its PREENTRY scan (group empty) and is poised to
//      write RSIG = <seq, WAIT> (line 18).
//   2. Reader R0 enters: increments C, reads RSIG = PREENTRY, and enters
//      the CS (legal: no WAIT was published yet). It parks inside the CS.
//   3. w publishes WAIT and blocks at line 21 awaiting WSIG = <seq, CS>
//      (it saw C > 0).
//   4. Reader R1 enters, sees WAIT, increments W (W=1), starts HelpWCS and
//      performs its first read. Under the paper's order that read is
//      C = 2 (R0 + R1). R1 is paused before its second read.
//   5. Reader R2 enters, sees WAIT, increments C (C=3) and W (W=2); its
//      own HelpWCS sees C=3 != W=2 and does nothing; R2 parks on RSIG.
//   6. R1 resumes and performs its second read: W = 2, which equals its
//      stale C read. It wrongly CASes WSIG to <seq, CS>.
//   7. w wakes and enters the CS while R0 is still inside it.
//
// With the implementation's W-before-C order, step 4 reads W=1 and step 6
// reads C=3, the counts differ, and w keeps waiting until R0 actually
// leaves - the safe behaviour the companion test verifies.

import (
	"testing"

	"repro/internal/counter"
	"repro/internal/memmodel"
	"repro/internal/sim"
)

// manualSched lets the test choose every scheduling decision. The target
// process must be poised when Step is called.
type manualSched struct {
	target int
}

func (m *manualSched) Name() string { return "manual" }

func (m *manualSched) Next(_ int, poised []int) int {
	for _, p := range poised {
		if p == m.target {
			return p
		}
	}
	panic("manualSched: target not poised")
}

// afStage wires a 3-reader, 1-writer A_f instance (single group, K=3) into
// a runner under manual scheduling.
type afStage struct {
	t   *testing.T
	r   *sim.Runner
	s   *manualSched
	alg *AF
}

const (
	stR0 = 0
	stR1 = 1
	stR2 = 2
	stW  = 3
)

func newAFStage(t *testing.T, cFirst bool) *afStage {
	t.Helper()
	s := &manualSched{}
	r := sim.New(sim.Config{Scheduler: s})
	alg := New(FOne)
	alg.helpWCSCFirst = cFirst
	if err := alg.Init(r, 3, 1); err != nil {
		t.Fatalf("Init: %v", err)
	}

	reader := func(rid int, startBarrier bool) sim.Program {
		return func(p sim.Proc) {
			if startBarrier {
				p.Barrier()
			}
			p.Section(memmodel.SecEntry)
			alg.ReaderEnter(p, rid)
			p.Section(memmodel.SecCS)
			if rid == stR0 {
				p.Barrier() // R0 parks inside the CS
			}
			p.Section(memmodel.SecExit)
			alg.ReaderExit(p, rid)
			p.Section(memmodel.SecRemainder)
		}
	}
	r.AddProc(reader(stR0, false))
	r.AddProc(reader(stR1, true))
	r.AddProc(reader(stR2, true))
	r.AddProc(func(p sim.Proc) {
		p.Section(memmodel.SecEntry)
		alg.WriterEnter(p, 0)
		p.Section(memmodel.SecCS)
		p.Barrier() // writer parks inside the CS
		p.Section(memmodel.SecExit)
		alg.WriterExit(p, 0)
		p.Section(memmodel.SecRemainder)
	})
	if err := r.Start(); err != nil {
		t.Fatalf("Start: %v", err)
	}
	t.Cleanup(r.Close)
	return &afStage{t: t, r: r, s: s, alg: alg}
}

func (st *afStage) pending(id int) (sched0 struct {
	kind memmodel.OpKind
	v    memmodel.Var
	arg  uint64
}, ok bool) {
	for _, op := range st.r.Poised() {
		if op.Proc == id {
			sched0.kind = op.Kind
			sched0.v = op.Var
			sched0.arg = op.Arg
			return sched0, true
		}
	}
	return sched0, false
}

// step runs exactly one step of process id.
func (st *afStage) step(id int) {
	st.t.Helper()
	st.s.target = id
	progressed, err := st.r.Step()
	if err != nil || !progressed {
		st.t.Fatalf("step p%d: progressed=%v err=%v", id, progressed, err)
	}
}

// stepUntil drives process id until cond holds, with a step budget.
func (st *afStage) stepUntil(id int, what string, cond func() bool) {
	st.t.Helper()
	for i := 0; i < 10_000; i++ {
		if cond() {
			return
		}
		st.step(id)
	}
	st.t.Fatalf("p%d: condition %q not reached", id, what)
}

func (st *afStage) isAwaiting(id int) bool {
	for _, a := range st.r.Awaiting() {
		if a == id {
			return true
		}
	}
	return false
}

func (st *afStage) inCS(id int) bool {
	return st.r.Account(id).Section() == memmodel.SecCS
}

// runStagedSchedule drives the adversarial schedule from the file comment
// up to R1's HelpWCS signal attempt, then lets the writer run. It returns
// whether the writer managed to enter the CS while R0 was still inside.
func runStagedSchedule(t *testing.T, cFirst bool) bool {
	t.Helper()
	st := newAFStage(t, cFirst)
	a := st.alg
	cRoot := a.c[0].(*counter.FArray).Root()
	wRoot := a.w[0].(*counter.FArray).Root()

	// Phase 1: writer up to (but not including) line 18's RSIG=WAIT write.
	st.stepUntil(stW, "writer poised at line 18", func() bool {
		op, ok := st.pending(stW)
		return ok && op.kind == memmodel.OpWrite && op.v == a.rsig &&
			memmodel.SigOp(op.arg) == opWait
	})

	// Phase 2: R0 enters the CS and parks (reads RSIG = PREENTRY).
	st.stepUntil(stR0, "R0 inside CS", func() bool { return st.r.IsAtBarrier(stR0) })
	if !st.inCS(stR0) {
		t.Fatal("staging: R0 not in CS")
	}

	// Phase 3: writer publishes WAIT and blocks at line 21.
	st.step(stW) // line 18
	st.stepUntil(stW, "writer awaiting WSIG=CS", func() bool { return st.isAwaiting(stW) })

	// Phase 4: R1 through W.add(1); pause inside HelpWCS after its first
	// counter read.
	if err := st.r.ReleaseBarrier(stR1); err != nil {
		t.Fatalf("release R1: %v", err)
	}
	firstRead := wRoot // W-first (safe) order
	if cFirst {
		firstRead = cRoot // paper order
	}
	st.stepUntil(stR1, "R1 poised at HelpWCS first read", func() bool {
		if memmodel.VerSumSum(st.r.Value(wRoot)) != 1 {
			return false // W.add(1) not finished yet
		}
		op, ok := st.pending(stR1)
		return ok && op.kind == memmodel.OpRead && op.v == firstRead
	})
	st.step(stR1) // execute the first HelpWCS read; second read now pending

	// Phase 5: R2 runs its whole entry and parks on RSIG.
	if err := st.r.ReleaseBarrier(stR2); err != nil {
		t.Fatalf("release R2: %v", err)
	}
	st.stepUntil(stR2, "R2 parked on RSIG", func() bool { return st.isAwaiting(stR2) })

	// Phase 6: R1 finishes HelpWCS (second read, possibly the wrongful
	// CAS) and parks on RSIG.
	st.stepUntil(stR1, "R1 parked on RSIG", func() bool { return st.isAwaiting(stR1) })

	// Phase 7: if the writer was signalled it is now poised; drive it as
	// far as it can go and see whether it reaches its in-CS barrier.
	for i := 0; i < 10_000; i++ {
		if st.r.IsAtBarrier(stW) || st.isAwaiting(stW) {
			break
		}
		st.step(stW)
	}
	return st.r.IsAtBarrier(stW) && st.inCS(stW) && st.inCS(stR0)
}

// TestHelpWCSPaperOrderUnsafe demonstrates the mutual-exclusion violation
// that the extended abstract's literal C-then-W HelpWCS order admits.
func TestHelpWCSPaperOrderUnsafe(t *testing.T) {
	if !runStagedSchedule(t, true) {
		t.Fatal("expected the staged schedule to violate mutual exclusion under the paper's C-then-W HelpWCS order; it did not (staging broke?)")
	}
}

// TestHelpWCSImplementedOrderSafe runs the identical adversarial schedule
// against the W-then-C order this package implements and verifies the
// writer keeps waiting while R0 occupies the CS.
func TestHelpWCSImplementedOrderSafe(t *testing.T) {
	if runStagedSchedule(t, false) {
		t.Fatal("W-then-C HelpWCS order let the writer into an occupied CS")
	}
}
