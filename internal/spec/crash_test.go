package spec

import (
	"fmt"
	"testing"

	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/memmodel"
)

// TestCrashSweepAF exhaustively crash-sweeps a tiny A_f scenario for both
// victim classes and checks the crash-safety contract: Mutual Exclusion
// never breaks, every hang is caught by the watchdog (never the step
// budget), remainder-section crashes leave the survivors live, and at
// least one non-remainder crash point wedges somebody (the algorithm is
// not recoverable, so a writer dying inside the CS must hang the rest).
func TestCrashSweepAF(t *testing.T) {
	sc := Scenario{NReaders: 2, NWriters: 1, ReaderPassages: 1, WriterPassages: 1}
	newAlg := func() memmodel.Algorithm { return core.New(core.FLog) }
	for _, victim := range []int{0, sc.NReaders} {
		outs, err := CrashSweep(newAlg, sc, victim, nil)
		if err != nil {
			t.Fatalf("victim %d: %v", victim, err)
		}
		if len(outs) == 0 {
			t.Fatalf("victim %d: empty sweep", victim)
		}
		hangs := 0
		for _, o := range outs {
			if !o.Safe() {
				t.Errorf("victim %d %s: ME violations %v", victim, o.Point, o.MEViolations)
			}
			if o.BudgetExceeded {
				t.Errorf("victim %d %s: hang escaped the watchdog (step budget hit)", victim, o.Point)
			}
			if o.Err != nil {
				t.Errorf("victim %d %s: %v", victim, o.Point, o.Err)
			}
			if o.Hung {
				hangs++
				if len(o.Stuck) == 0 {
					t.Errorf("victim %d %s: hang without stuck diagnostic", victim, o.Point)
				}
			}
			if o.CrashSection == memmodel.SecRemainder && !o.Live() {
				t.Errorf("victim %d %s: remainder-section crash wedged survivors", victim, o.Point)
			}
		}
		if victim == sc.NReaders && hangs == 0 {
			t.Errorf("no crash point hangs the writer sweep; expected CS crashes to wedge (non-recoverable lock)")
		}
	}
}

// TestCrashSweepMootPoint checks the beyond-the-end crash point: the
// victim finishes first, nothing is injected, and the run completes.
func TestCrashSweepMootPoint(t *testing.T) {
	sc := Scenario{NReaders: 1, NWriters: 1, ReaderPassages: 1, WriterPassages: 1}
	ref := Run(baseline.NewCentralized(), sc)
	if !ref.OK() {
		t.Fatalf("reference: %s", ref.Failures())
	}
	out := RunCrash(baseline.NewCentralized(),
		Scenario{NReaders: 1, NWriters: 1, ReaderPassages: 1, WriterPassages: 1},
		fault.Point{Victim: 0, Step: ref.Steps})
	if out.Crashed {
		t.Error("crash point past the victim's completion must be moot")
	}
	if out.CrashSection != memmodel.SecRemainder {
		t.Errorf("CrashSection = %v, want remainder", out.CrashSection)
	}
	if !out.Live() || !out.Safe() {
		t.Errorf("moot point outcome not live+safe: %+v", out)
	}
}

// writeSpinTAS is a test-and-set lock whose waiters busy-wait by writing a
// scratch variable instead of Awaiting the lock word. Every iteration is
// a step, so the no-progress watchdog never sees the waiters blocked: if
// the holder crashes inside the CS the survivors livelock, and only the
// step budget ends the run.
type writeSpinTAS struct {
	lock, scratch memmodel.Var
}

func (l *writeSpinTAS) Name() string { return "write-spin-tas" }

func (l *writeSpinTAS) Init(a memmodel.Allocator, _, _ int) error {
	l.lock = a.Alloc("L", 0)
	l.scratch = a.Alloc("spin", 0)
	return nil
}

func (l *writeSpinTAS) enter(p memmodel.Proc) {
	for {
		if _, ok := p.CAS(l.lock, 0, 1); ok {
			return
		}
		p.Write(l.scratch, uint64(p.ID()))
	}
}

func (l *writeSpinTAS) ReaderEnter(p memmodel.Proc, _ int) { l.enter(p) }
func (l *writeSpinTAS) ReaderExit(p memmodel.Proc, _ int)  { p.Write(l.lock, 0) }
func (l *writeSpinTAS) WriterEnter(p memmodel.Proc, _ int) { l.enter(p) }
func (l *writeSpinTAS) WriterExit(p memmodel.Proc, _ int)  { p.Write(l.lock, 0) }
func (l *writeSpinTAS) Props() memmodel.Props              { return memmodel.Props{UsesCAS: true} }

// TestCrashSweepLivelockEndsOnBudget: a row that would run forever ends on
// its step budget, deterministically. Crashing the holder of a write-spin
// lock inside its CS livelocks the survivors; those rows must end
// BudgetExceeded, with identical outcomes at one and two workers, and
// keep-going must not turn them into row failures.
func TestCrashSweepLivelockEndsOnBudget(t *testing.T) {
	newAlg := func() memmodel.Algorithm { return &writeSpinTAS{} }
	var want string
	for _, tc := range []struct {
		workers   int
		keepGoing bool
	}{{1, false}, {2, false}, {1, true}, {2, true}} {
		sc := Scenario{NReaders: 1, NWriters: 1, ReaderPassages: 1, WriterPassages: 1,
			MaxSteps: 2000, Parallel: tc.workers, Robust: &RobustOptions{KeepGoing: tc.keepGoing}}
		outs, err := CrashSweep(newAlg, sc, 0, nil)
		if err != nil {
			t.Fatalf("workers=%d keep-going=%v: %v", tc.workers, tc.keepGoing, err)
		}
		budget := 0
		for _, o := range outs {
			if o.BudgetExceeded {
				budget++
			}
			if o.Err != nil || o.Hung || !o.Safe() {
				t.Errorf("workers=%d keep-going=%v %s: err=%v hung=%v ME=%v",
					tc.workers, tc.keepGoing, o.Point, o.Err, o.Hung, o.MEViolations)
			}
		}
		if budget == 0 || budget == len(outs) {
			t.Errorf("workers=%d keep-going=%v: %d of %d rows hit the step budget, want some but not all",
				tc.workers, tc.keepGoing, budget, len(outs))
		}
		got := fmt.Sprintf("%+v", outs)
		if want == "" {
			want = got
		} else if got != want {
			t.Errorf("workers=%d keep-going=%v: outcomes differ from the serial sweep:\n got %s\nwant %s",
				tc.workers, tc.keepGoing, got, want)
		}
	}
}
