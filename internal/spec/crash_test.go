package spec

import (
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
