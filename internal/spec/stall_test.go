package spec

import (
	"reflect"
	"testing"

	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/memmodel"
	"repro/internal/sched"
)

// TestStallSweepFast exhaustively stall-sweeps a tiny centralized scenario
// for both victim classes and checks the fail-slow liveness contract. It
// is small enough to run under -race in CI.
func TestStallSweepFast(t *testing.T) {
	// CSReads makes the critical section contain actual shared-memory
	// steps, so stall points can land inside it.
	sc := Scenario{NReaders: 2, NWriters: 1, ReaderPassages: 2, WriterPassages: 1, CSReads: 1}
	newAlg := func() memmodel.Algorithm { return baseline.NewCentralized() }
	for _, victim := range []int{0, sc.NReaders} {
		outs, err := StallSweep(newAlg, sc, victim, nil)
		if err != nil {
			t.Fatalf("victim %d: %v", victim, err)
		}
		if len(outs) == 0 {
			t.Fatalf("victim %d: empty sweep", victim)
		}
		if v := StallViolations(outs); len(v) != 0 {
			t.Fatalf("victim %d: contract violations:\n%v", victim, v)
		}
		doomedCS := 0
		for _, o := range outs {
			if !o.Point.Indefinite() {
				if !o.Completed {
					t.Errorf("victim %d %s: finite stall did not complete", victim, o.Point)
				}
				continue
			}
			if o.StallSection == memmodel.SecCS && o.Doomed() {
				doomedCS++
				for _, s := range o.DoomedProcs {
					if !s.Doomed {
						t.Errorf("victim %d %s: stuck p%d not marked doomed", victim, o.Point, s.Proc)
					}
				}
			}
		}
		if doomedCS == 0 {
			t.Errorf("victim %d: no indefinite in-CS stall doomed anyone; the sweep is not reaching the CS", victim)
		}
	}
}

// TestStallSweepAF runs the exhaustive sweep against the paper's A_f
// construction with both a reader and a writer victim on the E13-sized
// scenario, asserting the full section-sensitive contract.
func TestStallSweepAF(t *testing.T) {
	sc := Scenario{NReaders: 2, NWriters: 2, ReaderPassages: 2, WriterPassages: 2, CSReads: 1}
	newAlg := func() memmodel.Algorithm { return core.New(core.FLog) }
	for _, victim := range []int{0, sc.NReaders} {
		outs, err := StallSweep(newAlg, sc, victim, nil)
		if err != nil {
			t.Fatalf("victim %d: %v", victim, err)
		}
		if v := StallViolations(outs); len(v) != 0 {
			t.Fatalf("victim %d: contract violations:\n%v", victim, v)
		}
		remainder, doomed := 0, 0
		for _, o := range outs {
			if o.Point.Indefinite() && o.StallSection == memmodel.SecRemainder {
				remainder++
				if !o.SurvivorsDone {
					t.Errorf("victim %d %s: remainder stall wedged survivors", victim, o.Point)
				}
			}
			if o.Doomed() {
				doomed++
			}
		}
		if remainder == 0 {
			t.Errorf("victim %d: sweep produced no remainder-section stall", victim)
		}
		if doomed == 0 {
			t.Errorf("victim %d: no stall point doomed anyone; non-recoverable locks must wedge on in-CS stalls", victim)
		}
	}
}

// TestStallMootPoint checks the beyond-the-end stall point: the victim
// finishes first, nothing is injected, and the run completes.
func TestStallMootPoint(t *testing.T) {
	sc := Scenario{NReaders: 1, NWriters: 1, ReaderPassages: 1, WriterPassages: 1}
	ref := Run(baseline.NewCentralized(), sc)
	if !ref.OK() {
		t.Fatalf("reference: %s", ref.Failures())
	}
	out := RunStall(baseline.NewCentralized(), sc,
		fault.StallPoint{Victim: 0, Step: ref.Steps, Duration: fault.Forever})
	if out.Stalled {
		t.Error("stall point past the victim's completion must be moot")
	}
	if out.StallSection != memmodel.SecRemainder {
		t.Errorf("StallSection = %v, want remainder", out.StallSection)
	}
	if !out.Completed || !out.SurvivorsDone || !out.Safe() || out.Doomed() {
		t.Errorf("moot point outcome not complete+safe: %+v", out)
	}
}

// TestRunStallFiniteDelays pins the fast-forward guarantee at the spec
// level: even a finite stall far longer than the whole execution only
// delays, and the run completes with every quota met.
func TestRunStallFiniteDelays(t *testing.T) {
	sc := Scenario{NReaders: 2, NWriters: 1, ReaderPassages: 2, WriterPassages: 2}
	ref := Run(core.New(core.FOne), sc)
	if !ref.OK() {
		t.Fatalf("reference: %s", ref.Failures())
	}
	for step := 0; step <= ref.Steps; step += ref.Steps / 4 {
		out := RunStall(core.New(core.FOne), sc,
			fault.StallPoint{Victim: sc.NReaders, Step: step, Duration: 100 * ref.Steps})
		if !out.Completed || out.Doomed() || out.Err != nil {
			t.Fatalf("@%d: finite stall must complete: %+v", step, out)
		}
	}
}

// TestRunStallBypassAccounting checks that in-CS stalls of a writer are
// measured by the bypass monitor: the stalled-then-resumed victim's peers
// keep completing passages, so somebody's wait is overtaken, and the
// reported maxima stay within the hard ceiling (N-1) passages-by-others.
func TestRunStallBypassAccounting(t *testing.T) {
	sc := Scenario{NReaders: 2, NWriters: 2, ReaderPassages: 2, WriterPassages: 2}
	ref := Run(core.New(core.FLog), sc)
	if !ref.OK() {
		t.Fatalf("reference: %s", ref.Failures())
	}
	n := sc.NReaders + sc.NWriters
	ceiling := (n - 1) * 2 // peers × their passages
	sawBypass := false
	for step := 0; step <= ref.Steps; step++ {
		out := RunStall(core.New(core.FLog), sc,
			fault.StallPoint{Victim: sc.NReaders, Step: step, Duration: ref.Steps + 1})
		if out.Err != nil || !out.Completed {
			t.Fatalf("@%d: %+v", step, out)
		}
		if len(out.BypassByProc) != n {
			t.Fatalf("@%d: BypassByProc has %d entries, want %d", step, len(out.BypassByProc), n)
		}
		for id, b := range out.BypassByProc {
			if b > ceiling {
				t.Errorf("@%d: p%d bypassed %d times, above the %d ceiling", step, id, b, ceiling)
			}
		}
		if out.MaxReaderBypass > 0 || out.MaxWriterBypass > 0 {
			sawBypass = true
		}
	}
	if !sawBypass {
		t.Error("no stall point produced a single overtake; the bypass monitor is not wired")
	}
}

// TestMixedSweepSampled checks the combined crash+stall model on the
// centralized baseline: safety and watchdog attribution must hold in
// every sampled run even when one victim dies and another goes slow.
func TestMixedSweepSampled(t *testing.T) {
	sc := Scenario{NReaders: 2, NWriters: 2, ReaderPassages: 1, WriterPassages: 1}
	newAlg := func() memmodel.Algorithm { return baseline.NewCentralized() }
	outs, err := MixedSweepSampled(newAlg, sc,
		[]int{0, 1}, []int{2, 3}, []int64{7, 8}, 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(outs) == 0 {
		t.Fatal("empty mixed sweep")
	}
	for _, o := range outs {
		if len(o.CrashPoints) != 1 {
			t.Fatalf("%s: %d crash points recorded, want 1", o.Point, len(o.CrashPoints))
		}
		if !o.Safe() {
			t.Errorf("%s + %s: ME violations %v", o.CrashPoints[0], o.Point, o.MEViolations)
		}
		if o.BudgetExceeded {
			t.Errorf("%s + %s: hang escaped the watchdog", o.CrashPoints[0], o.Point)
		}
		for _, m := range o.Misclassified {
			t.Errorf("%s + %s: %s", o.CrashPoints[0], o.Point, m)
		}
	}
}

// TestMixedSweepSampledDeterministic pins that the sampled sweep is a
// pure function of its seeds.
func TestMixedSweepSampledDeterministic(t *testing.T) {
	sc := Scenario{NReaders: 2, NWriters: 1, ReaderPassages: 1, WriterPassages: 1}
	newAlg := func() memmodel.Algorithm { return baseline.NewCentralized() }
	run := func() []StallOutcome {
		outs, err := MixedSweepSampled(newAlg, sc, []int{0, 2}, []int{1}, []int64{7, 8}, 5, nil)
		if err != nil {
			t.Fatal(err)
		}
		return outs
	}
	a, b := run(), run()
	if len(a) != 10 || len(b) != 10 {
		t.Fatalf("lengths %d/%d, want 10 (2 seeds x 5 collision-free pairs)", len(a), len(b))
	}
	for i := range a {
		if a[i].Point != b[i].Point || !reflect.DeepEqual(a[i].CrashPoints, b[i].CrashPoints) ||
			a[i].Completed != b[i].Completed || a[i].StallSection != b[i].StallSection {
			t.Fatalf("outcome %d diverged across identical seeds:\n%+v\n%+v", i, a[i], b[i])
		}
		if !a[i].Safe() {
			t.Errorf("%s: ME violations %v", a[i].Point, a[i].MEViolations)
		}
		if a[i].BudgetExceeded {
			t.Errorf("%s: step budget hit", a[i].Point)
		}
	}
}

// TestMixedSweepSampledPCT exercises a PCT scheduler factory.
func TestMixedSweepSampledPCT(t *testing.T) {
	sc := Scenario{NReaders: 2, NWriters: 1, ReaderPassages: 1, WriterPassages: 1}
	newAlg := func() memmodel.Algorithm { return core.New(core.FOne) }
	mk := func(seed int64) sched.Scheduler { return sched.NewPCT(seed, 3, 4096) }
	outs, err := MixedSweepSampled(newAlg, sc, []int{0, 2}, []int{1}, []int64{1, 2}, 4, mk)
	if err != nil {
		t.Fatal(err)
	}
	if len(outs) == 0 {
		t.Fatal("empty PCT sweep")
	}
	for _, o := range outs {
		if !o.Safe() {
			t.Errorf("%s + %s: ME violations %v", o.CrashPoints[0], o.Point, o.MEViolations)
		}
		if o.BudgetExceeded {
			t.Errorf("%s + %s: step budget hit", o.CrashPoints[0], o.Point)
		}
		for _, m := range o.Misclassified {
			t.Errorf("%s + %s: %s", o.CrashPoints[0], o.Point, m)
		}
	}
}

// TestStallReaderLiveness is the spec-level Concurrent-Entering axis: in a
// readers-only scenario a reader stalled forever inside the CS must not
// block its siblings under an algorithm with genuine reader concurrency
// (flag-array), while mutex-rw — which serializes readers through its
// tournament mutex — must demonstrably doom them. The latter is the
// negative control: if mutex-rw stops failing here, the gate is broken.
func TestStallReaderLiveness(t *testing.T) {
	sc := Scenario{NReaders: 3, NWriters: 0, ReaderPassages: 2, CSReads: 2}
	inCSStall := func(newAlg func() memmodel.Algorithm) (live, doomed int) {
		t.Helper()
		outs, err := StallSweep(newAlg, sc, 0, nil)
		if err != nil {
			t.Fatal(err)
		}
		if v := StallViolations(outs); len(v) != 0 {
			t.Fatalf("contract violations:\n%v", v)
		}
		for _, o := range outs {
			if !o.Point.Indefinite() || o.StallSection != memmodel.SecCS {
				continue
			}
			if o.SurvivorsDone {
				live++
			}
			if o.Doomed() {
				doomed++
			}
		}
		if live+doomed == 0 {
			t.Fatal("sweep produced no indefinite in-CS stall point")
		}
		return live, doomed
	}

	live, doomed := inCSStall(func() memmodel.Algorithm { return baseline.NewFlagArray() })
	if doomed != 0 {
		t.Errorf("flag-array: %d in-CS stall points doomed sibling readers; Concurrent Entering broken", doomed)
	}
	if live == 0 {
		t.Error("flag-array: no in-CS stall point left siblings live")
	}

	_, doomed = inCSStall(func() memmodel.Algorithm { return baseline.NewMutexRW() })
	if doomed == 0 {
		t.Error("mutex-rw negative control: no in-CS reader stall doomed the siblings — the liveness gate cannot detect busy-waiting on a stalled victim")
	}
}

// TestStallOutcomeFields spot-checks outcome metadata on a single handmade
// point: victim classification and point echo survive the classification
// path.
func TestStallOutcomeFields(t *testing.T) {
	sc := Scenario{NReaders: 1, NWriters: 1, ReaderPassages: 1, WriterPassages: 1}
	pt := fault.StallPoint{Victim: 1, Step: 0, Duration: fault.Forever}
	out := RunStall(baseline.NewCentralized(), sc, pt)
	if !out.VictimIsWriter {
		t.Error("proc 1 of a 1-reader scenario must classify as a writer")
	}
	if out.Point != pt {
		t.Errorf("Point = %+v, want %+v", out.Point, pt)
	}
	if out.Algorithm != "centralized" {
		t.Errorf("Algorithm = %q", out.Algorithm)
	}
	if !reflect.DeepEqual(out.CrashPoints, []fault.Point(nil)) {
		t.Errorf("CrashPoints = %+v, want none", out.CrashPoints)
	}
	// A writer stalled before its very first shared-memory step is already
	// poised inside its entry section (section transitions are local), but
	// has published nothing yet: the lone reader must still finish.
	if !out.Stalled {
		t.Fatal("step-0 stall must be applied")
	}
	if out.StallSection != memmodel.SecEntry {
		t.Errorf("StallSection = %v, want entry", out.StallSection)
	}
	if !out.SurvivorsDone {
		t.Error("survivor reader did not finish under a pre-first-step stall")
	}
}
