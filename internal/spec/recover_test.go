package spec

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/memmodel"
	"repro/internal/recoverable"
	"repro/internal/sched"
	"repro/internal/trace"
)

func newRCentralized() memmodel.RecoverableAlgorithm { return recoverable.NewCentralized() }
func newRAF() memmodel.RecoverableAlgorithm          { return recoverable.NewAF(core.FLog) }

func recoverScenario(nR, nW int) Scenario {
	return Scenario{NReaders: nR, NWriters: nW, ReaderPassages: 2, WriterPassages: 2, CSReads: 1}
}

func requireAllOK(t *testing.T, outs []*RecoverOutcome) {
	t.Helper()
	if len(outs) == 0 {
		t.Fatal("empty sweep")
	}
	for _, o := range outs {
		if !o.OK() {
			t.Errorf("%s %v: %s", o.Algorithm, o.Points, o.Failures())
		}
	}
}

// TestRunCrashRecoverNoPoints: the harness without crashes is just a
// passage-quota run; verdict and event lists stay empty.
func TestRunCrashRecoverNoPoints(t *testing.T) {
	out := RunCrashRecover(newRCentralized(), recoverScenario(2, 1), nil)
	if !out.OK() {
		t.Fatalf("crash-free run failed: %s", out.Failures())
	}
	if out.Crashes != 0 || out.Restarts != 0 || len(out.Recoveries) != 0 {
		t.Errorf("crash-free run reports crashes=%d restarts=%d recoveries=%v",
			out.Crashes, out.Restarts, out.Recoveries)
	}
	if out.RecoveryRMR != 0 || out.RecoverySteps != 0 {
		t.Errorf("crash-free run billed recovery cost: %d RMR, %d steps",
			out.RecoveryRMR, out.RecoverySteps)
	}
}

// TestRunCrashRecoverMatchesRun: with no restart points, the recovery
// harness is the plain harness. Recovery sweeps take their reference run
// from RunCrashRecover and crash sweeps from Run, so the two must execute
// the same trace step for step, with the same per-process passage counts
// and RMR totals.
func TestRunCrashRecoverMatchesRun(t *testing.T) {
	for _, tc := range []struct {
		name   string
		newAlg func() memmodel.RecoverableAlgorithm
	}{{"r-centralized", newRCentralized}, {"r-af", newRAF}} {
		for _, sc := range []Scenario{recoverScenario(2, 1), recoverScenario(3, 2)} {
			for _, seed := range []int64{-1, 1, 7} {
				mk := func(events *[]trace.Event) Scenario {
					run := sc
					run.Scheduler = sched.NewRoundRobin()
					if seed >= 0 {
						run.Scheduler = sched.NewRandom(seed)
					}
					run.Observer = func(e trace.Event) { *events = append(*events, e) }
					return run
				}
				name := fmt.Sprintf("%s n=%d m=%d seed=%d", tc.name, sc.NReaders, sc.NWriters, seed)
				var plainTrace, recTrace []trace.Event
				rep := Run(tc.newAlg(), mk(&plainTrace))
				if !rep.OK() {
					t.Fatalf("%s: Run: %s", name, rep.Failures())
				}
				var c runnerCache
				out := runCrashRecoverOn(&c, tc.newAlg(), mk(&recTrace), nil)
				if !out.OK() {
					c.close()
					t.Fatalf("%s: RunCrashRecover: %s", name, out.Failures())
				}
				if out.Steps != rep.Steps {
					t.Errorf("%s: %d steps, Run took %d", name, out.Steps, rep.Steps)
				}
				if !reflect.DeepEqual(recTrace, plainTrace) {
					t.Errorf("%s: traces differ (%d vs %d events)", name, len(recTrace), len(plainTrace))
				}
				for pid, want := range append(rep.ReaderAccounts, rep.WriterAccounts...) {
					got := c.r.Account(pid)
					if len(got.Passages) != len(want.Passages) || got.TotalRMR != want.TotalRMR {
						t.Errorf("%s: p%d has %d passages and %d RMRs, Run has %d and %d", name, pid,
							len(got.Passages), got.TotalRMR, len(want.Passages), want.TotalRMR)
					}
				}
				c.close()
			}
		}
	}
}

// TestRecoverySweepCentralized is the exhaustive single-crash gate on the
// recoverable centralized lock, both victim classes, delay 0 and nonzero.
func TestRecoverySweepCentralized(t *testing.T) {
	sc := recoverScenario(2, 1)
	for _, victim := range []int{0, 2} { // reader r0, writer w0
		for _, delay := range []int{0, 3} {
			outs, err := RecoverySweep(newRCentralized, sc, victim, delay, nil)
			if err != nil {
				t.Fatalf("victim=%d delay=%d: %v", victim, delay, err)
			}
			requireAllOK(t, outs)
		}
	}
}

// TestRecoverySweepFast is the configuration CI runs under -race: one
// exhaustive centralized sweep plus a recrash batch, small populations.
func TestRecoverySweepFast(t *testing.T) {
	outs, err := RecoverySweep(newRCentralized, recoverScenario(2, 1), 2, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	requireAllOK(t, outs)
	recrash, err := RecoverySweepRecrash(newRCentralized, recoverScenario(2, 1), 2, 4, []int{1, 2}, nil)
	if err != nil {
		t.Fatal(err)
	}
	requireAllOK(t, recrash)
}

// TestRecoverySweepRecrashHitsRecovery: the double-crash sweep must
// include configurations whose second crash lands inside the recovery
// section, and all of them must stay safe and live.
func TestRecoverySweepRecrashHitsRecovery(t *testing.T) {
	outs, err := RecoverySweepRecrash(newRCentralized, recoverScenario(2, 2), 2, 1, []int{1, 2, 3}, nil)
	if err != nil {
		t.Fatal(err)
	}
	requireAllOK(t, outs)
	inRecovery := 0
	for _, o := range outs {
		if o.CrashedInRecovery() {
			inRecovery++
		}
	}
	if inRecovery == 0 {
		t.Error("no configuration crashed the recovery section itself")
	}
}

// TestRecoverySweepSampledAF: seeded sampled sweep over the recoverable
// A_f, both victim classes drawn at random.
func TestRecoverySweepSampledAF(t *testing.T) {
	sc := recoverScenario(3, 2)
	outs, err := RecoverySweepSampled(newRAF, sc, []int{0, 1, 3, 4}, []int64{1, 2}, 6, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	requireAllOK(t, outs)
}

// TestRecoverySweepRejectsBrokenReference: a scenario the algorithm cannot
// complete (population over the word-layout cap) surfaces as a reference
// failure, not a silent empty sweep.
func TestRecoverySweepRejectsBrokenReference(t *testing.T) {
	if _, err := RecoverySweep(newRCentralized, recoverScenario(49, 1), 0, 0, nil); err == nil {
		t.Error("reference failure not reported")
	}
}

// TestRecoveryRMRMeasured: a crash inside the entry section forces a
// nontrivial recovery section whose RMR cost lands in RecoveryRMR.
func TestRecoveryRMRMeasured(t *testing.T) {
	sc := recoverScenario(2, 1)
	outs, err := RecoverySweep(newRCentralized, sc, 2, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	billed := 0
	for _, o := range outs {
		if o.Crashes > 0 && o.RecoveryRMR > 0 {
			billed++
		}
	}
	if billed == 0 {
		t.Error("no sweep configuration billed recovery-section RMRs")
	}
}

// TestRecoverOutcomeVerdictCoverage: across the exhaustive sweep all three
// recovery verdicts must occur (abort for pre-registration crashes, CS for
// in-lock crashes, done for mid-exit crashes).
func TestRecoverOutcomeVerdictCoverage(t *testing.T) {
	seen := make(map[memmodel.Recovery]int)
	for _, victim := range []int{0, 2} {
		outs, err := RecoverySweep(newRCentralized, recoverScenario(2, 1), victim, 0, nil)
		if err != nil {
			t.Fatal(err)
		}
		for _, o := range outs {
			for _, rec := range o.Recoveries {
				seen[rec]++
			}
		}
	}
	for _, rec := range []memmodel.Recovery{memmodel.RecoverAbort, memmodel.RecoverCS, memmodel.RecoverDone} {
		if seen[rec] == 0 {
			t.Errorf("verdict %v never observed (got %v)", rec, seen)
		}
	}
}

// TestRecoverySweepSampledDeduplicates pins the duplicate-point fix: with
// a tiny step range and many draws per seed, the pigeonhole principle
// forces duplicates, and the sweep must run strictly fewer executions than
// draws.
func TestRecoverySweepSampledDeduplicates(t *testing.T) {
	sc := Scenario{NReaders: 1, NWriters: 1, ReaderPassages: 1, WriterPassages: 1}
	rr := func(int64) sched.Scheduler { return sched.NewRoundRobin() }
	outs, err := RecoverySweepSampled(newRCentralized, sc, []int{0}, []int64{42}, 50, 0, rr)
	if err != nil {
		t.Fatal(err)
	}
	if len(outs) >= 50 {
		t.Fatalf("sweep ran %d executions for 50 draws over a tiny range; dedup not applied", len(outs))
	}
	seen := make(map[fault.RestartPoint]bool)
	for _, o := range outs {
		if seen[o.Points[0]] {
			t.Errorf("duplicate point %v survived dedup", o.Points[0])
		}
		seen[o.Points[0]] = true
	}
	requireAllOK(t, outs)
	// Determinism: the same seed yields the same deduplicated point list.
	again, err := RecoverySweepSampled(newRCentralized, sc, []int{0}, []int64{42}, 50, 0, rr)
	if err != nil {
		t.Fatal(err)
	}
	if len(again) != len(outs) {
		t.Fatalf("re-run produced %d points, first run %d", len(again), len(outs))
	}
	for i := range outs {
		if outs[i].Points[0] != again[i].Points[0] {
			t.Errorf("point %d differs across runs: %v vs %v", i, outs[i].Points[0], again[i].Points[0])
		}
	}
}

// TestRecoverySweepSampledDeterministic pins that the sampled sweep is a
// pure function of its seeds.
func TestRecoverySweepSampledDeterministic(t *testing.T) {
	sc := recoverScenario(2, 1)
	run := func() string {
		outs, err := RecoverySweepSampled(newRCentralized, sc, []int{0, 2}, []int64{1, 2}, 4, 1, nil)
		if err != nil {
			t.Fatal(err)
		}
		if len(outs) == 0 {
			t.Fatal("empty sampled sweep")
		}
		requireAllOK(t, outs)
		return renderPtrs(outs)
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("outcomes diverged across identical seeds:\n%s\nvs\n%s", a, b)
	}
}
