package fault

import (
	"errors"
	"testing"

	"repro/internal/memmodel"
	"repro/internal/sim"
)

// producerConsumer builds the smallest scenario with a crash-sensitive
// dependency: process 0 writes flag then scratch; process 1 awaits
// flag == 1. Killing process 0 before its first step wedges process 1.
func producerConsumer(t *testing.T) (*sim.Runner, memmodel.Var) {
	t.Helper()
	r := sim.New(sim.Config{})
	flag := r.Alloc("flag", 0)
	scratch := r.Alloc("scratch", 0)
	r.AddProc(func(p sim.Proc) {
		p.Write(flag, 1)
		p.Write(scratch, 1)
	})
	r.AddProc(func(p sim.Proc) {
		p.Await(flag, func(x uint64) bool { return x == 1 })
	})
	if err := r.Start(); err != nil {
		t.Fatal(err)
	}
	return r, flag
}

func TestCrashBeforeWriteWedgesConsumer(t *testing.T) {
	r, flag := producerConsumer(t)
	defer r.Close()
	_, err := Drive(r, Plan{Crashes: []Point{{Victim: 0, Step: 0}}})
	if err == nil {
		t.Fatal("expected no-progress error")
	}
	if !errors.Is(err, sim.ErrNoProgress) {
		t.Fatalf("err = %v, want an ErrNoProgress match", err)
	}
	var np *sim.NoProgressError
	if !errors.As(err, &np) {
		t.Fatalf("err %T is not *sim.NoProgressError", err)
	}
	if len(np.Stuck) != 1 || np.Stuck[0].Proc != 1 {
		t.Fatalf("Stuck = %+v, want exactly p1", np.Stuck)
	}
	s := np.Stuck[0]
	if len(s.Vars) != 1 || s.Vars[0] != flag || s.VarNames[0] != "flag" || s.Values[0] != 0 {
		t.Errorf("stuck diagnostic = %+v, want flag=0", s)
	}
	if len(np.CrashedProcs) != 1 || np.CrashedProcs[0] != 0 {
		t.Errorf("CrashedProcs = %v, want [0]", np.CrashedProcs)
	}
}

func TestCrashAfterWriteLetsConsumerFinish(t *testing.T) {
	r, _ := producerConsumer(t)
	defer r.Close()
	// Round-robin runs p0's flag write at step 0; killing p0 at step 1
	// leaves its scratch write untaken but p1 unblocked.
	if _, err := Drive(r, Plan{Crashes: []Point{{Victim: 0, Step: 1}}}); err != nil {
		t.Fatalf("Drive: %v", err)
	}
	if !r.Terminated() {
		t.Error("runner not terminated")
	}
	if got := r.Crashed(); len(got) != 1 || got[0] != 0 {
		t.Errorf("Crashed = %v, want [0]", got)
	}
	if r.Done() {
		t.Error("Done must stay false for a crashed process")
	}
}

// TestExhaustiveSweep checks the full crash-point enumeration against the
// hand-derived outcome: only the point before p0's first step hangs p1.
func TestExhaustiveSweep(t *testing.T) {
	ref, _ := producerConsumer(t)
	if err := ref.Run(); err != nil {
		t.Fatal(err)
	}
	total := ref.StepCount()
	ref.Close()
	if total != 3 { // flag write, await satisfaction, scratch write
		t.Fatalf("reference execution took %d steps, want 3", total)
	}
	for _, pt := range ExhaustivePoints(0, total) {
		r, _ := producerConsumer(t)
		_, err := Drive(r, Plan{Crashes: []Point{pt}})
		r.Close()
		if pt.Step == 0 {
			if !errors.Is(err, sim.ErrNoProgress) {
				t.Errorf("%s: err = %v, want no-progress", pt, err)
			}
		} else if err != nil {
			t.Errorf("%s: err = %v, want clean termination", pt, err)
		}
	}
}

func TestDriveSkipsFinishedVictim(t *testing.T) {
	r, _ := producerConsumer(t)
	defer r.Close()
	// p1 finishes at step 1; a later crash point against it is moot.
	if _, err := Drive(r, Plan{Crashes: []Point{{Victim: 1, Step: 3}}}); err != nil {
		t.Fatalf("Drive: %v", err)
	}
	if len(r.Crashed()) != 0 {
		t.Errorf("Crashed = %v, want none", r.Crashed())
	}
}

func TestCrashErrors(t *testing.T) {
	r, _ := producerConsumer(t)
	defer r.Close()
	if err := r.Crash(-1); err == nil {
		t.Error("Crash(-1) accepted")
	}
	if err := r.Crash(2); err == nil {
		t.Error("Crash(2) accepted")
	}
	if err := r.Crash(0); err != nil {
		t.Fatalf("Crash(0): %v", err)
	}
	if err := r.Crash(0); err == nil {
		t.Error("double Crash accepted")
	}
}

func TestCrashFinishedProcessRejected(t *testing.T) {
	r, _ := producerConsumer(t)
	defer r.Close()
	if err := r.Run(); err != nil {
		t.Fatal(err)
	}
	if err := r.Crash(0); err == nil {
		t.Error("Crash on finished process accepted")
	}
}

// TestCrashedProcessNotSchedulable pins the PendingOp-facing behavior the
// injector depends on: a crashed process disappears from Poised and
// PendingOf even though it had a pending operation.
func TestCrashedProcessNotSchedulable(t *testing.T) {
	r, _ := producerConsumer(t)
	defer r.Close()
	if _, ok := r.PendingOf(0); !ok {
		t.Fatal("p0 should be poised before the crash")
	}
	if err := r.Crash(0); err != nil {
		t.Fatal(err)
	}
	if _, ok := r.PendingOf(0); ok {
		t.Error("PendingOf reports a crashed process as poised")
	}
	for _, op := range r.Poised() {
		if op.Proc == 0 {
			t.Error("Poised includes a crashed process")
		}
	}
	if r.Alive(0) {
		t.Error("Alive(0) after crash")
	}
}

// TestCrashAwaitingProcess kills a parked process: the execution must
// terminate cleanly without waking it.
func TestCrashAwaitingProcess(t *testing.T) {
	r2 := sim.New(sim.Config{})
	v := r2.Alloc("v", 0)
	r2.AddProc(func(p sim.Proc) {
		p.Await(v, func(x uint64) bool { return x == 7 })
	})
	r2.AddProc(func(p sim.Proc) {
		p.Write(v, 1) // wakes p0's await check, which fails and re-parks
	})
	if err := r2.Start(); err != nil {
		t.Fatal(err)
	}
	defer r2.Close()
	if _, err := Drive(r2, Plan{Crashes: []Point{{Victim: 0, Step: 3}}}); err != nil {
		t.Fatalf("Drive: %v", err)
	}
	if !r2.Terminated() {
		t.Error("not terminated after crashing the only blocked process")
	}
}

func TestRandomPointsDeterministic(t *testing.T) {
	a := RandomPoints(42, []int{0, 1, 2}, 100, 50)
	b := RandomPoints(42, []int{0, 1, 2}, 100, 50)
	if len(a) != 50 || len(b) != 50 {
		t.Fatalf("lengths %d/%d, want 50", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("point %d differs: %v vs %v", i, a[i], b[i])
		}
		if a[i].Step < 0 || a[i].Step >= 100 || a[i].Victim < 0 || a[i].Victim > 2 {
			t.Errorf("point %v out of bounds", a[i])
		}
	}
	if RandomPoints(1, nil, 100, 5) != nil {
		t.Error("empty victims must yield nil")
	}
}

// TestRandomPointsDistinct is the dedup regression: whatever the density
// of the request, the sample never contains a repeated (victim, step)
// point — a duplicate would re-run the identical execution under a fixed
// scheduler seed and silently skew a sampled sweep's tallies.
func TestRandomPointsDistinct(t *testing.T) {
	cases := []struct {
		name           string
		victims        []int
		maxStep, count int
		wantLen        int
	}{
		{"sparse", []int{0, 1, 2}, 100, 40, 40},
		{"dense", []int{0, 1}, 10, 15, 15},
		{"overfull", []int{0, 1}, 5, 100, 10},
		{"exact", []int{0}, 8, 8, 8},
		{"duplicate victims", []int{0, 0, 1, 1}, 5, 100, 10},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			pts := RandomPoints(99, tc.victims, tc.maxStep, tc.count)
			if len(pts) != tc.wantLen {
				t.Fatalf("len = %d, want %d", len(pts), tc.wantLen)
			}
			seen := make(map[Point]bool, len(pts))
			for _, pt := range pts {
				if seen[pt] {
					t.Errorf("duplicate point %+v", pt)
				}
				seen[pt] = true
				if pt.Step < 0 || pt.Step >= tc.maxStep {
					t.Errorf("point %+v out of step range", pt)
				}
			}
		})
	}
}
