package sim

import (
	"strings"
	"testing"

	"repro/internal/memmodel"
)

// stallFixture builds a producer/consumer pair: p0 awaits v==1, p1 writes
// it after a couple of warm-up reads. Stalling p1 delays or dooms p0.
func stallFixture(t *testing.T) (*Runner, memmodel.Var) {
	t.Helper()
	r := New(Config{})
	v := r.Alloc("v", 0)
	r.AddProc(func(p Proc) {
		p.Await(v, func(x uint64) bool { return x == 1 })
		p.Read(v)
	})
	r.AddProc(func(p Proc) {
		p.Read(v)
		p.Read(v)
		p.Write(v, 1)
	})
	if err := r.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(r.Close)
	return r, v
}

// anyAtBarrier reports whether some process of r is blocked at a barrier.
func anyAtBarrier(r *Runner) bool {
	for id := 0; id < r.NumProcs(); id++ {
		if r.IsAtBarrier(id) {
			return true
		}
	}
	return false
}

func runToEnd(t *testing.T, r *Runner) error {
	t.Helper()
	for {
		progressed, err := r.Step()
		if err != nil {
			return err
		}
		if !progressed {
			if !r.Terminated() && !anyAtBarrier(r) {
				t.Fatal("quiesced without terminating and without barriers")
			}
			return nil
		}
	}
}

// TestStallErrors pins Stall/Resume misuse: unknown ids, finished, crashed
// and double-stalled processes all error; Resume of a non-stalled process
// errors.
func TestStallErrors(t *testing.T) {
	r, _ := stallFixture(t)
	if err := r.Stall(-1, Forever); err == nil {
		t.Error("Stall(-1) must error")
	}
	if err := r.Stall(2, 1); err == nil {
		t.Error("Stall of unknown process must error")
	}
	if err := r.Resume(0); err == nil {
		t.Error("Resume of a non-stalled process must error")
	}
	if err := r.Stall(1, Forever); err != nil {
		t.Fatal(err)
	}
	if err := r.Stall(1, 5); err == nil {
		t.Error("double Stall must error")
	}
	if err := r.Crash(1); err != nil {
		t.Fatal(err)
	}
	if r.IsStalled(1) {
		t.Error("crash must supersede the stall")
	}
	if err := r.Stall(1, 1); err == nil {
		t.Error("Stall of a crashed process must error")
	}
}

// Forever mirrors fault.Forever without importing the fault package (which
// would be an upward dependency from sim's tests).
const Forever = -1

// TestStallDelaysCompletion: a finite stall pauses the victim for its
// duration, then the execution completes normally with every step intact.
func TestStallDelaysCompletion(t *testing.T) {
	r, v := stallFixture(t)
	if err := r.Stall(1, 3); err != nil {
		t.Fatal(err)
	}
	if !r.IsStalled(1) {
		t.Fatal("IsStalled(1) = false after Stall")
	}
	if got := len(r.Stalled()); got != 1 {
		t.Fatalf("len(Stalled()) = %d, want 1", got)
	}
	if err := runToEnd(t, r); err != nil {
		t.Fatalf("finite stall must not wedge: %v", err)
	}
	if !r.Terminated() {
		t.Fatal("execution did not terminate")
	}
	if got := r.Value(v); got != 1 {
		t.Errorf("v = %d after completion, want 1", got)
	}
	if r.IsStalled(1) {
		t.Error("stall must have expired")
	}
}

// TestStallFastForward: when the only runnable process is finitely
// stalled, the runner fast-forwards the stall instead of reporting a
// wedge — a delayed-but-alive process eventually takes its step.
func TestStallFastForward(t *testing.T) {
	r, _ := stallFixture(t)
	// A duration far beyond anything the other process can burn stepping.
	if err := r.Stall(1, 1_000_000); err != nil {
		t.Fatal(err)
	}
	if err := runToEnd(t, r); err != nil {
		t.Fatalf("fast-forward must rescue the finite stall: %v", err)
	}
	if r.StepCount() > 100 {
		t.Errorf("termination took %d steps; fast-forward did not kick in", r.StepCount())
	}
}

// TestStallResume: an indefinite stall holds until Resume, after which the
// execution completes.
func TestStallResume(t *testing.T) {
	r, _ := stallFixture(t)
	if err := r.Stall(1, Forever); err != nil {
		t.Fatal(err)
	}
	npe := driveToWedge(t, r)
	if len(npe.Stalled) != 1 || npe.Stalled[0].Proc != 1 {
		t.Fatalf("diagnostic Stalled = %+v, want p1", npe.Stalled)
	}
	if err := r.Resume(1); err != nil {
		t.Fatal(err)
	}
	if r.IsStalled(1) {
		t.Error("IsStalled after Resume")
	}
	if err := runToEnd(t, r); err != nil {
		t.Fatalf("resumed execution must complete: %v", err)
	}
	if !r.Terminated() {
		t.Error("execution did not terminate after Resume")
	}
}

// TestStalledExcludedFromPoised: a stalled process is not schedulable and
// PendingOf does not report it poised.
func TestStalledExcludedFromPoised(t *testing.T) {
	r, _ := stallFixture(t)
	if _, poised := r.PendingOf(1); !poised {
		t.Fatal("p1 must start poised")
	}
	if err := r.Stall(1, Forever); err != nil {
		t.Fatal(err)
	}
	if _, poised := r.PendingOf(1); poised {
		t.Error("stalled p1 still reported poised")
	}
	for _, op := range r.Poised() {
		if op.Proc == 1 {
			t.Error("stalled p1 still in Poised()")
		}
	}
	if !r.Alive(1) {
		t.Error("a stalled process is alive")
	}
}

// TestStallDoomedClassification: survivors blocked behind an indefinitely
// stalled victim are classified doomed, and the formatted diagnostic names
// the three populations (satellite: watchdog diagnostics).
func TestStallDoomedClassification(t *testing.T) {
	r := New(Config{})
	v := r.Alloc("gate", 0)
	w := r.Alloc("other", 0)
	r.AddProc(func(p Proc) { // p0: doomed survivor
		p.Await(v, func(x uint64) bool { return x == 1 })
	})
	r.AddProc(func(p Proc) { // p1: the stall victim, would unblock p0
		p.Read(v)
		p.Write(v, 1)
	})
	r.AddProc(func(p Proc) { // p2: crash victim
		p.Read(w)
		p.Read(w)
		p.Read(w)
	})
	if err := r.Start(); err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if err := r.Stall(1, Forever); err != nil {
		t.Fatal(err)
	}
	if err := r.Crash(2); err != nil {
		t.Fatal(err)
	}
	npe := driveToWedge(t, r)
	if len(npe.Stuck) != 1 || npe.Stuck[0].Proc != 0 || !npe.Stuck[0].Doomed {
		t.Fatalf("Stuck = %+v, want p0 doomed", npe.Stuck)
	}
	if len(npe.Stalled) != 1 || npe.Stalled[0].Proc != 1 || !npe.Stalled[0].Indefinite {
		t.Fatalf("Stalled = %+v, want p1 indefinite", npe.Stalled)
	}
	if len(npe.CrashedProcs) != 1 || npe.CrashedProcs[0] != 2 {
		t.Fatalf("CrashedProcs = %v, want [2]", npe.CrashedProcs)
	}
	msg := npe.Error()
	for _, want := range []string{
		"(crashed: [2])",
		"p1 stalled in",
		"(indefinite, since step",
		"p0 doomed in",
		"awaiting gate=0",
	} {
		if !strings.Contains(msg, want) {
			t.Errorf("diagnostic missing %q:\n%s", want, msg)
		}
	}
	if strings.Contains(msg, "p0 blocked") {
		t.Errorf("doomed survivor rendered as merely blocked:\n%s", msg)
	}
}

// TestStallBenignTermination: when every survivor completes and only an
// indefinitely stalled victim remains, the watchdog reports an empty Stuck
// — the benign fail-slow outcome, distinguishable from a doomed wedge.
func TestStallBenignTermination(t *testing.T) {
	r := New(Config{})
	v := r.Alloc("v", 0)
	r.AddProc(func(p Proc) { // survivor, independent of p1
		p.Read(v)
		p.Read(v)
	})
	r.AddProc(func(p Proc) { // victim
		p.Read(v)
		p.Read(v)
		p.Read(v)
	})
	if err := r.Start(); err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if err := r.Stall(1, Forever); err != nil {
		t.Fatal(err)
	}
	npe := driveToWedge(t, r)
	if len(npe.Stuck) != 0 {
		t.Fatalf("Stuck = %+v, want empty (survivors all done)", npe.Stuck)
	}
	if len(npe.Stalled) != 1 {
		t.Fatalf("Stalled = %+v, want the victim only", npe.Stalled)
	}
	if !strings.Contains(npe.Error(), "p1 stalled in") {
		t.Errorf("diagnostic: %s", npe.Error())
	}
}

// TestStalledProcString pins both StalledProc renderings.
func TestStalledProcString(t *testing.T) {
	fin := StalledProc{Proc: 3, Section: memmodel.SecEntry, Since: 10, ResumeAt: 17}
	if got := fin.String(); got != "p3 stalled in entry (since step 10, resumes at step 17)" {
		t.Errorf("finite rendering: %q", got)
	}
	inf := StalledProc{Proc: 4, Section: memmodel.SecCS, Indefinite: true, Since: 2}
	if got := inf.String(); got != "p4 stalled in cs (indefinite, since step 2)" {
		t.Errorf("indefinite rendering: %q", got)
	}
}

// TestStuckProcString pins the blocked vs doomed renderings.
func TestStuckProcString(t *testing.T) {
	s := StuckProc{Proc: 1, Section: memmodel.SecEntry,
		VarNames: []string{"x"}, Values: []uint64{7}}
	if got := s.String(); got != "p1 blocked in entry awaiting x=7" {
		t.Errorf("blocked rendering: %q", got)
	}
	s.Doomed = true
	if got := s.String(); got != "p1 doomed in entry awaiting x=7" {
		t.Errorf("doomed rendering: %q", got)
	}
}
