package fault

import (
	"errors"
	"testing"

	"repro/internal/memmodel"
	"repro/internal/sim"
)

// TestDriveStallFiniteCompletes: a finite stall of the producer only
// delays the consumer; the drive completes with the write in effect.
func TestDriveStallFiniteCompletes(t *testing.T) {
	r, flag := producerConsumer(t)
	defer r.Close()
	ev, err := Drive(r, Plan{Stalls: []StallPoint{{Victim: 0, Step: 0, Duration: 7}}})
	events := ev.Stalls
	if err != nil {
		t.Fatalf("finite stall wedged: %v", err)
	}
	if len(events) != 1 || !events[0].Stalled {
		t.Fatalf("events = %+v, want one applied stall", events)
	}
	if events[0].StallStep != 0 {
		t.Errorf("StallStep = %d, want 0", events[0].StallStep)
	}
	if !r.Terminated() {
		t.Error("drive returned nil without termination")
	}
	if got := r.Value(flag); got != 1 {
		t.Errorf("flag = %d, want 1 (stalled producer must still write)", got)
	}
}

// TestDriveStallIndefiniteWedges: stalling the producer forever dooms the
// consumer, and the returned diagnostic attributes the wedge.
func TestDriveStallIndefiniteWedges(t *testing.T) {
	r, _ := producerConsumer(t)
	defer r.Close()
	_, err := Drive(r, Plan{Stalls: []StallPoint{{Victim: 0, Step: 0, Duration: Forever}}})
	var np *sim.NoProgressError
	if !errors.As(err, &np) {
		t.Fatalf("err = %v, want *sim.NoProgressError", err)
	}
	if len(np.Stalled) != 1 || np.Stalled[0].Proc != 0 || !np.Stalled[0].Indefinite {
		t.Fatalf("Stalled = %+v, want p0 indefinite", np.Stalled)
	}
	if len(np.Stuck) != 1 || np.Stuck[0].Proc != 1 || !np.Stuck[0].Doomed {
		t.Fatalf("Stuck = %+v, want p1 doomed", np.Stuck)
	}
}

// TestDriveStallSkipsMootPoints: points against finished or already
// stalled victims are skipped and reported unapplied.
func TestDriveStallSkipsMootPoints(t *testing.T) {
	r, _ := producerConsumer(t)
	defer r.Close()
	ev, err := Drive(r, Plan{Stalls: []StallPoint{
		{Victim: 0, Step: 0, Duration: 3},
		{Victim: 0, Step: 1, Duration: 5},     // victim still stalled: moot
		{Victim: 0, Step: 1_000, Duration: 1}, // due only after termination: moot
	}})
	events := ev.Stalls
	if err != nil {
		t.Fatalf("drive: %v", err)
	}
	if !events[0].Stalled {
		t.Error("first point must apply")
	}
	if events[1].Stalled {
		t.Error("second point fired while the victim was still stalled; must be moot")
	}
	if events[2].Stalled {
		t.Error("point far past termination must be moot")
	}
}

// TestDriveMixedCrashSupersedesStall: a crash and a stall due at the same
// boundary against the same victim — the crash wins, the stall is moot,
// and the consumer's wedge is attributed to the crash.
func TestDriveMixedCrashSupersedesStall(t *testing.T) {
	r, _ := producerConsumer(t)
	defer r.Close()
	ev, err := Drive(r, Plan{
		Crashes: []Point{{Victim: 0, Step: 0}},
		Stalls:  []StallPoint{{Victim: 0, Step: 0, Duration: Forever}}})
	events := ev.Stalls
	var np *sim.NoProgressError
	if !errors.As(err, &np) {
		t.Fatalf("err = %v, want *sim.NoProgressError", err)
	}
	if events[0].Stalled {
		t.Error("stall against a just-crashed victim must be moot")
	}
	if len(np.CrashedProcs) != 1 || np.CrashedProcs[0] != 0 {
		t.Errorf("CrashedProcs = %v, want [0]", np.CrashedProcs)
	}
	if len(np.Stalled) != 0 {
		t.Errorf("Stalled = %+v, want empty (crash superseded)", np.Stalled)
	}
	if len(np.Stuck) != 1 || !np.Stuck[0].Doomed {
		t.Errorf("Stuck = %+v, want the doomed consumer", np.Stuck)
	}
}

// TestDriveStallRecordsSection: the event captures the section the victim
// occupied when it stalled.
func TestDriveStallRecordsSection(t *testing.T) {
	r := sim.New(sim.Config{})
	v := r.Alloc("v", 0)
	r.AddProc(func(p sim.Proc) {
		p.Section(memmodel.SecEntry)
		p.Read(v)
		p.Section(memmodel.SecCS)
		p.Read(v)
		p.Section(memmodel.SecRemainder)
	})
	if err := r.Start(); err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	ev, err := Drive(r, Plan{Stalls: []StallPoint{{Victim: 0, Step: 1, Duration: 2}}})
	events := ev.Stalls
	if err != nil {
		t.Fatal(err)
	}
	if !events[0].Stalled || events[0].StallSection != memmodel.SecCS {
		t.Errorf("event = %+v, want applied in cs", events[0])
	}
}

// TestExhaustiveStallPoints covers every boundary inclusive of both ends.
func TestExhaustiveStallPoints(t *testing.T) {
	pts := ExhaustiveStallPoints(3, 5, Forever)
	if len(pts) != 6 {
		t.Fatalf("len = %d, want 6", len(pts))
	}
	for k, pt := range pts {
		want := StallPoint{Victim: 3, Step: k, Duration: Forever}
		if pt != want {
			t.Errorf("pts[%d] = %+v, want %+v", k, pt, want)
		}
	}
}

// TestRandomStallPointsDeterministic: the sample is a pure function of the
// seed, locations are distinct, durations are Forever or in [1, max].
func TestRandomStallPointsDeterministic(t *testing.T) {
	a := RandomStallPoints(7, []int{0, 1}, 50, 30, 9)
	b := RandomStallPoints(7, []int{0, 1}, 50, 30, 9)
	if len(a) != 30 || len(b) != 30 {
		t.Fatalf("lengths %d/%d, want 30", len(a), len(b))
	}
	seen := make(map[Point]bool)
	finite, forever := 0, 0
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("point %d differs: %+v vs %+v", i, a[i], b[i])
		}
		loc := Point{Victim: a[i].Victim, Step: a[i].Step}
		if seen[loc] {
			t.Errorf("duplicate location %+v", loc)
		}
		seen[loc] = true
		switch {
		case a[i].Indefinite():
			forever++
		case a[i].Duration >= 1 && a[i].Duration <= 9:
			finite++
		default:
			t.Errorf("duration %d out of range", a[i].Duration)
		}
	}
	if finite == 0 || forever == 0 {
		t.Errorf("duration mix finite=%d forever=%d; want both populated", finite, forever)
	}
	if RandomStallPoints(1, nil, 50, 5, 3) != nil {
		t.Error("empty victims must yield nil")
	}
}

// TestStallPointString pins both renderings.
func TestStallPointString(t *testing.T) {
	if got := (StallPoint{Victim: 2, Step: 9, Duration: Forever}).String(); got != "stall p2 @9 forever" {
		t.Errorf("indefinite: %q", got)
	}
	if got := (StallPoint{Victim: 0, Step: 3, Duration: 12}).String(); got != "stall p0 @3 for 12" {
		t.Errorf("finite: %q", got)
	}
}
