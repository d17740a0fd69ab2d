package fault

import (
	"fmt"
	"math/rand"

	"repro/internal/memmodel"
)

// Forever is the StallPoint duration of an indefinite stall: the victim
// never resumes on its own, modeling a fail-slow process whose delay the
// survivors must not depend on.
const Forever = -1

// StallPoint schedules one fail-slow fault: Victim is paused at the
// boundary before the execution's global step index Step, for Duration
// further global steps (Forever for an indefinite stall). Step 0 stalls
// the victim before it takes any step at all.
type StallPoint struct {
	// Victim is the process id to stall.
	Victim int
	// Step is the global step index before which the victim pauses.
	Step int
	// Duration is how many further global steps the victim stays paused.
	// The simulator fast-forwards a finite stall when no other process can
	// step (time passes regardless), so finite durations delay but never
	// wedge. A negative Duration (Forever) never expires.
	Duration int
}

// Indefinite reports whether the stall never expires on its own.
func (p StallPoint) Indefinite() bool { return p.Duration < 0 }

func (p StallPoint) String() string {
	if p.Indefinite() {
		return fmt.Sprintf("stall p%d @%d forever", p.Victim, p.Step)
	}
	return fmt.Sprintf("stall p%d @%d for %d", p.Victim, p.Step, p.Duration)
}

// StallEvent reports what one StallPoint actually did.
type StallEvent struct {
	// Point echoes the scheduled point.
	Point StallPoint
	// Stalled reports whether the stall was applied; false means the
	// victim was already finished, crashed, or still under an earlier
	// stall when the point fired (a moot point).
	Stalled bool
	// StallStep is the global step index at which the stall landed.
	StallStep int
	// StallSection is the passage section the victim occupied when it
	// stalled.
	StallSection memmodel.Section
}

// ExhaustiveStallPoints enumerates every stall point for victim in an
// execution of totalSteps steps, all with the given duration: one
// StallPoint per step boundary, 0 through totalSteps inclusive. Callers
// run one fresh execution per point.
func ExhaustiveStallPoints(victim, totalSteps, duration int) []StallPoint {
	pts := make([]StallPoint, 0, totalSteps+1)
	for k := 0; k <= totalSteps; k++ {
		pts = append(pts, StallPoint{Victim: victim, Step: k, Duration: duration})
	}
	return pts
}

// RandomStallPoints samples count distinct stall points with a seeded
// generator: victims drawn uniformly from victims, steps uniformly from
// [0, maxStep), and each point indefinite with probability 1/2 or finite
// with a duration in [1, maxDuration]. Distinctness is on (victim, step) —
// the duration is drawn after the location — and the sample is
// deterministic per seed.
func RandomStallPoints(seed int64, victims []int, maxStep, count, maxDuration int) []StallPoint {
	if maxDuration < 1 {
		maxDuration = 1
	}
	locs := RandomPoints(seed, victims, maxStep, count)
	if locs == nil {
		return nil
	}
	rng := rand.New(rand.NewSource(seed ^ 0x5ca1ab1e))
	pts := make([]StallPoint, 0, len(locs))
	for _, l := range locs {
		d := Forever
		if rng.Intn(2) == 1 {
			d = 1 + rng.Intn(maxDuration)
		}
		pts = append(pts, StallPoint{Victim: l.Victim, Step: l.Step, Duration: d})
	}
	return pts
}
