package experiments

import (
	"fmt"
	"math"

	"repro/internal/parwork"
	"repro/internal/sched"
	"repro/internal/spec"
	"repro/internal/tablefmt"
)

// E6Row is one algorithm's property verdicts across the E6 scenario set.
type E6Row struct {
	Alg string
	// MutualExclusion: no CS overlap violations across all runs.
	MutualExclusion bool
	// Progress: every run completed all passages (deadlock freedom and
	// non-starvation for finite workloads).
	Progress bool
	// ReaderOverlap: readers shared the CS in the writers-idle scenario.
	ReaderOverlap bool
	// ExpectOverlap is the algorithm's claim (mutex-rw expects false).
	ExpectOverlap bool
	// BoundedExit: worst exit-section step count stayed within the
	// generic O(log population) bound.
	BoundedExit bool
	// MaxExitSteps is the observed worst exit-section step count.
	MaxExitSteps int
}

// E6Properties checks the Section-5 properties for every algorithm —
// including the ablation variants and the writer-priority composition —
// across random schedules. It errors if any algorithm violates a property
// it claims (see e6Verdict).
func E6Properties(seeds []int64) ([]E6Row, *tablefmt.Table, error) {
	const n, m = 6, 2
	exitBound := int(24*math.Log2(n+m)) + 32
	facs := ExtendedFactories()
	rows := parwork.Do(0, len(facs), nil, func(fi int) E6Row {
		fac := facs[fi]
		row := E6Row{
			Alg:             fac.Name,
			MutualExclusion: true,
			Progress:        true,
			BoundedExit:     true,
			// Every lock here shares the CS among readers except the
			// degenerate mutex baseline. (Concurrent Entering proper —
			// bounded entry steps — is a stronger claim carried in
			// Props; overlap is the observable this column checks.)
			ExpectOverlap: fac.Name != "mutex-rw",
		}
		for _, seed := range seeds {
			rep := spec.Run(fac.New(), spec.Scenario{
				NReaders: n, NWriters: m,
				ReaderPassages: 3, WriterPassages: 3,
				Scheduler: sched.NewRandom(seed),
				CSReads:   2,
			})
			if rep.Err != nil {
				row.Progress = false
			}
			for _, v := range rep.Violations {
				_ = v
				row.MutualExclusion = false
			}
			exitSteps := max(rep.MaxReaderPassage.ExitSteps, rep.MaxWriterPassage.ExitSteps)
			if exitSteps > row.MaxExitSteps {
				row.MaxExitSteps = exitSteps
			}
		}
		if row.MaxExitSteps > exitBound {
			row.BoundedExit = false
		}
		// Writers-idle scenario for reader overlap. The CS must outlast
		// the longest entry prologue (the Courtois locks take ~25 steps
		// of lock traffic to get in) for lockstep schedules to overlap.
		rep := spec.Run(fac.New(), spec.Scenario{
			NReaders: n, NWriters: 1,
			ReaderPassages: 3, WriterPassages: 0,
			Scheduler: sched.NewRoundRobin(),
			CSReads:   30,
		})
		if !rep.OK() {
			row.Progress = false
		}
		row.ReaderOverlap = rep.MaxConcurrentReaders >= 2
		return row
	})
	if err := e6Verdict(rows); err != nil {
		return nil, nil, err
	}
	return rows, e6Table(rows), nil
}

// e6Verdict fails the first row that lost Mutual Exclusion, Progress or
// Bounded Exit, or whose reader overlap differs from its claim.
func e6Verdict(rows []E6Row) error {
	for _, r := range rows {
		switch {
		case !r.MutualExclusion:
			return fmt.Errorf("E6 %s: Mutual Exclusion violated", r.Alg)
		case !r.Progress:
			return fmt.Errorf("E6 %s: a run did not complete its passages (progress)", r.Alg)
		case !r.BoundedExit:
			return fmt.Errorf("E6 %s: %d exit steps exceed the Bounded Exit bound", r.Alg, r.MaxExitSteps)
		case r.ReaderOverlap != r.ExpectOverlap:
			return fmt.Errorf("E6 %s: reader overlap %v, claimed %v", r.Alg, r.ReaderOverlap, r.ExpectOverlap)
		}
	}
	return nil
}

func e6Table(rows []E6Row) *tablefmt.Table {
	t := tablefmt.New("algorithm", "mutual exclusion", "progress",
		"reader overlap", "overlap expected", "bounded exit", "max exit steps")
	yn := func(b bool) string {
		if b {
			return "yes"
		}
		return "NO"
	}
	for _, r := range rows {
		t.AddRow(r.Alg, yn(r.MutualExclusion), yn(r.Progress),
			yn(r.ReaderOverlap), yn(r.ExpectOverlap), yn(r.BoundedExit),
			tablefmt.Itoa(r.MaxExitSteps))
	}
	return t
}
