package experiments

import (
	"fmt"

	"repro/internal/baseline"
	"repro/internal/memmodel"
	"repro/internal/spec"
	"repro/internal/tablefmt"
)

// E13 characterizes robustness under the crash-stop model (DESIGN.md
// "Fault model"): E13CrashSweep exhaustively kills one reader and one
// writer at every step boundary of a small workload and aggregates, per
// crash section, whether the survivors stayed live or hung — with Mutual
// Exclusion required to hold in every case. E13AbortCost measures the RMR
// price of a guaranteed-failing try-entry attempt (abortable entry) as the
// population grows.

// E13CrashRow aggregates the sweep outcomes for one (algorithm, victim
// class, crash section) cell.
type E13CrashRow struct {
	Alg string
	// Victim is "reader" or "writer".
	Victim string
	// Section names the section the victim occupied when it crashed.
	Section string
	// Points is the number of crash points falling in that section.
	Points int
	// Live counts points after which every survivor completed its
	// passages; Hangs counts points the watchdog flagged as wedged.
	Live, Hangs int
	// MEViol counts Mutual Exclusion violations (must be zero).
	MEViol int
	// Budget counts runs that hit the step budget instead of a
	// deterministic verdict (must be zero: every hang is watchdog-caught).
	Budget int
}

// e13CrashAlgs returns the sweep population: every A_f tradeoff point plus
// the contrasting baselines (the queue/Courtois locks are omitted — their
// long lock-passing chains make the tiny sweep scenario dominated by the
// substrate mutex rather than the RW protocol under study).
func e13CrashAlgs() []Factory {
	out := AFFactories()
	out = append(out,
		Factory{Name: "centralized", New: func() memmodel.Algorithm { return baseline.NewCentralized() }},
		Factory{Name: "flag-array", New: func() memmodel.Algorithm { return baseline.NewFlagArray() }},
		Factory{Name: "faa-phasefair", New: func() memmodel.Algorithm { return baseline.NewPhaseFair() }},
		Factory{Name: "mutex-rw", New: func() memmodel.Algorithm { return baseline.NewMutexRW() }},
	)
	return out
}

// E13CrashSweep runs the exhaustive crash sweep for every algorithm and
// both victim classes on a 2-reader/2-writer, 2-passage round-robin
// workload, and errors on a robustness failure (see e13CrashVerdict). The
// outer (algorithm, victim) loop stays serial: each
// spec.CrashSweep already fans its crash points across the full worker
// pool, so parallelizing the grid too would only oversubscribe it.
func E13CrashSweep() ([]E13CrashRow, *tablefmt.Table, error) {
	// CSReads gives the critical section a real shared-memory step, so the
	// sweep has crash points attributable to the CS (with an empty CS the
	// entry->exit section transitions happen within one step boundary).
	sc := spec.Scenario{NReaders: 2, NWriters: 2, ReaderPassages: 2, WriterPassages: 2, CSReads: 1}
	victims := []struct {
		name string
		id   int
	}{
		{"reader", 0},
		{"writer", sc.NReaders},
	}
	var rows []E13CrashRow
	for _, fac := range e13CrashAlgs() {
		for _, v := range victims {
			outs, err := spec.CrashSweep(fac.New, sc, v.id, nil)
			if err != nil {
				return nil, nil, fmt.Errorf("E13 %s victim %s: %w", fac.Name, v.name, err)
			}
			bySection := map[memmodel.Section]*E13CrashRow{}
			order := []memmodel.Section{memmodel.SecRemainder, memmodel.SecEntry, memmodel.SecCS, memmodel.SecExit}
			for _, s := range order {
				bySection[s] = &E13CrashRow{Alg: fac.Name, Victim: v.name, Section: s.String()}
			}
			for _, o := range outs {
				row := bySection[o.CrashSection]
				row.Points++
				row.MEViol += len(o.MEViolations)
				if o.Hung {
					row.Hangs++
				}
				if o.BudgetExceeded {
					row.Budget++
				}
				if o.Live() {
					row.Live++
				}
				if o.Err != nil {
					return nil, nil, fmt.Errorf("E13 %s victim %s %s: %w", fac.Name, v.name, o.Point, o.Err)
				}
			}
			for _, s := range order {
				if bySection[s].Points > 0 {
					rows = append(rows, *bySection[s])
				}
			}
		}
	}
	if err := e13CrashVerdict(rows); err != nil {
		return nil, nil, err
	}
	return rows, e13CrashTable(rows), nil
}

// e13CrashVerdict fails the first row where a crash broke Mutual
// Exclusion, a hang escaped the watchdog to the step budget, or a
// remainder-section crash (the victim holds nothing) wedged a survivor.
func e13CrashVerdict(rows []E13CrashRow) error {
	for _, r := range rows {
		switch {
		case r.MEViol > 0:
			return fmt.Errorf("E13 %s: crash of %s in %s broke mutual exclusion (%d violations)",
				r.Alg, r.Victim, r.Section, r.MEViol)
		case r.Budget > 0:
			return fmt.Errorf("E13 %s: %d hangs escaped the watchdog (step-budget timeout)", r.Alg, r.Budget)
		case r.Section == memmodel.SecRemainder.String() && r.Live != r.Points:
			return fmt.Errorf("E13 %s: remainder-section crash of %s wedged survivors (%d/%d live)",
				r.Alg, r.Victim, r.Live, r.Points)
		}
	}
	return nil
}

func e13CrashTable(rows []E13CrashRow) *tablefmt.Table {
	t := tablefmt.New("algorithm", "victim", "crash section", "points", "live", "hangs", "me viol", "budget hit")
	for _, r := range rows {
		t.AddRow(r.Alg, r.Victim, r.Section, tablefmt.Itoa(r.Points), tablefmt.Itoa(r.Live),
			tablefmt.Itoa(r.Hangs), tablefmt.Itoa(r.MEViol), tablefmt.Itoa(r.Budget))
	}
	return t
}

// E13AbortRow is the measured abort cost for one algorithm and population.
type E13AbortRow struct {
	Alg string
	N   int
	// ReaderRMR / WriterRMR are the RMR costs of one guaranteed-failing
	// try attempt (opposing class parked in the CS).
	ReaderRMR, WriterRMR int
	// Aborted confirms both staged attempts failed as designed.
	Aborted bool
}

// e13TryAlgs returns the abortable-entry implementations under test.
func e13TryAlgs() []Factory {
	out := AFFactories()
	out = append(out, Factory{Name: "centralized", New: func() memmodel.Algorithm { return baseline.NewCentralized() }})
	return out
}

// E13AbortCost measures failed-attempt RMR costs across populations ns.
// The expected shapes follow Theorem 18's entry bounds: a reader abort
// costs O(log(n/f(n))) (constant at f(n)=n), a writer abort O(f(n))
// (constant at f(n)=1), and the centralized lock is constant on both
// sides. It errors when a claim fails (see e13AbortVerdict).
func E13AbortCost(ns []int) ([]E13AbortRow, *tablefmt.Table, error) {
	rows, err := gridRows(e13TryAlgs(), ns, nSquaredCost, func(fac Factory, n int) (E13AbortRow, error) {
		c, err := spec.MeasureAbortCost(fac.New, n)
		if err != nil {
			return E13AbortRow{}, fmt.Errorf("E13 abort %s n=%d: %w", fac.Name, n, err)
		}
		return E13AbortRow{
			Alg: fac.Name, N: n,
			ReaderRMR: c.ReaderAttemptRMR,
			WriterRMR: c.WriterAttemptRMR,
			Aborted:   c.ReaderAborted && c.WriterAborted,
		}, nil
	})
	if err != nil {
		return nil, nil, err
	}
	if err := e13AbortVerdict(rows); err != nil {
		return nil, nil, err
	}
	return rows, e13AbortTable(rows), nil
}

// e13AbortVerdict fails the first row whose staged attempt did not abort,
// or whose abort cost grew with n where it is claimed constant: reader
// aborts of af-n and centralized, writer aborts of af-1 and centralized.
// Each algorithm's first row is its baseline.
func e13AbortVerdict(rows []E13AbortRow) error {
	first := map[string]E13AbortRow{}
	for _, r := range rows {
		if !r.Aborted {
			return fmt.Errorf("E13 abort %s n=%d: staged try attempt did not abort", r.Alg, r.N)
		}
		f, seen := first[r.Alg]
		if !seen {
			first[r.Alg] = r
			continue
		}
		constReader := r.Alg == "af-n" || r.Alg == "centralized"
		constWriter := r.Alg == "af-1" || r.Alg == "centralized"
		if constReader && r.ReaderRMR != f.ReaderRMR {
			return fmt.Errorf("E13 abort %s: reader abort cost grew with n (%d at n=%d vs %d at n=%d)",
				r.Alg, f.ReaderRMR, f.N, r.ReaderRMR, r.N)
		}
		if constWriter && r.WriterRMR != f.WriterRMR {
			return fmt.Errorf("E13 abort %s: writer abort cost grew with n (%d at n=%d vs %d at n=%d)",
				r.Alg, f.WriterRMR, f.N, r.WriterRMR, r.N)
		}
	}
	return nil
}

func e13AbortTable(rows []E13AbortRow) *tablefmt.Table {
	t := tablefmt.New("algorithm", "n", "reader abort rmr", "writer abort rmr", "aborted")
	for _, r := range rows {
		ab := "yes"
		if !r.Aborted {
			ab = "NO"
		}
		t.AddRow(r.Alg, tablefmt.Itoa(r.N), tablefmt.Itoa(r.ReaderRMR), tablefmt.Itoa(r.WriterRMR), ab)
	}
	return t
}
