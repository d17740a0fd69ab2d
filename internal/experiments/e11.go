package experiments

import (
	"fmt"

	"repro/internal/lowerbound"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/spec"
	"repro/internal/tablefmt"
)

// E11Row quantifies the adversary's power: for the same single-passage
// workload (n readers, one writer), the worst reader exit-section RMR
// count under the Theorem-5 adversarial schedule versus the worst observed
// across a sweep of uniform random schedules. The lower-bound proof is a
// statement about worst-case schedules; this experiment shows the gap the
// construction buys over naive sampling of the schedule space.
type E11Row struct {
	Alg string
	N   int
	// AdversaryExitRMR is the worst reader exit RMR under the staged
	// construction.
	AdversaryExitRMR int
	// RandomExitRMR is the worst reader exit RMR across the random seeds.
	RandomExitRMR int
	// Seeds is the number of random schedules sampled.
	Seeds int
}

// E11AdversaryValue compares adversarial and random worst cases for the
// read/write/CAS algorithms.
func E11AdversaryValue(ns []int, seeds []int64) ([]E11Row, *tablefmt.Table, error) {
	facs := factories("af-1", "af-log", "centralized")

	// Same known step-budget shape as E2's grid: the adversary cell over n
	// processes is budgeted 200_000 + 4n^2 steps.
	cellCost := func(_ Factory, n int) int64 { return 200_000 + 4*int64(n)*int64(n) }
	rows, err := gridRows(facs, ns, cellCost, func(fac Factory, n int) (E11Row, error) {
		adv, err := lowerbound.Run(fac.New(), n, lowerbound.Config{
			IterationCap: 4*n + 64,
			StepBudget:   200_000 + 4*n*n,
		})
		if err != nil {
			return E11Row{}, fmt.Errorf("E11 %s n=%d: %w", fac.Name, n, err)
		}
		worstRandom := 0
		for _, seed := range seeds {
			rep := spec.Run(fac.New(), spec.Scenario{
				NReaders: n, NWriters: 1,
				ReaderPassages: 1, WriterPassages: 1,
				Protocol:  sim.WriteThrough,
				Scheduler: sched.NewRandom(seed),
				MaxSteps:  20_000_000,
			})
			if !rep.OK() {
				return E11Row{}, &RunError{Exp: "E11r", Alg: fac.Name, N: n, Detail: rep.Failures()}
			}
			if got := rep.MaxReaderPassage.ExitRMR; got > worstRandom {
				worstRandom = got
			}
		}
		return E11Row{
			Alg: fac.Name, N: n,
			AdversaryExitRMR: adv.MaxReaderExitRMR,
			RandomExitRMR:    worstRandom,
			Seeds:            len(seeds),
		}, nil
	})
	if err != nil {
		return nil, nil, err
	}
	return rows, e11Table(rows), nil
}

func e11Table(rows []E11Row) *tablefmt.Table {
	t := tablefmt.New("algorithm", "n",
		"worst reader exit RMR (adversary)", "worst over random seeds", "seeds")
	last := ""
	for _, r := range rows {
		if last != "" && r.Alg != last {
			t.AddRule()
		}
		last = r.Alg
		t.AddRow(r.Alg, tablefmt.Itoa(r.N),
			tablefmt.Itoa(r.AdversaryExitRMR), tablefmt.Itoa(r.RandomExitRMR), tablefmt.Itoa(r.Seeds))
	}
	return t
}
