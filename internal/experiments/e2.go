package experiments

import (
	"errors"
	"fmt"

	"repro/internal/lowerbound"
	"repro/internal/sim"
	"repro/internal/tablefmt"
)

// E2Row is one adversarial construction (Theorem 5 / Figure 1).
type E2Row struct {
	Alg string
	N   int
	// FGroups is f(n) for A_f members, 0 for baselines.
	FGroups int
	// R is the number of expanding-batch iterations; the theorem says
	// R = Omega(log3(n/f(n))) for read/write/CAS algorithms.
	R int
	// Log3 is the reference bound log3(n/f(n)).
	Log3 float64
	// MaxExitExpanding / MaxExitRMR are a reader's worst exit costs under
	// the adversary.
	MaxExitExpanding int
	MaxExitRMR       int
	// WriterEntryRMR is the writer's E3 entry cost.
	WriterEntryRMR int
	// WriterAware counts readers in the writer's awareness set (Lemma 4:
	// must equal N).
	WriterAware int
	// MaxGrowth is the per-round growth of M (Lemma 2: at most 3).
	MaxGrowth float64
	// Lemma1Violations must be zero.
	Lemma1Violations int
}

// E2LowerBound runs the Theorem-5 adversary, under write-through, against
// the A_f family and the baselines that support concurrent reading.
func E2LowerBound(ns []int) ([]E2Row, *tablefmt.Table, error) {
	facs := AFFactories()
	for _, b := range BaselineFactories() {
		if b.Name == "mutex-rw" {
			continue // cannot build fragment E1 (no concurrent reading)
		}
		facs = append(facs, b)
	}
	// The cell's step budget below is its known worst-case shape; use it
	// verbatim as the scheduling hint so n=243 adversary runs seed first.
	cellCost := func(_ Factory, n int) int64 { return 200_000 + 4*int64(n)*int64(n) }
	rows, err := gridRows(facs, ns, cellCost, func(fac Factory, n int) (E2Row, error) {
		// The cap is runaway protection only; the centralized
		// baseline legitimately needs Theta(n) iterations (its exit
		// is a CAS retry loop), so scale it with n.
		// Budgets scale quadratically because the centralized
		// baseline's exit loop legitimately needs Theta(n^2) total
		// steps under the adversary (n readers x Theta(n) retries).
		res, err := lowerbound.Run(fac.New(), n, lowerbound.Config{
			Protocol:     sim.WriteThrough,
			IterationCap: 4*n + 64,
			StepBudget:   200_000 + 4*n*n,
		})
		if err != nil {
			return E2Row{}, fmt.Errorf("E2 %s n=%d: %w", fac.Name, n, err)
		}
		row := E2Row{
			Alg:              fac.Name,
			N:                n,
			R:                res.R,
			MaxExitExpanding: res.MaxReaderExitExpanding,
			MaxExitRMR:       res.MaxReaderExitRMR,
			WriterEntryRMR:   res.WriterEntryRMR,
			WriterAware:      res.WriterAwareReaders,
			MaxGrowth:        res.MaxRoundGrowth,
			Lemma1Violations: res.Lemma1Violations,
		}
		if fac.HasF {
			row.FGroups = fac.F.Groups(n)
			row.Log3 = lowerbound.Log3Bound(n, row.FGroups)
		}
		if res.WriterAwareReaders != n {
			return E2Row{}, errors.New("E2: Lemma 4 violated for " + fac.Name)
		}
		return row, nil
	})
	if err != nil {
		return nil, nil, err
	}
	return rows, e2Table(rows), nil
}

func e2Table(rows []E2Row) *tablefmt.Table {
	t := tablefmt.New("algorithm", "n", "f(n)", "r (iters)", "log3(n/f)",
		"max exit expanding", "max exit RMR", "writer entry RMR", "aware", "max growth", "lemma1 viol")
	last := ""
	for _, r := range rows {
		if last != "" && r.Alg != last {
			t.AddRule()
		}
		last = r.Alg
		f := "-"
		l3 := "-"
		if r.FGroups > 0 {
			f = tablefmt.Itoa(r.FGroups)
			l3 = tablefmt.F1(r.Log3)
		}
		t.AddRow(r.Alg, tablefmt.Itoa(r.N), f, tablefmt.Itoa(r.R), l3,
			tablefmt.Itoa(r.MaxExitExpanding), tablefmt.Itoa(r.MaxExitRMR),
			tablefmt.Itoa(r.WriterEntryRMR), tablefmt.Itoa(r.WriterAware),
			tablefmt.F2(r.MaxGrowth), tablefmt.Itoa(r.Lemma1Violations))
	}
	return t
}
