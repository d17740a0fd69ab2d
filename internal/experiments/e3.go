package experiments

import (
	"fmt"
	"math"

	"repro/internal/lowerbound"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/spec"
	"repro/internal/tablefmt"
)

// E3NRow is one point of the Corollary-6 check: for every read/write/CAS
// algorithm, max(writer entry RMR, reader exit RMR) under the adversary is
// Omega(log n).
type E3NRow struct {
	Alg string
	N   int
	// MaxSide is max(writer-entry RMR, worst reader-exit RMR) in the
	// adversarial execution.
	MaxSide int
	// Log2N is the reference log2(n).
	Log2N float64
}

// E3MRow is one point of the Omega(log m) writers-only bound: with readers
// quiescent, a writer passage still pays the m-process mutex cost.
type E3MRow struct {
	Alg string
	M   int
	// WriterPassRMR is the worst per-passage writer RMR (entry + exit).
	WriterPassRMR int
	// Log2M is the reference log2(m).
	Log2M float64
}

// E3MaxBound evaluates Corollary 6: sweep n with a single writer, run the
// Theorem-5 adversary, and report the larger of the two sides. FAA-based
// algorithms are excluded: the corollary's hypothesis (read/write/CAS
// operations only) does not cover them, and indeed faa-phasefair beats the
// bound — E2's table shows it.
func E3MaxBound(ns []int) ([]E3NRow, *tablefmt.Table, error) {
	rows, err := gridRows(AFFactories(), ns, nSquaredCost, func(fac Factory, n int) (E3NRow, error) {
		res, err := lowerbound.Run(fac.New(), n, lowerbound.Config{})
		if err != nil {
			return E3NRow{}, fmt.Errorf("E3a %s n=%d: %w", fac.Name, n, err)
		}
		return E3NRow{
			Alg:     fac.Name,
			N:       n,
			MaxSide: max(res.WriterEntryRMR, res.MaxReaderExitRMR),
			Log2N:   math.Log2(float64(n)),
		}, nil
	})
	if err != nil {
		return nil, nil, err
	}
	return rows, e3nTable(rows), nil
}

func e3nTable(rows []E3NRow) *tablefmt.Table {
	t := tablefmt.New("algorithm", "n", "max(writer entry, reader exit) RMR", "log2 n")
	last := ""
	for _, r := range rows {
		if last != "" && r.Alg != last {
			t.AddRule()
		}
		last = r.Alg
		t.AddRow(r.Alg, tablefmt.Itoa(r.N), tablefmt.Itoa(r.MaxSide), tablefmt.F1(r.Log2N))
	}
	return t
}

// E3WriterMutex evaluates the Omega(log m) side of Corollary 7: writers
// alone reduce to mutual exclusion, so per-passage writer RMRs grow with
// log m (our WL is a Peterson tournament, Theta(log m) even solo).
func E3WriterMutex(ms []int) ([]E3MRow, *tablefmt.Table, error) {
	// af-1 and af-log suffice: WL dominates.
	rows, err := gridRows(AFFactories()[:2], ms, nSquaredCost, func(fac Factory, m int) (E3MRow, error) {
		rep := spec.Run(fac.New(), spec.Scenario{
			NReaders: 1, NWriters: m,
			ReaderPassages: 0, WriterPassages: 2,
			Scheduler: sched.NewSticky(),
			Protocol:  sim.WriteThrough,
			MaxSteps:  20_000_000,
		})
		if !rep.OK() {
			return E3MRow{}, &RunError{Exp: "E3b", Alg: fac.Name, N: m, Detail: rep.Failures()}
		}
		return E3MRow{
			Alg:           fac.Name,
			M:             m,
			WriterPassRMR: rep.MaxWriterPassage.RMR(),
			Log2M:         math.Log2(float64(max(m, 2))),
		}, nil
	})
	if err != nil {
		return nil, nil, err
	}
	return rows, e3mTable(rows), nil
}

func e3mTable(rows []E3MRow) *tablefmt.Table {
	t := tablefmt.New("algorithm", "m", "writer passage RMR", "log2 m")
	last := ""
	for _, r := range rows {
		if last != "" && r.Alg != last {
			t.AddRule()
		}
		last = r.Alg
		t.AddRow(r.Alg, tablefmt.Itoa(r.M), tablefmt.Itoa(r.WriterPassRMR), tablefmt.F1(r.Log2M))
	}
	return t
}
