package experiments

import (
	"fmt"
	"math"

	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/tablefmt"
)

// E12Row summarizes least-squares shape fits over the E1 grid: the
// Theta-claims of Theorem 18 become measurable slopes. For each
// parameterization we fit
//
//	reader passage RMR ~ a + b * log2(K)     (predicted b > 0, constant)
//	writer entry  RMR ~ a + b * f(n)         (predicted b ~ 3: the three
//	                                          per-group RMRs of the scans)
//
// and report the fitted slopes plus the residual relative error, turning
// "looks logarithmic" into a number.
type E12Row struct {
	FName string
	// ReaderSlope/ReaderIntercept fit reader RMR against log2(K).
	ReaderSlope, ReaderIntercept float64
	// WriterSlope/WriterIntercept fit writer entry RMR against f(n).
	WriterSlope, WriterIntercept float64
	// MaxRelErr is the largest relative deviation of a measured point
	// from its fitted value, across both fits.
	MaxRelErr float64
}

// E12ShapeFits runs the E1 grid on the write-through protocol and fits the
// asymptotic shapes.
func E12ShapeFits(ns []int) ([]E12Row, *tablefmt.Table, error) {
	rows, _, err := E1Tradeoff(ns, sim.WriteThrough)
	if err != nil {
		return nil, nil, fmt.Errorf("E12: %w", err)
	}
	byF := map[string][]E1Row{}
	order := []string{}
	for _, r := range rows {
		if _, seen := byF[r.FName]; !seen {
			order = append(order, r.FName)
		}
		byF[r.FName] = append(byF[r.FName], r)
	}

	var out []E12Row
	for _, fname := range order {
		grid := byF[fname]
		var logK, readerRMR, fn, writerRMR []float64
		for _, g := range grid {
			logK = append(logK, math.Log2(float64(g.K))+1)
			readerRMR = append(readerRMR, float64(g.ReaderPassRMR))
			fn = append(fn, float64(g.Groups))
			writerRMR = append(writerRMR, float64(g.WriterEntryRMR))
		}
		ra, rb := stats.LinFit(logK, readerRMR)
		wa, wb := stats.LinFit(fn, writerRMR)

		maxRel := 0.0
		rel := func(measured, fitted float64) {
			if measured == 0 {
				return
			}
			if e := math.Abs(measured-fitted) / measured; e > maxRel {
				maxRel = e
			}
		}
		for i := range grid {
			rel(readerRMR[i], ra+rb*logK[i])
			rel(writerRMR[i], wa+wb*fn[i])
		}
		out = append(out, E12Row{
			FName:       fname,
			ReaderSlope: rb, ReaderIntercept: ra,
			WriterSlope: wb, WriterIntercept: wa,
			MaxRelErr: maxRel,
		})
	}
	return out, e12Table(out), nil
}

func e12Table(rows []E12Row) *tablefmt.Table {
	t := tablefmt.New("f", "reader RMR ~ a + b*log2K: b", "a",
		"writer RMR ~ a + b*f(n): b", "a ", "max rel err")
	for _, r := range rows {
		t.AddRow("af-"+r.FName,
			tablefmt.F2(r.ReaderSlope), tablefmt.F2(r.ReaderIntercept),
			tablefmt.F2(r.WriterSlope), tablefmt.F2(r.WriterIntercept),
			tablefmt.F2(r.MaxRelErr))
	}
	return t
}
