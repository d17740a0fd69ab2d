// Package stats provides the small statistical helpers the experiment
// tables need: summaries of sample sets, a least-squares line fit and a
// growth ratio used to check asymptotic shapes.
package stats

import (
	"fmt"
	"math"
	"sort"
)

// Summary describes a sample set.
type Summary struct {
	N            int
	Min, Max     float64
	Mean, Median float64
	P95          float64
	StdDev       float64
}

// Summarize computes a Summary; it returns a zero Summary for no samples.
func Summarize(xs []float64) Summary {
	if len(xs) == 0 {
		return Summary{}
	}
	s := Summary{N: len(xs), Min: math.Inf(1), Max: math.Inf(-1)}
	sum := 0.0
	for _, x := range xs {
		sum += x
		s.Min = math.Min(s.Min, x)
		s.Max = math.Max(s.Max, x)
	}
	s.Mean = sum / float64(len(xs))
	varsum := 0.0
	for _, x := range xs {
		d := x - s.Mean
		varsum += d * d
	}
	s.StdDev = math.Sqrt(varsum / float64(len(xs)))

	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	s.Median = quantile(sorted, 0.5)
	s.P95 = quantile(sorted, 0.95)
	return s
}

// quantile interpolates the q-quantile of sorted samples.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 1 {
		return sorted[0]
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// String renders the summary compactly.
func (s Summary) String() string {
	return fmt.Sprintf("n=%d min=%.1f mean=%.1f med=%.1f p95=%.1f max=%.1f",
		s.N, s.Min, s.Mean, s.Median, s.P95, s.Max)
}

// LinFit fits y = a + b*x by least squares and returns (a, b). It needs at
// least two points with distinct x values; otherwise b is 0 and a the mean.
func LinFit(xs, ys []float64) (a, b float64) {
	if len(xs) != len(ys) {
		panic("stats: LinFit length mismatch")
	}
	n := float64(len(xs))
	if n == 0 {
		return 0, 0
	}
	var sx, sy, sxx, sxy float64
	for i := range xs {
		sx += xs[i]
		sy += ys[i]
		sxx += xs[i] * xs[i]
		sxy += xs[i] * ys[i]
	}
	den := n*sxx - sx*sx
	if den == 0 {
		return sy / n, 0
	}
	b = (n*sxy - sx*sy) / den
	a = (sy - b*sx) / n
	return a, b
}

// GrowthRatio returns ys[last]/ys[first] as a crude shape probe (e.g.
// linear growth across a 16x range of n gives ~16, logarithmic ~1.5-4).
func GrowthRatio(ys []float64) float64 {
	if len(ys) < 2 || ys[0] == 0 {
		return math.NaN()
	}
	return ys[len(ys)-1] / ys[0]
}
