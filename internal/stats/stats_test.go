package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almost(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestSummarizeEmpty(t *testing.T) {
	s := Summarize(nil)
	if s.N != 0 {
		t.Fatalf("N = %d", s.N)
	}
}

func TestSummarizeSingle(t *testing.T) {
	s := Summarize([]float64{5})
	if s.N != 1 || !almost(s.Min, 5) || !almost(s.Max, 5) || !almost(s.Mean, 5) ||
		!almost(s.Median, 5) || !almost(s.P95, 5) || !almost(s.StdDev, 0) {
		t.Fatalf("Summary = %+v", s)
	}
}

func TestSummarizeKnown(t *testing.T) {
	s := Summarize([]float64{1, 2, 3, 4, 5})
	if !almost(s.Mean, 3) || !almost(s.Median, 3) || !almost(s.Min, 1) || !almost(s.Max, 5) {
		t.Fatalf("Summary = %+v", s)
	}
	if !almost(s.StdDev, math.Sqrt(2)) {
		t.Errorf("StdDev = %v, want sqrt(2)", s.StdDev)
	}
	if s.P95 < 4.5 || s.P95 > 5 {
		t.Errorf("P95 = %v", s.P95)
	}
}

func TestSummarizeOrderInvariantProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(50)
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = rng.Float64() * 100
		}
		a := Summarize(xs)
		// Shuffle and re-summarize.
		rng.Shuffle(n, func(i, j int) { xs[i], xs[j] = xs[j], xs[i] })
		b := Summarize(xs)
		return almost(a.Mean, b.Mean) && almost(a.Median, b.Median) &&
			almost(a.Min, b.Min) && almost(a.Max, b.Max) && almost(a.P95, b.P95)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestSummaryBoundsProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(50)
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = rng.NormFloat64() * 10
		}
		s := Summarize(xs)
		return s.Min <= s.Median && s.Median <= s.Max &&
			s.Min <= s.Mean && s.Mean <= s.Max &&
			s.Median <= s.P95 && s.P95 <= s.Max
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestLinFitExact(t *testing.T) {
	xs := []float64{1, 2, 3, 4}
	ys := []float64{5, 7, 9, 11} // y = 3 + 2x
	a, b := LinFit(xs, ys)
	if !almost(a, 3) || !almost(b, 2) {
		t.Fatalf("LinFit = (%v, %v), want (3, 2)", a, b)
	}
}

func TestLinFitDegenerate(t *testing.T) {
	a, b := LinFit([]float64{2, 2}, []float64{1, 3})
	if !almost(a, 2) || !almost(b, 0) {
		t.Fatalf("constant-x fit = (%v, %v)", a, b)
	}
	a, b = LinFit(nil, nil)
	if a != 0 || b != 0 {
		t.Fatalf("empty fit = (%v, %v)", a, b)
	}
}

func TestLinFitMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on length mismatch")
		}
	}()
	LinFit([]float64{1}, []float64{1, 2})
}

func TestGrowthRatio(t *testing.T) {
	if g := GrowthRatio([]float64{2, 4, 32}); !almost(g, 16) {
		t.Errorf("GrowthRatio = %v, want 16", g)
	}
	if !math.IsNaN(GrowthRatio([]float64{5})) {
		t.Error("single sample must yield NaN")
	}
	if !math.IsNaN(GrowthRatio([]float64{0, 5})) {
		t.Error("zero first sample must yield NaN")
	}
}

func TestSummaryString(t *testing.T) {
	s := Summarize([]float64{1, 2, 3})
	if got := s.String(); got == "" {
		t.Error("empty String")
	}
}
