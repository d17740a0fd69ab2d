package experiments

import (
	"math"
	"testing"

	"repro/internal/sim"
)

// TestSoakLargeN pushes the tradeoff grid to n = 2048 (skipped with
// -short): the Theta shapes must persist at scale, and the simulator must
// stay within its step budget. This is the closest analogue of the paper's
// asymptotic statements that a finite run can provide.
func TestSoakLargeN(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test")
	}
	rows, _, err := E1Tradeoff([]int{512, 2048}, sim.WriteThrough)
	if err != nil {
		t.Fatal(err)
	}
	get := func(f string, n int) E1Row {
		for _, r := range rows {
			if r.FName == f && r.N == n {
				return r
			}
		}
		t.Fatalf("row %s/%d missing", f, n)
		return E1Row{}
	}

	// af-1 at n=2048: writer constant, reader exit = log2(2048)+1 = 12.
	r := get("1", 2048)
	if r.WriterEntryRMR != 6 {
		t.Errorf("af-1 writer entry = %d, want 6 (independent of n)", r.WriterEntryRMR)
	}
	if r.ReaderExitRMR != 12 {
		t.Errorf("af-1 reader exit = %d, want 12 = log2(2048)+1", r.ReaderExitRMR)
	}

	// af-n at n=2048: writer = 3n+3 exactly, reader constant.
	r = get("n", 2048)
	if r.WriterEntryRMR != 3*2048+3 {
		t.Errorf("af-n writer entry = %d, want %d", r.WriterEntryRMR, 3*2048+3)
	}
	if r.ReaderPassRMR != 4 {
		t.Errorf("af-n reader passage = %d, want 4", r.ReaderPassRMR)
	}

	// af-log at both scales: reader exit tracks ceil(log2 K)+1 exactly
	// (the f-array rounds K up to a power of two).
	for _, n := range []int{512, 2048} {
		r := get("log", n)
		wantExit := int(math.Ceil(math.Log2(float64(r.K)))) + 1
		if r.ReaderExitRMR != wantExit {
			t.Errorf("af-log n=%d: reader exit = %d, want %d (ceil(log2 K=%d)+1)",
				n, r.ReaderExitRMR, wantExit, r.K)
		}
	}
}

// TestSoakLowerBoundLargeN runs the Theorem-5 adversary at n = 729 = 3^6
// (skipped with -short): r must reach at least log3(n) for af-1.
func TestSoakLowerBoundLargeN(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test")
	}
	rows, _, err := E2LowerBound([]int{729})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if r.Alg == "af-1" {
			if r.R < 6 {
				t.Errorf("af-1 n=729: r = %d, want >= log3(729) = 6", r.R)
			}
			if r.WriterAware != 729 || r.Lemma1Violations != 0 {
				t.Errorf("af-1 n=729: aware=%d lemma1=%d", r.WriterAware, r.Lemma1Violations)
			}
		}
	}
}
