package sched

import (
	"testing"
)

func contains(xs []int, x int) bool {
	for _, v := range xs {
		if v == x {
			return true
		}
	}
	return false
}

func TestRoundRobinFairCycle(t *testing.T) {
	rr := NewRoundRobin()
	poised := []int{0, 1, 2, 3}
	var got []int
	for i := 0; i < 8; i++ {
		got = append(got, rr.Next(i, poised))
	}
	want := []int{0, 1, 2, 3, 0, 1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("sequence %v, want %v", got, want)
		}
	}
}

func TestRoundRobinSkipsMissing(t *testing.T) {
	rr := NewRoundRobin()
	if p := rr.Next(0, []int{1, 3}); p != 1 {
		t.Fatalf("first pick %d, want 1", p)
	}
	if p := rr.Next(1, []int{1, 3}); p != 3 {
		t.Fatalf("second pick %d, want 3", p)
	}
	// 5 vanished from poised; wraps to lowest.
	if p := rr.Next(2, []int{0, 1}); p != 0 {
		t.Fatalf("wrap pick %d, want 0", p)
	}
}

func TestRandomDeterministicPerSeed(t *testing.T) {
	poised := []int{0, 1, 2, 3, 4}
	a, b := NewRandom(7), NewRandom(7)
	for i := 0; i < 100; i++ {
		pa, pb := a.Next(i, poised), b.Next(i, poised)
		if pa != pb {
			t.Fatalf("step %d: same seed diverged: %d vs %d", i, pa, pb)
		}
		if !contains(poised, pa) {
			t.Fatalf("picked %d not in poised", pa)
		}
	}
}

func TestRandomDifferentSeedsDiverge(t *testing.T) {
	poised := []int{0, 1, 2, 3, 4, 5, 6, 7}
	a, b := NewRandom(1), NewRandom(2)
	same := true
	for i := 0; i < 50; i++ {
		if a.Next(i, poised) != b.Next(i, poised) {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds produced identical 50-step schedules")
	}
}

func TestRandomCoversAll(t *testing.T) {
	poised := []int{0, 1, 2}
	r := NewRandom(42)
	seen := map[int]bool{}
	for i := 0; i < 200; i++ {
		seen[r.Next(i, poised)] = true
	}
	for _, p := range poised {
		if !seen[p] {
			t.Fatalf("process %d never scheduled in 200 uniform picks", p)
		}
	}
}

func TestLowestHighestFirst(t *testing.T) {
	poised := []int{2, 5, 9}
	if p := (LowestFirst{}).Next(0, poised); p != 2 {
		t.Errorf("LowestFirst picked %d, want 2", p)
	}
	if p := (HighestFirst{}).Next(0, poised); p != 9 {
		t.Errorf("HighestFirst picked %d, want 9", p)
	}
}

func TestStickyStaysThenRotates(t *testing.T) {
	s := NewSticky()
	if p := s.Next(0, []int{1, 2, 3}); p != 1 {
		t.Fatalf("initial pick %d, want 1", p)
	}
	// 1 still poised: stay.
	if p := s.Next(1, []int{1, 2, 3}); p != 1 {
		t.Fatalf("second pick %d, want 1", p)
	}
	// 1 blocked: rotate to 2.
	if p := s.Next(2, []int{2, 3}); p != 2 {
		t.Fatalf("rotate pick %d, want 2", p)
	}
	// 2 gone, 1 back: higher-than-2 preferred => 3.
	if p := s.Next(3, []int{1, 3}); p != 3 {
		t.Fatalf("rotate pick %d, want 3", p)
	}
	// Nothing above 3: wrap to lowest.
	if p := s.Next(4, []int{1}); p != 1 {
		t.Fatalf("wrap pick %d, want 1", p)
	}
}

// TestControlledPicksTarget: Controlled finds its target at the first and
// last position of the ascending poised list, and panics when the target
// is absent (below, between and above the poised ids).
func TestControlledPicksTarget(t *testing.T) {
	poised := []int{2, 5, 9}
	for _, target := range []int{2, 5, 9} {
		c := &Controlled{Target: target}
		if got := c.Next(0, poised); got != target {
			t.Errorf("Next with target %d = %d", target, got)
		}
	}
	for _, target := range []int{0, 4, 12} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Next with absent target %d did not panic", target)
				}
			}()
			(&Controlled{Target: target}).Next(0, poised)
		}()
	}
}

func TestNames(t *testing.T) {
	cases := []struct {
		s    Scheduler
		want string
	}{
		{NewRoundRobin(), "round-robin"},
		{NewRandom(1), "random"},
		{LowestFirst{}, "lowest-first"},
		{HighestFirst{}, "highest-first"},
		{NewSticky(), "sticky"},
	}
	for _, c := range cases {
		if got := c.s.Name(); got != c.want {
			t.Errorf("Name() = %q, want %q", got, c.want)
		}
	}
}
