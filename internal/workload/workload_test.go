package workload

import (
	"math"
	"strings"
	"testing"
)

func TestPlanApproximatesMix(t *testing.T) {
	cases := []struct {
		n, m, total int
		mix         Mix
	}{
		{16, 1, 1000, ReadHeavy},
		{16, 2, 1000, ReadMostly},
		{8, 4, 800, Balanced},
		{4, 8, 800, WriteHeavy},
	}
	for _, c := range cases {
		rp, wp := Plan(c.n, c.m, c.total, c.mix)
		if rp < 1 || wp < 1 {
			t.Errorf("%s: plan gave rp=%d wp=%d", c.mix.Name, rp, wp)
		}
		reads := float64(rp * c.n)
		writes := float64(wp * c.m)
		got := reads / (reads + writes)
		if math.Abs(got-c.mix.ReadFraction) > 0.15 {
			t.Errorf("%s n=%d m=%d: realized read fraction %.2f, want ~%.2f",
				c.mix.Name, c.n, c.m, got, c.mix.ReadFraction)
		}
	}
}

func TestPlanDegenerate(t *testing.T) {
	rp, wp := Plan(0, 0, 100, Balanced)
	if rp != 0 || wp != 0 {
		t.Errorf("empty population plan = (%d,%d)", rp, wp)
	}
	rp, wp = Plan(4, 0, 100, Balanced)
	if rp < 1 || wp != 0 {
		t.Errorf("readers-only plan = (%d,%d)", rp, wp)
	}
	rp, wp = Plan(0, 4, 100, Balanced)
	if rp != 0 || wp < 1 {
		t.Errorf("writers-only plan = (%d,%d)", rp, wp)
	}
}

func TestMixString(t *testing.T) {
	s := ReadHeavy.String()
	if !strings.Contains(s, "read-heavy") || !strings.Contains(s, "99") {
		t.Errorf("String = %q", s)
	}
}
