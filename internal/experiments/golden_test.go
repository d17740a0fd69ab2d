package experiments

// Golden-table regression tests: the simulator experiments are fully
// deterministic, so their rendered tables can be pinned byte-for-byte.
// Any change to the simulator's RMR accounting, the algorithms, or the
// schedulers shows up here as a diff — regenerate intentionally with
//
//	go test ./internal/experiments -run Golden -update

import (
	"flag"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/sim"
)

var update = flag.Bool("update", false, "rewrite golden files")

func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name+".golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden %s (run with -update): %v", path, err)
	}
	if string(want) != got {
		t.Errorf("table %s drifted from golden.\n--- got ---\n%s\n--- want ---\n%s", name, got, want)
	}
}

func TestGoldenE1(t *testing.T) {
	_, table, err := E1Tradeoff([]int{8, 64}, sim.WriteThrough)
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "e1_wt", table.String())
}

func TestGoldenE2(t *testing.T) {
	_, table, err := E2LowerBound([]int{9, 27})
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "e2_wt", table.String())
}

func TestGoldenE5(t *testing.T) {
	_, table, err := E5Protocols([]int{8, 64})
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "e5", table.String())
}

func TestGoldenE8(t *testing.T) {
	_, table, err := E8ModelContrast([]int{8, 64})
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "e8", table.String())
}

func TestGoldenE10(t *testing.T) {
	_, table, err := E10MutexSubstrates([]int{1, 16})
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "e10", table.String())
}

func TestGoldenE12(t *testing.T) {
	_, table, err := E12ShapeFits([]int{8, 32, 128})
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "e12", table.String())
}

// TestGoldenE16 pins the exhaustive model-checking table on its full
// grid: each algorithm's schedule count and maximum depth.
func TestGoldenE16(t *testing.T) {
	_, table, err := E16ModelCheck(factories("af-1", "af-log", "af-sqrt", "af-half", "af-n", "centralized", "flag-array", "faa-phasefair"))
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "e16", table.String())
}
