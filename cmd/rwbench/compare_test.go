package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/sim"
)

// writeReport marshals a minimal -sweeps artifact with the given serial
// costs per workload name.
func writeReport(t *testing.T, path string, serial map[string]SweepCost) {
	t.Helper()
	rep := SweepReport{}
	for name, c := range serial {
		rep.Experiments = append(rep.Experiments, SweepResult{Name: name, Serial: c})
	}
	buf, err := json.Marshal(&rep)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, buf, 0o644); err != nil {
		t.Fatal(err)
	}
}

func TestCompareWithinBudget(t *testing.T) {
	dir := t.TempDir()
	oldPath := filepath.Join(dir, "old.json")
	newPath := filepath.Join(dir, "new.json")
	writeReport(t, oldPath, map[string]SweepCost{
		"A": {NsPerOp: 1000, AllocsPerOp: 100},
		"B": {NsPerOp: 2000, AllocsPerOp: 0},
	})
	writeReport(t, newPath, map[string]SweepCost{
		"A": {NsPerOp: 1200, AllocsPerOp: 105}, // 1.2x ns, 1.05x allocs
		"B": {NsPerOp: 1900, AllocsPerOp: 0},
		"C": {NsPerOp: 5, AllocsPerOp: 5}, // new workload: reported, never fails
	})
	out, code, err := captureCompare(t, oldPath, newPath, 1.25, 1.10)
	if err != nil || code != 0 {
		t.Fatalf("within-budget compare: code %d, err %v\n%s", code, err, out)
	}
	if !strings.Contains(out, "PASS") || !strings.Contains(out, "new") {
		t.Errorf("output missing PASS verdict or new-workload row:\n%s", out)
	}
}

func TestCompareRegressionFails(t *testing.T) {
	dir := t.TempDir()
	oldPath := filepath.Join(dir, "old.json")
	newPath := filepath.Join(dir, "new.json")
	writeReport(t, oldPath, map[string]SweepCost{
		"A": {NsPerOp: 1000, AllocsPerOp: 100},
		"B": {NsPerOp: 1000, AllocsPerOp: 100},
		"G": {NsPerOp: 1000, AllocsPerOp: 100},
	})
	writeReport(t, newPath, map[string]SweepCost{
		"A": {NsPerOp: 1000, AllocsPerOp: 150}, // allocs blown
		"B": {NsPerOp: 9000, AllocsPerOp: 100}, // ns blown
		// G missing: a baseline workload disappeared
	})
	out, code, err := captureCompare(t, oldPath, newPath, 1.25, 1.10)
	if err != nil || code != 1 {
		t.Fatalf("regressed compare: code %d, err %v\n%s", code, err, out)
	}
	for _, want := range []string{"FAIL (allocs/op)", "FAIL (ns/op)", "FAIL (missing)"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}

	// Disabling the ns axis forgives B but not A or the missing G.
	out, code, err = captureCompare(t, oldPath, newPath, 0, 1.10)
	if err != nil || code != 1 {
		t.Fatalf("ns-disabled compare: code %d, err %v\n%s", code, err, out)
	}
	if strings.Contains(out, "FAIL (ns/op)") {
		t.Errorf("ns axis still enforced while disabled:\n%s", out)
	}
}

func TestCompareRejectsNonArtifacts(t *testing.T) {
	dir := t.TempDir()
	good := filepath.Join(dir, "good.json")
	writeReport(t, good, map[string]SweepCost{"A": {NsPerOp: 1}})
	empty := filepath.Join(dir, "empty.json")
	if err := os.WriteFile(empty, []byte("{}"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := captureCompare(t, empty, good, 1.25, 1.10); err == nil {
		t.Error("artifact with no experiments accepted as baseline")
	}
	if _, _, err := captureCompare(t, good, filepath.Join(dir, "missing.json"), 1.25, 1.10); err == nil {
		t.Error("missing new artifact accepted")
	}
}

func captureCompare(t *testing.T, oldPath, newPath string, maxNs, maxAlloc float64) (string, int, error) {
	return captureCompareHost(t, oldPath, newPath, maxNs, maxAlloc, false)
}

func captureCompareHost(t *testing.T, oldPath, newPath string, maxNs, maxAlloc float64, requireSameHost bool) (string, int, error) {
	t.Helper()
	var code int
	var errRun error
	out, _ := capture(t, func() error {
		code, errRun = runCompare(oldPath, newPath, maxNs, maxAlloc, requireSameHost)
		return nil
	})
	return out, code, errRun
}

// writeHostReport is writeReport with an explicit Host block.
func writeHostReport(t *testing.T, path string, serial map[string]SweepCost, goos string, numCPU int) {
	t.Helper()
	rep := SweepReport{}
	rep.Host.GOOS = goos
	rep.Host.GOARCH = "amd64"
	rep.Host.NumCPU = numCPU
	rep.Host.GOMAXPROCS = numCPU
	for name, c := range serial {
		rep.Experiments = append(rep.Experiments, SweepResult{Name: name, Serial: c})
	}
	buf, err := json.Marshal(&rep)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, buf, 0o644); err != nil {
		t.Fatal(err)
	}
}

func TestCompareHostMismatch(t *testing.T) {
	dir := t.TempDir()
	oldPath := filepath.Join(dir, "old.json")
	newPath := filepath.Join(dir, "new.json")
	serial := map[string]SweepCost{"A": {NsPerOp: 1000, AllocsPerOp: 100}}
	writeHostReport(t, oldPath, serial, "linux", 64)
	writeHostReport(t, newPath, serial, "darwin", 8)

	// Default: loud warning, but the comparison still runs and passes.
	out, code, err := captureCompare(t, oldPath, newPath, 1.25, 1.10)
	if err != nil || code != 0 {
		t.Fatalf("host-mismatch warn-only compare: code %d, err %v\n%s", code, err, out)
	}
	for _, want := range []string{"WARNING", "different hosts", `goos "linux" vs "darwin"`, "num_cpu 64 vs 8", "PASS"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}

	// -require-same-host upgrades the mismatch to a hard failure.
	out, code, err = captureCompareHost(t, oldPath, newPath, 1.25, 1.10, true)
	if err != nil || code != 1 {
		t.Fatalf("require-same-host compare: code %d, err %v\n%s", code, err, out)
	}
	if !strings.Contains(out, "FAIL: -require-same-host") {
		t.Errorf("hard host failure missing from output:\n%s", out)
	}

	// Same host: no warning, flag or not.
	writeHostReport(t, newPath, serial, "linux", 64)
	out, code, err = captureCompareHost(t, oldPath, newPath, 1.25, 1.10, true)
	if err != nil || code != 0 {
		t.Fatalf("same-host compare: code %d, err %v\n%s", code, err, out)
	}
	if strings.Contains(out, "WARNING") {
		t.Errorf("spurious host warning:\n%s", out)
	}
}

// writeCountsReport writes an artifact whose workloads carry simulator
// counts (nil: no counts, as in artifacts from before they were recorded).
func writeCountsReport(t *testing.T, path string, counts map[string]*sim.Counts) {
	t.Helper()
	rep := SweepReport{}
	for name, c := range counts {
		rep.Experiments = append(rep.Experiments, SweepResult{Name: name,
			Serial: SweepCost{NsPerOp: 1000, AllocsPerOp: 100}, Counts: c})
	}
	buf, err := json.Marshal(&rep)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, buf, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestCompareCountsExact: the simulator counts are deterministic, so any
// difference from a baseline that has them fails, in either direction; a
// baseline without counts gates nothing.
func TestCompareCountsExact(t *testing.T) {
	dir := t.TempDir()
	oldPath := filepath.Join(dir, "old.json")
	newPath := filepath.Join(dir, "new.json")
	base := &sim.Counts{Steps: 100, Handoffs: 40, Replayed: 60}
	writeCountsReport(t, oldPath, map[string]*sim.Counts{"A": base, "B": nil})

	writeCountsReport(t, newPath, map[string]*sim.Counts{"A": {Steps: 100, Handoffs: 40, Replayed: 60}, "B": {Steps: 7}})
	if out, code, err := captureCompare(t, oldPath, newPath, 0, 1.10); err != nil || code != 0 {
		t.Fatalf("equal counts: code %d, err %v\n%s", code, err, out)
	}
	for _, c := range []*sim.Counts{{Steps: 100, Handoffs: 39, Replayed: 60}, {Steps: 101, Handoffs: 40, Replayed: 60}, nil} {
		writeCountsReport(t, newPath, map[string]*sim.Counts{"A": c, "B": nil})
		out, code, err := captureCompare(t, oldPath, newPath, 0, 1.10)
		if err != nil || code != 1 || !strings.Contains(out, "FAIL (counts) A") {
			t.Errorf("counts %+v against %+v: code %d, err %v\n%s", c, *base, code, err, out)
		}
	}
}
