// The -compare mode turns the committed BENCH_sweeps.json baseline into
// an enforced budget: it diffs two -sweeps artifacts and fails when a
// workload's serial cost regressed past the configured ratios. Serial
// numbers are the comparison axis because they are independent of the
// host's core count; ns/op still varies with host speed (CI disables that
// axis and relies on allocs/op, which is host-independent). The simulator
// counts per op (steps, handoffs, replayed steps) are deterministic, so
// they must match the baseline exactly wherever the baseline has them.
package main

import (
	"encoding/json"
	"fmt"
	"os"

	"repro/internal/tablefmt"
)

// loadSweepReport parses a -sweeps JSON artifact.
func loadSweepReport(path string) (*SweepReport, error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rep SweepReport
	if err := json.Unmarshal(buf, &rep); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(rep.Experiments) == 0 {
		return nil, fmt.Errorf("%s: no experiments (not a -sweeps artifact?)", path)
	}
	return &rep, nil
}

// hostMismatch lists the Host fields on which two artifacts disagree.
// ns/op comparisons across different hosts are noise, so a mismatch is
// always surfaced; -require-same-host upgrades it to a hard failure.
func hostMismatch(a, b *SweepReport) []string {
	var diffs []string
	if a.Host.GOOS != b.Host.GOOS {
		diffs = append(diffs, fmt.Sprintf("goos %q vs %q", a.Host.GOOS, b.Host.GOOS))
	}
	if a.Host.GOARCH != b.Host.GOARCH {
		diffs = append(diffs, fmt.Sprintf("goarch %q vs %q", a.Host.GOARCH, b.Host.GOARCH))
	}
	if a.Host.NumCPU != b.Host.NumCPU {
		diffs = append(diffs, fmt.Sprintf("num_cpu %d vs %d", a.Host.NumCPU, b.Host.NumCPU))
	}
	if a.Host.GOMAXPROCS != b.Host.GOMAXPROCS {
		diffs = append(diffs, fmt.Sprintf("gomaxprocs %d vs %d", a.Host.GOMAXPROCS, b.Host.GOMAXPROCS))
	}
	return diffs
}

// runCompare diffs oldPath (the baseline) against newPath and returns the
// process exit code: 0 when every baseline workload is present in the new
// artifact and within budget, 1 otherwise. A ratio limit of 0 disables
// that axis; workloads only present in the new artifact are reported but
// never fail (they have no baseline yet). Artifacts from different hosts
// draw a loud warning (the ns/op axis is meaningless across hosts) and,
// with requireSameHost, fail outright.
func runCompare(oldPath, newPath string, maxNsRatio, maxAllocRatio float64, requireSameHost bool) (int, error) {
	oldRep, err := loadSweepReport(oldPath)
	if err != nil {
		return 1, err
	}
	newRep, err := loadSweepReport(newPath)
	if err != nil {
		return 1, err
	}
	// Provenance up front: speedup and scaling claims in an artifact are
	// only as good as the host that recorded it, so the core counts are
	// printed on every compare, not just on mismatch.
	fmt.Printf("baseline %s: %s/%s num_cpu=%d gomaxprocs=%d parallel_workers=%d\n",
		oldPath, oldRep.Host.GOOS, oldRep.Host.GOARCH,
		oldRep.Host.NumCPU, oldRep.Host.GOMAXPROCS, oldRep.ParallelWorkers)
	fmt.Printf("new      %s: %s/%s num_cpu=%d gomaxprocs=%d parallel_workers=%d\n",
		newPath, newRep.Host.GOOS, newRep.Host.GOARCH,
		newRep.Host.NumCPU, newRep.Host.GOMAXPROCS, newRep.ParallelWorkers)
	if oldRep.Host.NumCPU == 1 {
		fmt.Println("WARNING: baseline was recorded on a single-CPU host (num_cpu=1) — its parallel numbers and speedups " +
			"measure scheduler overhead, not scaling; re-baseline on a multicore host before trusting them")
	}
	hostDiffs := hostMismatch(oldRep, newRep)
	for _, d := range hostDiffs {
		fmt.Printf("WARNING: artifacts come from different hosts: %s — ns/op ratios are not comparable\n", d)
	}
	if requireSameHost && len(hostDiffs) > 0 {
		fmt.Println("FAIL: -require-same-host set and the Host blocks differ")
		return 1, nil
	}
	newByName := map[string]SweepResult{}
	for _, e := range newRep.Experiments {
		newByName[e.Name] = e
	}

	fmt.Printf("comparing serial sweep costs: %s (baseline) vs %s\n", oldPath, newPath)
	fmt.Printf("budgets: ns/op ratio <= %s, allocs/op ratio <= %s, simulator counts exact\n",
		ratioLimit(maxNsRatio), ratioLimit(maxAllocRatio))
	table := tablefmt.New("workload", "ns/op old", "ns/op new", "ratio", "allocs old", "allocs new", "ratio", "status")
	failed := false
	var countDiffs []string
	for _, e := range oldRep.Experiments {
		ne, ok := newByName[e.Name]
		nc := ne.Serial
		if !ok {
			table.AddRow(e.Name, fmt.Sprint(e.Serial.NsPerOp), "-", "-",
				fmt.Sprint(e.Serial.AllocsPerOp), "-", "-", "FAIL (missing)")
			failed = true
			continue
		}
		delete(newByName, e.Name)
		nsRatio := ratio(nc.NsPerOp, e.Serial.NsPerOp)
		allocRatio := ratio(nc.AllocsPerOp, e.Serial.AllocsPerOp)
		status := "ok"
		if maxNsRatio > 0 && nsRatio > maxNsRatio {
			status = "FAIL (ns/op)"
			failed = true
		}
		if maxAllocRatio > 0 && allocRatio > maxAllocRatio {
			if status != "ok" {
				status = "FAIL (ns/op, allocs/op)"
			} else {
				status = "FAIL (allocs/op)"
			}
			failed = true
		}
		table.AddRow(e.Name,
			fmt.Sprint(e.Serial.NsPerOp), fmt.Sprint(nc.NsPerOp), fmt.Sprintf("%.3f", nsRatio),
			fmt.Sprint(e.Serial.AllocsPerOp), fmt.Sprint(nc.AllocsPerOp), fmt.Sprintf("%.3f", allocRatio),
			status)
		if e.Counts != nil && (ne.Counts == nil || *ne.Counts != *e.Counts) {
			countDiffs = append(countDiffs, fmt.Sprintf("%s: counts per op %+v, baseline %+v", e.Name, ne.Counts, *e.Counts))
		}
	}
	for name, ne := range newByName {
		table.AddRow(name, "-", fmt.Sprint(ne.Serial.NsPerOp), "-", "-", fmt.Sprint(ne.Serial.AllocsPerOp), "-", "new")
	}
	fmt.Println(table)
	for _, d := range countDiffs {
		fmt.Println("FAIL (counts)", d)
		failed = true
	}
	if failed {
		fmt.Println("FAIL: sweep cost regressed past the budget, simulator counts changed, or a baseline workload disappeared")
		return 1, nil
	}
	fmt.Println("PASS: all sweep costs within budget")
	return 0, nil
}

// ratio returns new/old, treating a zero baseline as exactly met (1.0) so
// a workload that allocated nothing before and still allocates nothing
// passes, while any growth from zero trips the budget.
func ratio(newV, oldV int64) float64 {
	if oldV == 0 {
		if newV == 0 {
			return 1
		}
		return 1e9
	}
	return float64(newV) / float64(oldV)
}

// ratioLimit renders a threshold, showing disabled axes explicitly.
func ratioLimit(v float64) string {
	if v <= 0 {
		return "disabled"
	}
	return fmt.Sprintf("%.2f", v)
}
