package experiments

import (
	"fmt"
	"strings"

	"repro/internal/explore"
	"repro/internal/spec"
	"repro/internal/tablefmt"
)

// E16Row is one algorithm's exhaustive exploration of the tiny scenario.
type E16Row struct {
	Alg string
	explore.Result
}

// E16ModelCheck enumerates every schedule of one reader passage against
// one writer passage (n=1, m=1) for each algorithm, checking Mutual
// Exclusion and progress on each (internal/explore), and errors if a tree
// is not exhausted or holds a violation. The algorithm loop is serial:
// each exploration fans its root subtrees across the worker pool.
func E16ModelCheck(facs []Factory) ([]E16Row, *tablefmt.Table, error) {
	sc := spec.Scenario{NReaders: 1, NWriters: 1, ReaderPassages: 1, WriterPassages: 1}
	var rows []E16Row
	for _, fac := range facs {
		res, err := explore.Algorithm(fac.New, sc, explore.Config{})
		if err != nil {
			return nil, nil, fmt.Errorf("E16 %s: %w", fac.Name, err)
		}
		rows = append(rows, E16Row{fac.Name, *res})
	}
	if err := e16Verdict(rows); err != nil {
		return nil, nil, err
	}
	// Past the verdict every tree is exhausted.
	t := tablefmt.New("algorithm", "schedules", "max depth", "complete")
	for _, r := range rows {
		t.AddRow(r.Alg, tablefmt.Itoa(r.Runs), tablefmt.Itoa(r.MaxDepth), "yes")
	}
	return rows, t, nil
}

// e16Verdict fails the first row with a violation, naming the rwtrace
// command that replays it, or whose schedule tree was not exhausted.
func e16Verdict(rows []E16Row) error {
	for _, r := range rows {
		switch {
		case r.Violation != "":
			path := strings.Trim(strings.ReplaceAll(fmt.Sprint(r.ViolationPath), " ", ","), "[]")
			return fmt.Errorf("E16 %s: violation on choice path %s (replay: rwtrace -alg %s -n 1 -m 1 -path %s):\n%s",
				r.Alg, path, r.Alg, path, r.Violation)
		case !r.Complete:
			return fmt.Errorf("E16 %s: schedule tree not exhausted after %d schedules", r.Alg, r.Runs)
		}
	}
	return nil
}
