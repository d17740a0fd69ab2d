package experiments

import (
	"fmt"

	"repro/internal/sim"
	"repro/internal/tablefmt"
)

// E5Row pairs the E1 measurements under both coherence protocols for one
// grid point. The paper's Section 2 states its results apply to both
// write-through and write-back; the asymptotic shapes must match, with
// write-back typically cheaper by a constant (repeated writes by the same
// process are free there).
type E5Row struct {
	FName string
	N     int
	// WTWriter/WTReader are write-through worst per-passage RMRs;
	// WBWriter/WBReader the write-back ones.
	WTWriter, WTReader int
	WBWriter, WBReader int
}

// E5Protocols reruns the E1 grid under both protocols and pairs the
// results.
func E5Protocols(ns []int) ([]E5Row, *tablefmt.Table, error) {
	wt, _, err := E1Tradeoff(ns, sim.WriteThrough)
	if err != nil {
		return nil, nil, fmt.Errorf("E5: %w", err)
	}
	wb, _, err := E1Tradeoff(ns, sim.WriteBack)
	if err != nil {
		return nil, nil, fmt.Errorf("E5: %w", err)
	}
	if len(wt) != len(wb) {
		return nil, nil, &RunError{Exp: "E5", Alg: "grid", Detail: "grid size mismatch"}
	}
	rows := make([]E5Row, len(wt))
	for i := range wt {
		rows[i] = E5Row{
			FName:    wt[i].FName,
			N:        wt[i].N,
			WTWriter: wt[i].WriterEntryRMR,
			WTReader: wt[i].ReaderPassRMR,
			WBWriter: wb[i].WriterEntryRMR,
			WBReader: wb[i].ReaderPassRMR,
		}
	}
	return rows, e5Table(rows), nil
}

func e5Table(rows []E5Row) *tablefmt.Table {
	t := tablefmt.New("f", "n",
		"writer RMR (WT)", "writer RMR (WB)", "reader RMR (WT)", "reader RMR (WB)")
	last := ""
	for _, r := range rows {
		if last != "" && r.FName != last {
			t.AddRule()
		}
		last = r.FName
		t.AddRow("af-"+r.FName, tablefmt.Itoa(r.N),
			tablefmt.Itoa(r.WTWriter), tablefmt.Itoa(r.WBWriter),
			tablefmt.Itoa(r.WTReader), tablefmt.Itoa(r.WBReader))
	}
	return t
}
