package experiments

import (
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/spec"
	"repro/internal/stats"
	"repro/internal/tablefmt"
	"repro/internal/workload"
)

// E4Row compares one algorithm under one workload mix.
type E4Row struct {
	Alg string
	Mix string
	N   int
	M   int
	// MeanReaderRMR / MeanWriterRMR are per-passage means across all
	// processes and seeds.
	MeanReaderRMR float64
	MeanWriterRMR float64
	// P95ReaderRMR captures tail cost (invalidation storms show up here).
	P95ReaderRMR float64
	// TotalRMR is the execution-wide RMR count (coherence traffic proxy),
	// averaged over seeds.
	TotalRMR float64
}

// E4Baselines runs the cross-algorithm comparison: every algorithm, every
// mix, a fixed population, averaged over seeds under random scheduling,
// on the write-through protocol.
func E4Baselines(n, m int, seeds []int64) ([]E4Row, *tablefmt.Table, error) {
	// nil cost: every cell runs the same population over the same passage
	// plan — the mixes axis does not change the row shape.
	rows, err := gridRows(AllFactories(), workload.Mixes, nil, func(fac Factory, mix workload.Mix) (E4Row, error) {
		rp, wp := workload.Plan(n, m, 8*(n+m), mix)
		var readerRMRs, writerRMRs, totals []float64
		for _, seed := range seeds {
			rep := spec.Run(fac.New(), spec.Scenario{
				NReaders: n, NWriters: m,
				ReaderPassages: rp, WriterPassages: wp,
				Protocol:  sim.WriteThrough,
				Scheduler: sched.NewRandom(seed),
				MaxSteps:  50_000_000,
				CSReads:   1,
			})
			if !rep.OK() {
				return E4Row{}, &RunError{Exp: "E4", Alg: fac.Name, N: n, Detail: rep.Failures()}
			}
			total := 0
			for _, acct := range rep.ReaderAccounts {
				total += acct.TotalRMR
				for _, pass := range acct.Passages {
					readerRMRs = append(readerRMRs, float64(pass.RMR()))
				}
			}
			for _, acct := range rep.WriterAccounts {
				total += acct.TotalRMR
				for _, pass := range acct.Passages {
					writerRMRs = append(writerRMRs, float64(pass.RMR()))
				}
			}
			totals = append(totals, float64(total))
		}
		rs := stats.Summarize(readerRMRs)
		ws := stats.Summarize(writerRMRs)
		ts := stats.Summarize(totals)
		return E4Row{
			Alg: fac.Name, Mix: mix.Name, N: n, M: m,
			MeanReaderRMR: rs.Mean, MeanWriterRMR: ws.Mean,
			P95ReaderRMR: rs.P95, TotalRMR: ts.Mean,
		}, nil
	})
	if err != nil {
		return nil, nil, err
	}
	return rows, e4Table(rows), nil
}

func e4Table(rows []E4Row) *tablefmt.Table {
	t := tablefmt.New("algorithm", "mix", "n", "m",
		"reader RMR/pass", "reader p95", "writer RMR/pass", "total RMR")
	last := ""
	for _, r := range rows {
		if last != "" && r.Alg != last {
			t.AddRule()
		}
		last = r.Alg
		t.AddRow(r.Alg, r.Mix, tablefmt.Itoa(r.N), tablefmt.Itoa(r.M),
			tablefmt.F1(r.MeanReaderRMR), tablefmt.F1(r.P95ReaderRMR),
			tablefmt.F1(r.MeanWriterRMR), tablefmt.F1(r.TotalRMR))
	}
	return t
}
