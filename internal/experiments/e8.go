package experiments

import (
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/spec"
	"repro/internal/tablefmt"
)

// E8Row contrasts one algorithm's per-passage RMR costs under the CC
// (write-through) model and under DSM. The paper's Section 6 cites the
// Danek-Hadzilacos Omega(n) DSM lower bound and notes it does not apply to
// CC; this experiment makes the model gap concrete:
//
//   - flag-array allocates each reader's flag at that reader, so its
//     reader side is fully local under DSM (the DSM-appropriate design).
//   - A_f (and the writers' tournament mutex) spin on globally-homed
//     variables: optimal in CC, but remote under DSM, so reader costs
//     that were Theta(log(n/f)) RMRs in CC become larger in DSM.
type E8Row struct {
	Alg string
	N   int
	// CCReader/CCWriter: worst per-passage RMRs under write-through.
	CCReader, CCWriter int
	// DSMReader/DSMWriter: the same workload under DSM.
	DSMReader, DSMWriter int
}

// E8ModelContrast measures the same low-contention workload under both
// models for A_f (af-log) and the flag-array baseline.
func E8ModelContrast(ns []int) ([]E8Row, *tablefmt.Table, error) {
	facs := factories("af-log", "af-n", "flag-array")

	measure := func(fac Factory, n int, protocol sim.Protocol) (reader, writer int, err error) {
		rep := spec.Run(fac.New(), spec.Scenario{
			NReaders: n, NWriters: 1,
			ReaderPassages: 2, WriterPassages: 2,
			Protocol:  protocol,
			Scheduler: sched.NewSticky(),
			MaxSteps:  20_000_000,
		})
		if !rep.OK() {
			return 0, 0, &RunError{Exp: "E8", Alg: fac.Name, N: n, Detail: rep.Failures()}
		}
		return rep.MaxReaderPassage.RMR(), rep.MaxWriterPassage.RMR(), nil
	}

	rows, err := gridRows(facs, ns, nSquaredCost, func(fac Factory, n int) (E8Row, error) {
		ccR, ccW, err := measure(fac, n, sim.WriteThrough)
		if err != nil {
			return E8Row{}, err
		}
		dsmR, dsmW, err := measure(fac, n, sim.DSM)
		if err != nil {
			return E8Row{}, err
		}
		return E8Row{
			Alg: fac.Name, N: n,
			CCReader: ccR, CCWriter: ccW,
			DSMReader: dsmR, DSMWriter: dsmW,
		}, nil
	})
	if err != nil {
		return nil, nil, err
	}
	return rows, e8Table(rows), nil
}

func e8Table(rows []E8Row) *tablefmt.Table {
	t := tablefmt.New("algorithm", "n",
		"reader RMR (CC)", "reader RMR (DSM)", "writer RMR (CC)", "writer RMR (DSM)")
	last := ""
	for _, r := range rows {
		if last != "" && r.Alg != last {
			t.AddRule()
		}
		last = r.Alg
		t.AddRow(r.Alg, tablefmt.Itoa(r.N),
			tablefmt.Itoa(r.CCReader), tablefmt.Itoa(r.DSMReader),
			tablefmt.Itoa(r.CCWriter), tablefmt.Itoa(r.DSMWriter))
	}
	return t
}
