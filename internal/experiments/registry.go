package experiments

import (
	"fmt"

	"repro/internal/sim"
	"repro/internal/tablefmt"
)

// Entry is one table of EXPERIMENTS.md that the registry regenerates.
type Entry struct {
	// Name is the table's short name ("E1", "E3a", ...).
	Name string
	// Title describes the table in one line.
	Title string
	// Run regenerates the table: the documented grid by default, or a
	// smaller grid for smoke runs when quick is set.
	Run func(quick bool) (fmt.Stringer, error)
}

// Registry returns every simulator table of EXPERIMENTS.md in experiment
// number order. Each entry's default grid is the one the published table
// was made with. cmd/rmrall prints the entries and bench_test.go times
// them. E7 is native throughput and lives in bench_test.go; E13-E15 are
// the rwverify gates.
func Registry() []Entry {
	return []Entry{
		{"E1", "A_f tradeoff (Theorem 18), write-through, single writer, max per-passage RMRs",
			func(quick bool) (fmt.Stringer, error) {
				return table(E1Tradeoff(grid(quick, []int{8, 32, 128, 512}, []int{8, 32}), sim.WriteThrough))
			}},
		{"E2", "Theorem-5 adversarial construction (write-through), single writer; r = expanding-step iterations",
			func(quick bool) (fmt.Stringer, error) {
				return table(E2LowerBound(grid(quick, []int{9, 27, 81, 243}, []int{9, 27}), sim.WriteThrough))
			}},
		{"E3a", "Corollary 6 — max(writer entry, reader exit) RMR vs log2 n (adversarial)",
			func(quick bool) (fmt.Stringer, error) {
				return table(E3MaxBound(grid(quick, []int{8, 32, 128}, []int{8})))
			}},
		{"E3b", "Corollary 7 — writer passage RMR vs log2 m (writers only)",
			func(quick bool) (fmt.Stringer, error) {
				return table(E3WriterMutex(grid(quick, []int{1, 4, 16, 64}, []int{1, 16})))
			}},
		{"E4", "algorithm comparison, n=16 m=2, write-through, random schedules",
			func(quick bool) (fmt.Stringer, error) {
				return table(E4Baselines(16, 2, grid(quick, []int64{1, 2, 3}, []int64{1}), sim.WriteThrough))
			}},
		{"E5", "A_f tradeoff under write-through vs write-back (max per-passage RMRs)",
			func(quick bool) (fmt.Stringer, error) {
				return table(E5Protocols(grid(quick, []int{8, 32, 128}, []int{8})))
			}},
		{"E6", "property matrix (Mutual Exclusion, progress, reader overlap, Bounded Exit)",
			func(quick bool) (fmt.Stringer, error) {
				rows, t, err := E6Properties(grid(quick, []int64{1, 2, 3}, []int64{1}))
				if err != nil {
					return nil, err
				}
				for _, r := range rows {
					if !r.MutualExclusion || !r.Progress {
						return nil, fmt.Errorf("%s violated Mutual Exclusion or Progress", r.Alg)
					}
				}
				return t, nil
			}},
		{"E8", "CC (write-through) vs DSM per-passage RMRs",
			func(quick bool) (fmt.Stringer, error) {
				return table(E8ModelContrast(grid(quick, []int{8, 32, 128}, []int{8})))
			}},
		{"E9", "A_f group-counter ablation (f-array vs CAS word vs cell array)",
			func(quick bool) (fmt.Stringer, error) {
				return table(E9CounterAblation(grid(quick, []int{4, 16, 64}, []int{1})))
			}},
		{"E10", "A_f writer costs across WL substrates (writers-only workload)",
			func(quick bool) (fmt.Stringer, error) {
				return table(E10MutexSubstrates(grid(quick, []int{1, 4, 16, 64}, []int{1, 16})))
			}},
		{"E11", "worst reader exit RMR, adversarial vs uniform-random schedules",
			func(quick bool) (fmt.Stringer, error) {
				return table(E11AdversaryValue(grid(quick, []int{9, 27, 81, 243}, []int{9, 27}),
					grid(quick, []int64{1, 2, 3, 4, 5, 6, 7, 8}, []int64{1, 2, 3, 4})))
			}},
		{"E12", "Theorem-18 shapes as least-squares fits over the E1 grid",
			func(quick bool) (fmt.Stringer, error) {
				return table(E12ShapeFits(grid(quick, []int{8, 16, 32, 64, 128, 256, 512}, []int{8, 32}), sim.WriteThrough))
			}},
	}
}

// grid picks an entry's quick or full parameter grid.
func grid[T any](quick bool, full, small []T) []T {
	if quick {
		return small
	}
	return full
}

// table drops an experiment's rows and keeps its rendered table.
func table[R any](_ R, t *tablefmt.Table, err error) (fmt.Stringer, error) {
	if err != nil {
		return nil, err
	}
	return t, nil
}
