package experiments

import (
	"fmt"
	"strings"

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
	// smaller grid for smoke runs when quick is set (E13-E15 have no
	// smaller grid and ignore it). It errors when a claim the table
	// checks fails.
	Run func(quick bool) (fmt.Stringer, error)
}

// Registry returns every simulator table of EXPERIMENTS.md in experiment
// number order. Each entry's default grid is the one the published table
// was made with. cmd/rmrall prints the entries and bench_test.go times
// them. E7 is native throughput and lives in bench_test.go and
// cmd/rwbench.
func Registry() []Entry {
	return []Entry{
		{"E1", "A_f tradeoff (Theorem 18), write-through, single writer, max per-passage RMRs",
			func(quick bool) (fmt.Stringer, error) {
				return table(E1Tradeoff(grid(quick, []int{8, 32, 128, 512}, []int{8, 32}), sim.WriteThrough))
			}},
		{"E2", "Theorem-5 adversarial construction (write-through), single writer; r = expanding-step iterations",
			func(quick bool) (fmt.Stringer, error) {
				return table(E2LowerBound(grid(quick, []int{9, 27, 81, 243}, []int{9, 27})))
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
				return table(E4Baselines(16, 2, grid(quick, []int64{1, 2, 3}, []int64{1})))
			}},
		{"E5", "A_f tradeoff under write-through vs write-back (max per-passage RMRs)",
			func(quick bool) (fmt.Stringer, error) {
				return table(E5Protocols(grid(quick, []int{8, 32, 128}, []int{8})))
			}},
		{"E6", "property matrix (Mutual Exclusion, progress, reader overlap, Bounded Exit)",
			func(quick bool) (fmt.Stringer, error) {
				return table(E6Properties(grid(quick, []int64{1, 2, 3, 4, 5}, []int64{1})))
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
				return table(E12ShapeFits(grid(quick, []int{8, 16, 32, 64, 128, 256, 512}, []int{8, 32})))
			}},
		{"E13", "crash-stop robustness and abortable entry",
			func(bool) (fmt.Stringer, error) {
				_, crash, err := E13CrashSweep()
				if err != nil {
					return nil, err
				}
				_, abort, err := E13AbortCost([]int{2, 4, 16, 64})
				if err != nil {
					return nil, err
				}
				return captioned{
					{"crash-stop sweep (n=2, m=2, 2 passages, round-robin; one victim per run)", crash},
					{"abort cost of one failing try attempt (opposing class holds the CS)", abort},
				}, nil
			}},
		{"E14", "crash-recovery sweep (n=2, m=2, 2 passages; restart after every crash)",
			func(bool) (fmt.Stringer, error) {
				return table(E14RecoverySweep())
			}},
		{"E15", "fail-slow robustness: stall sweep, reader liveness, crash+stall mix",
			func(bool) (fmt.Stringer, error) {
				_, stall, err := E15StallSweep()
				if err != nil {
					return nil, err
				}
				_, readers, err := E15ReaderLiveness()
				if err != nil {
					return nil, err
				}
				_, mixed, err := E15MixedSweep()
				if err != nil {
					return nil, err
				}
				return captioned{
					{"fail-slow stall sweep (n=2, m=2, 2 passages, round-robin; every boundary, finite + forever)", stall},
					{"reader liveness under an in-CS reader stall (readers-only; mutex-rw is the negative control)", readers},
					{"sampled crash+stall mixed sweep (one crash victim + one stall victim per run)", mixed},
				}, nil
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

// captioned renders an entry with several tables, each under its caption
// line.
type captioned []struct {
	caption string
	table   *tablefmt.Table
}

func (c captioned) String() string {
	var b strings.Builder
	for i, t := range c {
		if i > 0 {
			b.WriteString("\n")
		}
		b.WriteString(t.caption + "\n" + t.table.String())
	}
	return b.String()
}

// table drops an experiment's rows and keeps its rendered table.
func table[R any](_ R, t *tablefmt.Table, err error) (fmt.Stringer, error) {
	if err != nil {
		return nil, err
	}
	return t, nil
}
