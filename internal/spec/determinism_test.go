package spec

import (
	"fmt"
	"runtime"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/memmodel"
	"repro/internal/recoverable"
	"repro/internal/sched"
)

// determinismWorkerCounts returns the worker counts the gate compares:
// serial, the smallest genuinely parallel pool, and the machine's full
// width (deduplicated, so the gate is meaningful on 1- and 2-core hosts
// too).
func determinismWorkerCounts() []int {
	counts := []int{1, 2, runtime.NumCPU()}
	seen := map[int]bool{}
	out := counts[:0]
	for _, c := range counts {
		if !seen[c] {
			seen[c] = true
			out = append(out, c)
		}
	}
	return out
}

// render flattens a sweep's results into one comparable string. Pointer
// elements are dereferenced so the fingerprint covers values, not
// addresses.
func render[T any](outs []T) string {
	var b strings.Builder
	for i, o := range outs {
		fmt.Fprintf(&b, "%d: %+v\n", i, o)
	}
	return b.String()
}

func renderPtrs[T any](outs []*T) string {
	var b strings.Builder
	for i, o := range outs {
		fmt.Fprintf(&b, "%d: %+v\n", i, *o)
	}
	return b.String()
}

// TestSweepDeterminism is the determinism gate for the parallel sweep
// engine: every parallelized sweep entry point must return byte-identical
// results at every worker count. Run under -race in CI, it also shakes out
// data races between sweep workers. The CrashSweepSampled and
// StallSweepSampled legs run the crash and stall row plans in the driver's
// sampled mode (per-seed references, seed-prefixed rows), the shape no
// exported entry point uses on its own.
func TestSweepDeterminism(t *testing.T) {
	newAlg := func() memmodel.Algorithm { return core.New(core.FLog) }
	newRec := func() memmodel.RecoverableAlgorithm { return recoverable.NewCentralized() }
	sc := Scenario{NReaders: 2, NWriters: 2, ReaderPassages: 2, WriterPassages: 2, CSReads: 1}
	seeds := []int64{1, 2}
	pct := func(seed int64) sched.Scheduler { return sched.NewPCT(seed, 3, 4096) }

	cases := []struct {
		name string
		run  func(sc Scenario) (string, error)
	}{
		{"CrashSweep", func(sc Scenario) (string, error) {
			outs, err := CrashSweep(newAlg, sc, 0, nil)
			return render(outs), err
		}},
		{"CrashSweepSampled", func(sc Scenario) (string, error) {
			pl := crashPlan(newAlg, sc, "crash-sampled", "", nil, func(seed int64, steps int) []fault.Point {
				return dedupPoints(fault.RandomPoints(seed, []int{0, 2}, steps+1, 4))
			})
			pl.sampled, pl.seeds = true, seeds
			outs, err := sweep(sc, pl)
			return render(outs), err
		}},
		{"StallSweep", func(sc Scenario) (string, error) {
			outs, err := StallSweep(newAlg, sc, 0, nil)
			return render(outs), err
		}},
		{"StallSweepSampled", func(sc Scenario) (string, error) {
			pl := stallPlan(newAlg, sc, "stall-sampled", "", nil, func(seed int64, steps int) []fault.StallPoint {
				return fault.RandomStallPoints(seed, []int{0, 2}, steps+1, 4, steps+1)
			})
			pl.sampled, pl.seeds = true, seeds
			outs, err := sweep(sc, pl)
			return render(outs), err
		}},
		{"MixedSweepSampled", func(sc Scenario) (string, error) {
			outs, err := MixedSweepSampled(newAlg, sc, []int{0, 1}, []int{2, 3}, seeds, 4, nil)
			return render(outs), err
		}},
		{"MixedSweepSampledPCT", func(sc Scenario) (string, error) {
			outs, err := MixedSweepSampled(newAlg, sc, []int{0, 2}, []int{1, 3}, seeds, 4, pct)
			return render(outs), err
		}},
		{"RecoverySweep", func(sc Scenario) (string, error) {
			outs, err := RecoverySweep(newRec, sc, 0, 0, nil)
			return renderPtrs(outs), err
		}},
		{"RecoverySweepRecrash", func(sc Scenario) (string, error) {
			outs, err := RecoverySweepRecrash(newRec, sc, 0, 3, []int{1, 2}, nil)
			return renderPtrs(outs), err
		}},
		{"RecoverySweepSampled", func(sc Scenario) (string, error) {
			outs, err := RecoverySweepSampled(newRec, sc, []int{0}, seeds, 4, 1, nil)
			return renderPtrs(outs), err
		}},
	}

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			serial := sc
			serial.Parallel = 1
			want, err := tc.run(serial)
			if err != nil {
				t.Fatalf("serial run: %v", err)
			}
			if want == "" {
				t.Fatal("serial run produced no outcomes; the case is vacuous")
			}
			// The sweeps' cost hints change the claim order at every
			// parallel worker count and must never change the bytes.
			for _, workers := range determinismWorkerCounts()[1:] {
				par := sc
				par.Parallel = workers
				got, err := tc.run(par)
				if err != nil {
					t.Fatalf("parallel=%d run: %v", workers, err)
				}
				if got != want {
					t.Errorf("parallel=%d diverged from serial output", workers)
				}
			}
		})
	}
}
