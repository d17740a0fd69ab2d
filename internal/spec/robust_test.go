package spec

import (
	"encoding/json"
	"errors"
	"fmt"
	"path/filepath"
	"sync/atomic"
	"testing"

	"repro/internal/checkpoint"
	"repro/internal/core"
	"repro/internal/memmodel"
	"repro/internal/parwork"
	"repro/internal/recoverable"
	"repro/internal/sched"
)

// TestCheckpointResumeDeterminism is the acceptance gate for crash-safe
// sweeps: a sweep interrupted by its Stopper and resumed from the
// checkpoint must produce output byte-identical to an uninterrupted run —
// at worker counts 1, 2 and NumCPU, across the three outcome wire formats
// (CrashOutcome, StallOutcome, *RecoverOutcome with its Scenario stub).
func TestCheckpointResumeDeterminism(t *testing.T) {
	newAlg := func() memmodel.Algorithm { return core.New(core.FLog) }
	newRec := func() memmodel.RecoverableAlgorithm { return recoverable.NewCentralized() }
	base := Scenario{NReaders: 2, NWriters: 2, ReaderPassages: 2, WriterPassages: 2, CSReads: 1}
	seeds := []int64{1, 2}

	cases := []struct {
		name string
		run  func(sc Scenario) (string, error)
	}{
		{"CrashSweep", func(sc Scenario) (string, error) {
			outs, err := CrashSweep(newAlg, sc, 0, nil)
			return render(outs), err
		}},
		{"MixedSweepSampled", func(sc Scenario) (string, error) {
			outs, err := MixedSweepSampled(newAlg, sc, []int{0, 1}, []int{2, 3}, seeds, 6, nil)
			return render(outs), err
		}},
		{"RecoverySweepSampled", func(sc Scenario) (string, error) {
			outs, err := RecoverySweepSampled(newRec, sc, []int{0}, seeds, 6, 1, nil)
			return renderPtrs(outs), err
		}},
	}

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			plain := base
			plain.Parallel = 1
			want, err := tc.run(plain)
			if err != nil {
				t.Fatalf("plain serial run: %v", err)
			}
			if want == "" {
				t.Fatal("plain run produced no outcomes; the case is vacuous")
			}

			for _, workers := range determinismWorkerCounts() {
				t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
					dir := t.TempDir()

					// Uninterrupted checkpointed run: the sink must not
					// perturb results.
					st, err := checkpoint.Open(filepath.Join(dir, "full.json"), false)
					if err != nil {
						t.Fatal(err)
					}
					sc := base
					sc.Parallel = workers
					sc.Robust = &RobustOptions{Store: st}
					got, err := tc.run(sc)
					if err != nil {
						t.Fatalf("checkpointed run: %v", err)
					}
					if got != want {
						t.Error("checkpointed run diverged from the plain run")
					}

					// Interrupted run: stop after a few rows. The pool is
					// capped at 2 here so in-flight overshoot cannot finish
					// the whole (small) sampled sweeps before the stop
					// lands; the resume below still runs at full width.
					ckPath := filepath.Join(dir, "ck.json")
					st1, err := checkpoint.Open(ckPath, false)
					if err != nil {
						t.Fatal(err)
					}
					stop := parwork.NewStopper()
					scI := base
					scI.Parallel = min(workers, 2)
					scI.Robust = &RobustOptions{Store: st1, Stop: stop,
						AfterRow: func(done int) {
							if done >= 3 {
								stop.Stop()
							}
						}}
					_, err = tc.run(scI)
					var ie *parwork.InterruptedError
					if !errors.As(err, &ie) {
						t.Fatalf("interrupted run returned %v, want *parwork.InterruptedError", err)
					}
					if ie.Done == 0 || ie.Done >= ie.Total {
						t.Fatalf("interrupt left %d/%d rows done; the split is vacuous", ie.Done, ie.Total)
					}

					// Resume: restored rows + freshly computed rows must
					// merge into the byte-identical output.
					st2, err := checkpoint.Open(ckPath, true)
					if err != nil {
						t.Fatalf("reopening checkpoint: %v", err)
					}
					var computed atomic.Int64
					scR := base
					scR.Parallel = workers
					scR.Robust = &RobustOptions{Store: st2,
						AfterRow: func(done int) { computed.Store(int64(done)) }}
					got2, err := tc.run(scR)
					if err != nil {
						t.Fatalf("resumed run: %v", err)
					}
					if got2 != want {
						t.Error("resumed run diverged from the uninterrupted output")
					}
					if int(computed.Load()) != ie.Total-ie.Done {
						t.Errorf("resume computed %d rows, want exactly the %d the interrupt left",
							computed.Load(), ie.Total-ie.Done)
					}
				})
			}
		})
	}
}

// bombSched panics on its first scheduling decision, simulating a row
// whose job blows up mid-execution.
type bombSched struct{ sched.Scheduler }

func (bombSched) Next(int, []int) int { panic("injected row panic") }

// bombAfter wraps a scheduler factory: the fuse'th instance it hands out
// is a bomb. With Parallel=1 the rows consume instances in order, so the
// failing row is deterministic.
func bombAfter(fuse int) func() sched.Scheduler {
	var calls atomic.Int64
	return func() sched.Scheduler {
		s := sched.NewRoundRobin()
		if calls.Add(1) == int64(fuse) {
			return bombSched{s}
		}
		return s
	}
}

// TestSweepKeepGoingIsolatesPanickingRow is the acceptance check for
// -keep-going: an injected panicking row becomes a reported RowFailure in
// its outcome slot and the sweep completes; a later resume retries the
// failed row (it is never checkpointed) and reproduces the clean output.
func TestSweepKeepGoingIsolatesPanickingRow(t *testing.T) {
	newAlg := func() memmodel.Algorithm { return core.New(core.FLog) }
	base := Scenario{NReaders: 2, NWriters: 1, ReaderPassages: 1, WriterPassages: 1}
	base.Parallel = 1

	want, err := CrashSweep(newAlg, base, 0, nil)
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	st, err := checkpoint.Open(filepath.Join(dir, "ck.json"), false)
	if err != nil {
		t.Fatal(err)
	}
	sc := base
	sc.Robust = &RobustOptions{Store: st, KeepGoing: true}
	outs, err := CrashSweep(newAlg, sc, 0, bombAfter(5))
	if err != nil {
		t.Fatalf("keep-going sweep aborted: %v", err)
	}
	if len(outs) != len(want) {
		t.Fatalf("keep-going sweep returned %d outcomes, want %d", len(outs), len(want))
	}
	failed := -1
	for i, o := range outs {
		var rf *parwork.RowFailure
		if errors.As(o.Err, &rf) {
			if failed != -1 {
				t.Fatalf("rows %d and %d both failed; want exactly one", failed, i)
			}
			failed = i
			if rf.Index != i {
				t.Errorf("RowFailure.Index = %d in slot %d", rf.Index, i)
			}
			if rf.PanicValue != "injected row panic" {
				t.Errorf("PanicValue = %q", rf.PanicValue)
			}
			if rf.Stack == "" {
				t.Error("RowFailure carries no stack")
			}
			if rf.Info == "" {
				t.Error("RowFailure carries no fault-point info")
			}
			if o.Point != want[i].Point {
				t.Errorf("failed slot %d lost its fault point: %v != %v", i, o.Point, want[i].Point)
			}
			continue
		}
		if o.Err != nil {
			t.Errorf("row %d: unexpected error %v", i, o.Err)
		}
		if fmt.Sprintf("%+v", o) != fmt.Sprintf("%+v", want[i]) {
			t.Errorf("healthy row %d diverged from the clean sweep", i)
		}
	}
	if failed == -1 {
		t.Fatal("the injected panic produced no RowFailure")
	}

	// Resume with a healthy scheduler factory: only the failed row is
	// recomputed, and the output now matches the clean sweep everywhere.
	st2, err := checkpoint.Open(filepath.Join(dir, "ck.json"), true)
	if err != nil {
		t.Fatal(err)
	}
	var computed atomic.Int64
	scR := base
	scR.Robust = &RobustOptions{Store: st2,
		AfterRow: func(done int) { computed.Store(int64(done)) }}
	outs2, err := CrashSweep(newAlg, scR, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if computed.Load() != 1 {
		t.Errorf("resume recomputed %d rows, want just the failed one", computed.Load())
	}
	if render(outs2) != render(want) {
		t.Error("resumed sweep diverged from the clean sweep")
	}
}

// TestSweepCheckpointMismatchRejected: resuming under a changed
// configuration must fail with the typed mismatch error, never silently
// merge stale rows.
func TestSweepCheckpointMismatchRejected(t *testing.T) {
	newAlg := func() memmodel.Algorithm { return core.New(core.FLog) }
	base := Scenario{NReaders: 2, NWriters: 1, ReaderPassages: 1, WriterPassages: 1, Parallel: 1}
	seeds := []int64{1, 2}

	t.Run("changed scenario", func(t *testing.T) {
		path := filepath.Join(t.TempDir(), "ck.json")
		st, _ := checkpoint.Open(path, false)
		sc := base
		sc.Robust = &RobustOptions{Store: st}
		if _, err := CrashSweep(newAlg, sc, 0, nil); err != nil {
			t.Fatal(err)
		}
		st2, err := checkpoint.Open(path, true)
		if err != nil {
			t.Fatal(err)
		}
		changed := base
		changed.CSReads = 2
		changed.Robust = &RobustOptions{Store: st2}
		_, err = CrashSweep(newAlg, changed, 0, nil)
		var mm *checkpoint.MismatchError
		if !errors.As(err, &mm) {
			t.Fatalf("changed scenario resumed with err = %v, want *checkpoint.MismatchError", err)
		}
	})

	t.Run("changed seed set", func(t *testing.T) {
		path := filepath.Join(t.TempDir(), "ck.json")
		st, _ := checkpoint.Open(path, false)
		sc := base
		sc.Robust = &RobustOptions{Store: st}
		if _, err := MixedSweepSampled(newAlg, sc, []int{0}, []int{1}, seeds, 3, nil); err != nil {
			t.Fatal(err)
		}
		st2, err := checkpoint.Open(path, true)
		if err != nil {
			t.Fatal(err)
		}
		sc2 := base
		sc2.Robust = &RobustOptions{Store: st2}
		_, err = MixedSweepSampled(newAlg, sc2, []int{0}, []int{1}, []int64{1, 3}, 3, nil)
		var mm *checkpoint.MismatchError
		if !errors.As(err, &mm) {
			t.Fatalf("changed seeds resumed with err = %v, want *checkpoint.MismatchError", err)
		}
	})
}

// TestWireRenderFidelity: every outcome produced by the real sweeps must
// survive its JSON wire format with an identical %+v rendering — the
// property resume determinism rests on. Error fields and the
// RecoverOutcome Scenario (live scheduler) are the nontrivial parts.
func TestWireRenderFidelity(t *testing.T) {
	newAlg := func() memmodel.Algorithm { return core.New(core.FLog) }
	newRec := func() memmodel.RecoverableAlgorithm { return recoverable.NewCentralized() }
	sc := Scenario{NReaders: 2, NWriters: 1, ReaderPassages: 1, WriterPassages: 1, Parallel: 1}

	roundTrip := func(t *testing.T, in, out any) {
		t.Helper()
		p, err := json.Marshal(in)
		if err != nil {
			t.Fatalf("marshal: %v", err)
		}
		if err := json.Unmarshal(p, out); err != nil {
			t.Fatalf("unmarshal: %v", err)
		}
	}

	t.Run("CrashOutcome", func(t *testing.T) {
		outs, err := CrashSweep(newAlg, sc, 0, nil)
		if err != nil {
			t.Fatal(err)
		}
		// Append a synthetic errored outcome so the Err path is covered
		// even when the sweep produces none.
		outs = append(outs, CrashOutcome{Algorithm: "x",
			Err: fmt.Errorf("wrapped: %w", errors.New("inner"))})
		for i, o := range outs {
			var back CrashOutcome
			roundTrip(t, o, &back)
			if fmt.Sprintf("%+v", o) != fmt.Sprintf("%+v", back) {
				t.Fatalf("outcome %d changed rendering across the wire:\n %+v\nvs\n %+v", i, o, back)
			}
		}
	})

	t.Run("StallOutcome", func(t *testing.T) {
		outs, err := StallSweep(newAlg, sc, 0, nil)
		if err != nil {
			t.Fatal(err)
		}
		for i, o := range outs {
			var back StallOutcome
			roundTrip(t, o, &back)
			if fmt.Sprintf("%+v", o) != fmt.Sprintf("%+v", back) {
				t.Fatalf("outcome %d changed rendering across the wire:\n %+v\nvs\n %+v", i, o, back)
			}
		}
	})

	t.Run("RecoverOutcome", func(t *testing.T) {
		outs, err := RecoverySweep(newRec, sc, 0, 0, nil)
		if err != nil {
			t.Fatal(err)
		}
		for i, o := range outs {
			var back RecoverOutcome
			roundTrip(t, o, &back)
			if fmt.Sprintf("%+v", *o) != fmt.Sprintf("%+v", back) {
				t.Fatalf("outcome %d changed rendering across the wire:\n %+v\nvs\n %+v", i, *o, back)
			}
		}
	})
}
