package explore

import (
	"strings"
	"testing"

	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/memmodel"
	"repro/internal/mutex"
	"repro/internal/spec"
)

// tinyScenario is the smallest interesting workload: one reader and one
// writer, one passage each.
func tinyScenario() spec.Scenario {
	return spec.Scenario{
		NReaders: 1, NWriters: 1,
		ReaderPassages: 1, WriterPassages: 1,
	}
}

// TestExhaustiveAF11 model-checks A_f at n=1, m=1 for every f: every
// schedule of one reader passage against one writer passage satisfies
// mutual exclusion and completes.
func TestExhaustiveAF11(t *testing.T) {
	for _, f := range []core.F{core.FOne, core.FLinear} {
		f := f
		res, err := Algorithm(func() memmodel.Algorithm { return core.New(f) }, tinyScenario(), Config{})
		if err != nil {
			t.Fatalf("af-%s: %v", f.Name, err)
		}
		if res.Violation != "" {
			t.Fatalf("af-%s: violation on path %v:\n%s", f.Name, res.ViolationPath, res.Violation)
		}
		if !res.Complete {
			t.Fatalf("af-%s: tree not exhausted in %d runs", f.Name, res.Runs)
		}
		t.Logf("af-%s: exhausted %d schedules (max depth %d)", f.Name, res.Runs, res.MaxDepth)
		if res.Runs < 10 {
			t.Errorf("af-%s: suspiciously few schedules (%d)", f.Name, res.Runs)
		}
	}
}

// TestExhaustiveBaselines11 model-checks the baselines at n=1, m=1.
func TestExhaustiveBaselines11(t *testing.T) {
	factories := []func() memmodel.Algorithm{
		func() memmodel.Algorithm { return baseline.NewCentralized() },
		func() memmodel.Algorithm { return baseline.NewFlagArray() },
		func() memmodel.Algorithm { return baseline.NewPhaseFair() },
		func() memmodel.Algorithm { return baseline.NewMutexRW() },
	}
	for _, mk := range factories {
		name := mk().Name()
		res, err := Algorithm(mk, tinyScenario(), Config{})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if res.Violation != "" {
			t.Fatalf("%s: violation on path %v:\n%s", name, res.ViolationPath, res.Violation)
		}
		if !res.Complete {
			t.Fatalf("%s: not exhausted in %d runs", name, res.Runs)
		}
		t.Logf("%s: exhausted %d schedules", name, res.Runs)
	}
}

// TestExhaustiveCentralized21 pushes to 2 readers + 1 writer for the
// compact centralized lock (small step counts keep the tree tractable).
func TestExhaustiveCentralized21(t *testing.T) {
	cap := 40_000
	if testing.Short() {
		cap = 5_000
	}
	sc := spec.Scenario{NReaders: 2, NWriters: 1, ReaderPassages: 1, WriterPassages: 1}
	res, err := Algorithm(func() memmodel.Algorithm { return baseline.NewCentralized() }, sc, Config{MaxRuns: cap})
	if err != nil {
		t.Fatal(err)
	}
	if res.Violation != "" {
		t.Fatalf("violation on path %v:\n%s", res.ViolationPath, res.Violation)
	}
	if !res.Complete {
		t.Logf("capped after %d runs (still no violation)", res.Runs)
	} else {
		t.Logf("exhausted %d schedules", res.Runs)
	}
}

// mutexAsRW adapts a plain mutex.Lock to the Algorithm interface so the
// explorer can model-check the Peterson tournament substrate directly.
type mutexAsRW struct {
	n int
	l *mutex.Tournament
}

func (m *mutexAsRW) Name() string { return "peterson" }
func (m *mutexAsRW) Init(a memmodel.Allocator, n, mw int) error {
	m.n = n
	m.l = mutex.NewTournament(a, "L", max(n+mw, 1))
	return nil
}
func (m *mutexAsRW) ReaderEnter(p memmodel.Proc, rid int) { m.l.Enter(p, rid) }
func (m *mutexAsRW) ReaderExit(p memmodel.Proc, rid int)  { m.l.Exit(p, rid) }
func (m *mutexAsRW) WriterEnter(p memmodel.Proc, wid int) { m.l.Enter(p, m.n+wid) }
func (m *mutexAsRW) WriterExit(p memmodel.Proc, wid int)  { m.l.Exit(p, m.n+wid) }
func (m *mutexAsRW) Props() memmodel.Props                { return memmodel.Props{} }

// TestExhaustivePeterson model-checks the 2-process Peterson node (the WL
// substrate) completely, and a 4-process tournament with two passages each
// under a run cap.
func TestExhaustivePeterson(t *testing.T) {
	// 2 processes (1 "reader" + 1 "writer" both taking the mutex), one
	// passage each: fully exhaustive.
	res, err := Algorithm(func() memmodel.Algorithm { return &mutexAsRW{} }, tinyScenario(), Config{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Violation != "" {
		t.Fatalf("peterson 2p: violation on path %v:\n%s", res.ViolationPath, res.Violation)
	}
	if !res.Complete {
		t.Fatalf("peterson 2p: not exhausted in %d runs", res.Runs)
	}
	t.Logf("peterson 2p: exhausted %d schedules", res.Runs)

	// Two passages each widen the tree; still exhaustible.
	sc := spec.Scenario{NReaders: 1, NWriters: 1, ReaderPassages: 2, WriterPassages: 2}
	res, err = Algorithm(func() memmodel.Algorithm { return &mutexAsRW{} }, sc, Config{MaxRuns: 500_000})
	if err != nil {
		t.Fatal(err)
	}
	if res.Violation != "" {
		t.Fatalf("peterson 2p x2: violation:\n%s", res.Violation)
	}
	t.Logf("peterson 2p x2: %d runs, complete=%v", res.Runs, res.Complete)
}

// brokenAlg lets everyone into the CS; the explorer must find the
// violation and report a replayable path.
type brokenAlg struct{ v memmodel.Var }

func (b *brokenAlg) Name() string { return "broken" }
func (b *brokenAlg) Init(a memmodel.Allocator, _, _ int) error {
	b.v = a.Alloc("x", 0)
	return nil
}
func (b *brokenAlg) ReaderEnter(p memmodel.Proc, _ int) { p.Read(b.v) }
func (b *brokenAlg) ReaderExit(p memmodel.Proc, _ int)  { p.Read(b.v) }
func (b *brokenAlg) WriterEnter(p memmodel.Proc, _ int) { p.Read(b.v) }
func (b *brokenAlg) WriterExit(p memmodel.Proc, _ int)  { p.Read(b.v) }
func (b *brokenAlg) Props() memmodel.Props              { return memmodel.Props{} }

func TestExplorerFindsPlantedViolation(t *testing.T) {
	sc := tinyScenario()
	sc.CSReads = 1
	res, err := Algorithm(func() memmodel.Algorithm { return &brokenAlg{} }, sc, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Violation == "" {
		t.Fatal("explorer missed the planted mutual-exclusion violation")
	}
	if !strings.Contains(res.Violation, "entered CS") {
		t.Errorf("violation text %q", res.Violation)
	}
	if len(res.ViolationPath) == 0 {
		t.Error("no reproduction path recorded")
	}
}

// TestRunCapRespected: a cap smaller than the tree must stop exploration
// with Complete == false.
func TestRunCapRespected(t *testing.T) {
	res, err := Algorithm(func() memmodel.Algorithm { return core.New(core.FOne) }, tinyScenario(), Config{MaxRuns: 5})
	if err != nil {
		t.Fatal(err)
	}
	if res.Complete || res.Runs != 5 {
		t.Errorf("cap not respected: %+v", res)
	}
}

// TestReplayReproducesViolation: re-running the recorded choice path must
// reproduce the identical violation and yield the trace, and a path that
// names no poised process must be an error naming its depth, not a panic.
func TestReplayReproducesViolation(t *testing.T) {
	sc := tinyScenario()
	sc.CSReads = 1
	mk := func() memmodel.Algorithm { return &brokenAlg{} }
	res, err := Algorithm(mk, sc, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Violation == "" {
		t.Fatal("no violation found")
	}
	rep, events, err := Replay(mk, sc, res.ViolationPath)
	if err != nil {
		t.Fatalf("replay of the explorer's own path: %v", err)
	}
	if rep.OK() {
		t.Fatal("replay did not reproduce the violation")
	}
	if rep.Failures() != res.Violation {
		t.Errorf("replay violation differs:\noriginal: %q\nreplay:   %q", res.Violation, rep.Failures())
	}
	if len(events) == 0 {
		t.Error("replay produced no trace events")
	}

	bad := append(append([]int(nil), res.ViolationPath...), 0)
	for _, tc := range []struct {
		path []int
		want string
	}{
		{[]int{2}, "choice 2 at depth 0 is out of range: 2 processes are poised"},
		{[]int{0, -1}, "choice -1 at depth 1 is out of range"},
		{bad, "the run ended after"},
	} {
		if _, _, err := Replay(mk, sc, tc.path); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("Replay(%v) error %v, want it to contain %q", tc.path, err, tc.want)
		}
	}
}
