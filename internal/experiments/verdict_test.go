package experiments

import (
	"regexp"
	"strconv"
	"strings"
	"testing"

	"repro/internal/explore"
	"repro/internal/memmodel"
	"repro/internal/spec"
)

// checkVerdict requires err to be nil when want is empty, else an error
// whose message contains want.
func checkVerdict(t *testing.T, err error, want string) {
	t.Helper()
	switch {
	case want == "" && err != nil:
		t.Errorf("unexpected failure: %v", err)
	case want != "" && err == nil:
		t.Errorf("passed, want a failure mentioning %q", want)
	case want != "" && !strings.Contains(err.Error(), want):
		t.Errorf("error %q does not mention %q", err, want)
	}
}

// TestE6Verdict feeds hand-built property rows to the E6 gate: each
// claimed property, lost on its own, must fail the table.
func TestE6Verdict(t *testing.T) {
	good := E6Row{Alg: "af-log", MutualExclusion: true, Progress: true,
		ReaderOverlap: true, ExpectOverlap: true, BoundedExit: true, MaxExitSteps: 14}
	mutex := E6Row{Alg: "mutex-rw", MutualExclusion: true, Progress: true, BoundedExit: true}
	with := func(f func(*E6Row)) E6Row {
		r := good
		f(&r)
		return r
	}
	for _, tc := range []struct {
		name string
		row  E6Row
		want string
	}{
		{"holds", good, ""},
		{"mutex-rw claims no overlap", mutex, ""},
		{"mutual exclusion", with(func(r *E6Row) { r.MutualExclusion = false }), "Mutual Exclusion"},
		{"progress", with(func(r *E6Row) { r.Progress = false }), "progress"},
		{"bounded exit", with(func(r *E6Row) { r.BoundedExit = false }), "Bounded Exit"},
		{"overlap missing", with(func(r *E6Row) { r.ReaderOverlap = false }), "reader overlap false, claimed true"},
		{"unclaimed overlap", E6Row{Alg: "mutex-rw", MutualExclusion: true, Progress: true,
			BoundedExit: true, ReaderOverlap: true}, "reader overlap true, claimed false"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			checkVerdict(t, e6Verdict([]E6Row{mutex, tc.row}), tc.want)
		})
	}
}

// TestE13CrashVerdict feeds hand-built crash-sweep rows to the E13 gate.
// Hangs after entry, CS and exit crashes are the crash-stop model's
// expected outcome; only a remainder-section crash must leave every
// survivor live.
func TestE13CrashVerdict(t *testing.T) {
	for _, tc := range []struct {
		name string
		row  E13CrashRow
		want string
	}{
		{"remainder live", E13CrashRow{Alg: "af-1", Victim: "reader", Section: "remainder", Points: 72, Live: 72}, ""},
		{"cs crash hangs", E13CrashRow{Alg: "af-1", Victim: "reader", Section: "cs", Points: 6, Hangs: 6}, ""},
		{"mutual exclusion", E13CrashRow{Alg: "af-1", Victim: "writer", Section: "exit", Points: 7, Hangs: 7, MEViol: 1},
			"broke mutual exclusion"},
		{"budget hit", E13CrashRow{Alg: "af-1", Victim: "writer", Section: "entry", Points: 141, Live: 7, Hangs: 133, Budget: 1},
			"escaped the watchdog"},
		{"remainder wedged", E13CrashRow{Alg: "af-1", Victim: "reader", Section: "remainder", Points: 72, Live: 71, Hangs: 1},
			"remainder-section crash of reader wedged survivors (71/72 live)"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			checkVerdict(t, e13CrashVerdict([]E13CrashRow{tc.row}), tc.want)
		})
	}
}

// TestE13AbortVerdict feeds hand-built abort-cost rows to the E13 gate:
// every staged attempt must abort, and the costs claimed constant in n
// must not grow, while the costs claimed to grow may.
func TestE13AbortVerdict(t *testing.T) {
	rows := func(alg string, reader, writer [2]int) []E13AbortRow {
		return []E13AbortRow{
			{Alg: alg, N: 2, ReaderRMR: reader[0], WriterRMR: writer[0], Aborted: true},
			{Alg: alg, N: 64, ReaderRMR: reader[1], WriterRMR: writer[1], Aborted: true},
		}
	}
	notAborted := rows("af-log", [2]int{10, 20}, [2]int{6, 9})
	notAborted[1].Aborted = false
	for _, tc := range []struct {
		name string
		rows []E13AbortRow
		want string
	}{
		{"af-log grows on both sides", rows("af-log", [2]int{10, 20}, [2]int{6, 9}), ""},
		{"af-1 reader grows", rows("af-1", [2]int{10, 30}, [2]int{6, 6}), ""},
		{"af-n writer grows", rows("af-n", [2]int{4, 4}, [2]int{6, 90}), ""},
		{"centralized constant", rows("centralized", [2]int{3, 3}, [2]int{2, 2}), ""},
		{"not aborted", notAborted, "did not abort"},
		{"af-n reader grows", rows("af-n", [2]int{4, 5}, [2]int{6, 90}), "af-n: reader abort cost grew"},
		{"af-1 writer grows", rows("af-1", [2]int{10, 30}, [2]int{6, 7}), "af-1: writer abort cost grew"},
		{"centralized reader grows", rows("centralized", [2]int{3, 4}, [2]int{2, 2}), "centralized: reader abort cost grew"},
		{"centralized writer grows", rows("centralized", [2]int{3, 3}, [2]int{2, 3}), "centralized: writer abort cost grew"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			checkVerdict(t, e13AbortVerdict(tc.rows), tc.want)
		})
	}
}

// stuckWriter is a planted bug: its writer awaits a value nobody writes,
// so every schedule ends in deadlock.
type stuckWriter struct{ v memmodel.Var }

func (s *stuckWriter) Name() string { return "stuck-writer" }
func (s *stuckWriter) Init(a memmodel.Allocator, _, _ int) error {
	s.v = a.Alloc("x", 0)
	return nil
}
func (s *stuckWriter) ReaderEnter(p memmodel.Proc, _ int) { p.Write(s.v, 1) }
func (s *stuckWriter) ReaderExit(p memmodel.Proc, _ int)  { p.Read(s.v) }
func (s *stuckWriter) WriterEnter(p memmodel.Proc, _ int) {
	p.Await(s.v, func(x uint64) bool { return x == 2 })
}
func (s *stuckWriter) WriterExit(p memmodel.Proc, _ int) { p.Read(s.v) }
func (s *stuckWriter) Props() memmodel.Props             { return memmodel.Props{} }

// TestE16Verdict plants a deadlocking lock in the E16 table: the error
// must name the algorithm, its choice path and the rwtrace command that
// replays it, and that path must replay the violation. A tree that was
// not exhausted fails the table too.
func TestE16Verdict(t *testing.T) {
	mk := func() memmodel.Algorithm { return &stuckWriter{} }
	_, _, err := E16ModelCheck([]Factory{{Name: "stuck-writer", New: mk}})
	if err == nil {
		t.Fatal("the planted deadlock passed E16")
	}
	m := regexp.MustCompile(`violation on choice path ([0-9,]+) \(replay: rwtrace -alg stuck-writer -n 1 -m 1 -path ([0-9,]+)\)`).
		FindStringSubmatch(err.Error())
	if m == nil || m[1] != m[2] {
		t.Fatalf("error does not name the path and its rwtrace command: %v", err)
	}
	var path []int
	for _, c := range strings.Split(m[1], ",") {
		n, err := strconv.Atoi(c)
		if err != nil {
			t.Fatal(err)
		}
		path = append(path, n)
	}
	rep, _, err := explore.Replay(mk, spec.Scenario{NReaders: 1, NWriters: 1, ReaderPassages: 1, WriterPassages: 1}, path)
	if err != nil || rep.OK() {
		t.Errorf("path %v does not replay the violation (replay error %v)", path, err)
	}

	checkVerdict(t, e16Verdict([]E16Row{{"af-log", explore.Result{Runs: 11375, MaxDepth: 26, Complete: true}}}), "")
	checkVerdict(t, e16Verdict([]E16Row{{"courtois-w", explore.Result{Runs: 1_000_000, MaxDepth: 32}}}),
		"E16 courtois-w: schedule tree not exhausted after 1000000 schedules")
}
