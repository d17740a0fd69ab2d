package main

import (
	"fmt"
	"os"
	"strings"
	"testing"

	"repro/internal/experiments"
	"repro/internal/explore"
	"repro/internal/spec"
)

func capture(t *testing.T, fn func() error) (string, error) {
	t.Helper()
	old := os.Stdout
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = w
	defer func() { os.Stdout = old }()
	errRun := fn()
	w.Close()
	buf := make([]byte, 1<<20)
	var out []byte
	for {
		n, err := r.Read(buf)
		out = append(out, buf[:n]...)
		if err != nil {
			break
		}
	}
	return string(out), errRun
}

func TestRunTimeline(t *testing.T) {
	out, err := capture(t, func() error {
		return run(config{alg: "af-log", n: 2, m: 1, rp: 1, wp: 1, seed: 7, protocol: "wt", maxEvents: 40})
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"no violations", "worst passage RMR", "RSIG", "p0", "p2"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q", want)
		}
	}
}

func TestRunDSM(t *testing.T) {
	if _, err := capture(t, func() error {
		return run(config{alg: "flag-array", n: 2, m: 1, rp: 1, wp: 1, seed: 3, protocol: "dsm", maxEvents: 20, hideSections: true})
	}); err != nil {
		t.Fatal(err)
	}
}

func TestRunBadInputs(t *testing.T) {
	c := config{alg: "nope", n: 1, m: 1, rp: 1, wp: 1, seed: 1, protocol: "wt", maxEvents: 10}
	if _, err := capture(t, func() error { return run(c) }); err == nil {
		t.Error("unknown algorithm accepted")
	}
	c.alg, c.protocol = "af-log", "zzz"
	if _, err := capture(t, func() error { return run(c) }); err == nil {
		t.Error("bad protocol accepted")
	}
}

// tinyPath is the E16 scenario (one reader, one writer, one passage each)
// replaying the choice path p.
func tinyPath(p string) config {
	return config{alg: "af-log", n: 1, m: 1, rp: 1, wp: 1, path: p, protocol: "wt", maxEvents: 200}
}

// TestRunPathReplay replays a violation-free af-log choice path: the
// timeline and RMR table are those of the run explore.Replay makes of
// the same path, down to its step count.
func TestRunPathReplay(t *testing.T) {
	fac, err := experiments.FactoriesNamed("af-log")
	if err != nil {
		t.Fatal(err)
	}
	path := []int{1, 0, 1, 1, 0}
	rep, _, err := explore.Replay(fac[0].New, spec.Scenario{NReaders: 1, NWriters: 1, ReaderPassages: 1, WriterPassages: 1}, path)
	if err != nil || !rep.OK() {
		t.Fatalf("explore.Replay(%v): %v, report ok %v", path, err, rep.OK())
	}
	out, err := capture(t, func() error { return run(tinyPath("1,0,1,1,0")) })
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{fmt.Sprintf("— %d steps, no violations", rep.Steps), "explore-replay", "worst passage RMR", "WSEQ", "p1"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

// TestRunBadPath: a path that does not parse or names no poised process
// is an error (rwtrace exits 1), never a panic, and so is -path with
// -seed.
func TestRunBadPath(t *testing.T) {
	withSeed := tinyPath("0")
	withSeed.seedSet = true
	for _, tc := range []struct {
		name string
		c    config
		want string
	}{
		{"out of range", tinyPath("0,99"), "choice 99 at depth 1 is out of range: 2 processes are poised"},
		{"negative", tinyPath("-1"), "choice -1 at depth 0 is out of range"},
		{"not a number", tinyPath("0,x"), `"x" is not a choice index`},
		{"empty choice", tinyPath("0,,1"), `"" is not a choice index`},
		{"with -seed", withSeed, "cannot be combined with -seed"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, err := capture(t, func() error { return run(tc.c) })
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error %v, want it to contain %q", err, tc.want)
			}
		})
	}
}
