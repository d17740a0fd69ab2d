package spec

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/checkpoint"
	"repro/internal/core"
	"repro/internal/memmodel"
	"repro/internal/recoverable"
	"repro/internal/sched"
)

const (
	sweepGoldenPath    = "testdata/sweeps.golden"
	sweepGoldenCkptDir = "testdata/sweeps"
)

// goldenSweeps are the sweep calls TestSweepGolden pins: every exported
// sweep entry point on the TestSweepDeterminism scenario, plus a PCT
// scheduler factory and a draw count that forces duplicate sampled points.
func goldenSweeps() []struct {
	name string
	run  func(sc Scenario) (string, error)
} {
	newAlg := func() memmodel.Algorithm { return core.New(core.FLog) }
	newRec := func() memmodel.RecoverableAlgorithm { return recoverable.NewCentralized() }
	seeds := []int64{1, 2}
	pct := func(seed int64) sched.Scheduler { return sched.NewPCT(seed, 3, 4096) }
	rr := func(int64) sched.Scheduler { return sched.NewRoundRobin() }
	return []struct {
		name string
		run  func(sc Scenario) (string, error)
	}{
		{"CrashSweep", func(sc Scenario) (string, error) {
			outs, err := CrashSweep(newAlg, sc, 0, nil)
			return render(outs), err
		}},
		{"StallSweep", func(sc Scenario) (string, error) {
			outs, err := StallSweep(newAlg, sc, 0, nil)
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
		{"RecoverySweepSampledDedup", func(sc Scenario) (string, error) {
			outs, err := RecoverySweepSampled(newRec, sc, []int{0}, []int64{42}, 200, 0, rr)
			return renderPtrs(outs), err
		}},
	}
}

func sweepDigest(rendered string) string {
	sum := sha256.Sum256([]byte(rendered))
	return hex.EncodeToString(sum[:])
}

// TestSweepGolden pins the sweeps across commits: the SHA-256 of each
// sweep's %+v rendering must match testdata/sweeps.golden, a fresh
// checkpointed run must write the committed checkpoint file byte for
// byte (section names, fingerprints and row payloads), and resuming from
// the committed checkpoint must restore every row — recomputing none —
// and render identically.
//
// To re-record after a deliberate change, delete testdata/sweeps.golden
// and run the test twice: the first run writes the oracle and fails.
func TestSweepGolden(t *testing.T) {
	base := Scenario{NReaders: 2, NWriters: 2, ReaderPassages: 2, WriterPassages: 2, CSReads: 1, Parallel: 2}
	ckpt := func(name string) string { return filepath.Join(sweepGoldenCkptDir, name+".json") }

	want, err := readSweepGolden()
	if os.IsNotExist(err) {
		recordSweepGolden(t, base, ckpt)
		t.Fatalf("recorded %s and %s; review and commit them, then rerun", sweepGoldenPath, sweepGoldenCkptDir)
	}
	if err != nil {
		t.Fatal(err)
	}

	for _, tc := range goldenSweeps() {
		t.Run(tc.name, func(t *testing.T) {
			digest, ok := want[tc.name]
			if !ok {
				t.Fatalf("%s has no entry for %s", sweepGoldenPath, tc.name)
			}
			committed, err := os.ReadFile(ckpt(tc.name))
			if err != nil {
				t.Fatal(err)
			}
			dir := t.TempDir()

			// A fresh checkpointed run: same bytes, same checkpoint file.
			fresh := filepath.Join(dir, "fresh.json")
			st, err := checkpoint.Open(fresh, false)
			if err != nil {
				t.Fatal(err)
			}
			sc := base
			sc.Robust = &RobustOptions{Store: st}
			got, err := tc.run(sc)
			if err != nil {
				t.Fatal(err)
			}
			if d := sweepDigest(got); d != digest {
				t.Errorf("rendering digest %s, golden %s", d, digest)
			}
			written, err := os.ReadFile(fresh)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(written, committed) {
				t.Errorf("checkpoint file differs from the committed %s", ckpt(tc.name))
			}

			// Resume from the committed checkpoint: nothing to recompute.
			resumed := filepath.Join(dir, "resumed.json")
			if err := os.WriteFile(resumed, committed, 0o644); err != nil {
				t.Fatal(err)
			}
			st2, err := checkpoint.Open(resumed, true)
			if err != nil {
				t.Fatal(err)
			}
			sc.Robust = &RobustOptions{Store: st2, AfterRow: func(done int) {
				t.Errorf("resume from the committed checkpoint recomputed a row (%d so far)", done)
			}}
			got, err = tc.run(sc)
			if err != nil {
				t.Fatal(err)
			}
			if d := sweepDigest(got); d != digest {
				t.Errorf("resumed rendering digest %s, golden %s", d, digest)
			}
		})
	}
}

// readSweepGolden parses testdata/sweeps.golden: one "name digest" line
// per sweep.
func readSweepGolden() (map[string]string, error) {
	f, err := os.Open(sweepGoldenPath)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := map[string]string{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) != 2 {
			return nil, fmt.Errorf("%s: malformed line %q", sweepGoldenPath, sc.Text())
		}
		out[fields[0]] = fields[1]
	}
	return out, sc.Err()
}

// recordSweepGolden writes the oracle: every golden sweep runs once with
// a checkpoint store at its committed path, and its digest is listed.
func recordSweepGolden(t *testing.T, base Scenario, ckpt func(string) string) {
	t.Helper()
	if err := os.MkdirAll(sweepGoldenCkptDir, 0o755); err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	for _, tc := range goldenSweeps() {
		st, err := checkpoint.Open(ckpt(tc.name), false)
		if err != nil {
			t.Fatal(err)
		}
		sc := base
		sc.Robust = &RobustOptions{Store: st}
		got, err := tc.run(sc)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		fmt.Fprintf(&b, "%s %s\n", tc.name, sweepDigest(got))
	}
	if err := os.WriteFile(sweepGoldenPath, []byte(b.String()), 0o644); err != nil {
		t.Fatal(err)
	}
}

// recrashGoldens pins an exhaustive crash-recovery sweep: one reader and
// one writer, one passage each, the victim crashed at every step and
// crashed again 1 to 39 steps after each restart. Each case lists its row
// count, the digest of its %+v rendering and its verdict counts (abort,
// cs, done). The verdicts a restarted incarnation returns are Go state the
// harness records, so a harness that records one before the simulator has
// executed the step it rests on changes the counts.
var recrashGoldens = []struct {
	name     string
	newAlg   func() memmodel.RecoverableAlgorithm
	victim   int
	rows     int
	digest   string
	verdicts [3]int
}{
	{"r-af-log/victim=0", func() memmodel.RecoverableAlgorithm { return recoverable.NewAF(core.FLog) }, 0, 1404, "796b601411f3fdabfd16c1714ff202fa2bcdc33cb93b98f4cb735be9e9aa984e", [3]int{329, 464, 439}},
	{"r-af-log/victim=1", func() memmodel.RecoverableAlgorithm { return recoverable.NewAF(core.FLog) }, 1, 1404, "9f766a153010b5e2a87ed02bc7a95df5d497b7aa3e9966330c753141ddd820ff", [3]int{172, 1158, 345}},
	{"r-centralized/victim=0", func() memmodel.RecoverableAlgorithm { return recoverable.NewCentralized() }, 0, 780, "ff9936d4b96bdfa0231095d5e1c789b234c9add66c56e2b91c3a59403c78bc87", [3]int{243, 174, 265}},
	{"r-centralized/victim=1", func() memmodel.RecoverableAlgorithm { return recoverable.NewCentralized() }, 1, 780, "2f1377b03b13c4285ef6f9aa2de531f842c430cca1e3bd7c601aef5731882dcc", [3]int{450, 320, 112}},
}

// TestSweepGoldenRecrashExhaustive runs recrashGoldens and requires each
// case's rows, digest and verdict counts.
func TestSweepGoldenRecrashExhaustive(t *testing.T) {
	sc := Scenario{NReaders: 1, NWriters: 1, ReaderPassages: 1, WriterPassages: 1, Parallel: 2}
	offsets := make([]int, 40)
	for i := range offsets {
		offsets[i] = i
	}
	for _, tc := range recrashGoldens {
		t.Run(tc.name, func(t *testing.T) {
			outs, err := RecoverySweepRecrash(tc.newAlg, sc, tc.victim, 1, offsets, nil)
			if err != nil {
				t.Fatal(err)
			}
			var verdicts [3]int
			for _, o := range outs {
				for _, v := range o.Recoveries {
					verdicts[v-memmodel.RecoverAbort]++
				}
			}
			if len(outs) != tc.rows {
				t.Errorf("%d rows, want %d", len(outs), tc.rows)
			}
			if d := sweepDigest(renderPtrs(outs)); d != tc.digest {
				t.Errorf("rendering digest %s, want %s", d, tc.digest)
			}
			if verdicts != tc.verdicts {
				t.Errorf("verdicts (abort, cs, done) %v, want %v", verdicts, tc.verdicts)
			}
		})
	}
}
