package parwork

import (
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
)

// stealHints are the adversarially uneven synthetic row shapes the
// determinism gates run under: a nil hint, uniform hints, one monster row
// at either end, monotone ramps in both directions, and hostile values
// (negative, overflow-adjacent) the scheduler must clamp rather than
// trust.
func stealHints(n int) []struct {
	name string
	cost CostHint
} {
	return []struct {
		name string
		cost CostHint
	}{
		{"nil", nil},
		{"uniform", func(int) int64 { return 7 }},
		{"giant-row-0", func(i int) int64 {
			if i == 0 {
				return 1 << 30
			}
			return 1
		}},
		{"giant-last-row", func(i int) int64 {
			if i == n-1 {
				return 1 << 30
			}
			return 1
		}},
		{"ascending", func(i int) int64 { return int64(i) }},
		{"descending", func(i int) int64 { return int64(n - i) }},
		{"negative", func(i int) int64 { return -int64(i) }},
		{"overflowing", func(int) int64 { return 1<<62 + 11 }},
	}
}

// stealWorkerCounts is the worker axis the scheduling tests sweep: serial,
// two, NumCPU and an oversubscribed count (more workers than this host has
// cores, and — for small n — more workers than rows).
func stealWorkerCounts() []int {
	return []int{1, 2, runtime.NumCPU(), 8}
}

// withStealing runs f with the process-wide stealing switch forced to
// enabled, restoring the previous state after.
func withStealing(t *testing.T, enabled bool, f func()) {
	t.Helper()
	prev := StealingEnabled()
	SetStealing(enabled)
	defer SetStealing(prev)
	f()
}

// TestDoByteIdentity is the scheduler determinism gate: under every
// adversarial hint, at every worker count, with stealing forced on and
// off, the merged output of Do and DoErr must be byte-identical to the
// serial run's.
func TestDoByteIdentity(t *testing.T) {
	const n = 97
	job := func(i int) string { return fmt.Sprintf("row-%d=%d", i, i*i) }
	errJob := func(i int) (string, error) { return job(i), nil }
	for _, h := range stealHints(n) {
		want := Do(1, n, h.cost, job)
		for _, workers := range stealWorkerCounts() {
			for _, stealing := range []bool{true, false} {
				name := fmt.Sprintf("%s/workers=%d/stealing=%v", h.name, workers, stealing)
				withStealing(t, stealing, func() {
					got := Do(workers, n, h.cost, job)
					gotErr, err := DoErr(workers, n, h.cost, errJob)
					if err != nil {
						t.Fatalf("%s: DoErr: %v", name, err)
					}
					for i := range want {
						if got[i] != want[i] || gotErr[i] != want[i] {
							t.Fatalf("%s: out[%d] = %q (DoErr %q), want %q", name, i, got[i], gotErr[i], want[i])
						}
					}
				})
			}
		}
	}
}

// TestDoEveryIndexOnce verifies the chunked deques partition the index
// space exactly: every row runs exactly once, stealing on or off.
func TestDoEveryIndexOnce(t *testing.T) {
	const n = 211
	for _, h := range stealHints(n) {
		for _, stealing := range []bool{true, false} {
			withStealing(t, stealing, func() {
				ran := make([]atomic.Int32, n)
				Do(8, n, h.cost, func(i int) struct{} {
					ran[i].Add(1)
					return struct{}{}
				})
				for i := range ran {
					if c := ran[i].Load(); c != 1 {
						t.Fatalf("%s stealing=%v: row %d ran %d times", h.name, stealing, i, c)
					}
				}
			})
		}
	}
}

// TestSchedulerChunkInvariants inspects the seeded plan directly: the
// order is a permutation of [0, n), the chunks tile it disjointly, and a
// monster row gets a singleton chunk (expensive rows must remain
// individually stealable).
func TestSchedulerChunkInvariants(t *testing.T) {
	const n, workers = 100, 4
	giant := func(i int) int64 {
		if i == 42 {
			return 1 << 35
		}
		return 3
	}
	s := newScheduler(n, workers, giant)
	if len(s.order) != n {
		t.Fatalf("order holds %d positions, want %d", len(s.order), n)
	}
	seen := make([]bool, n)
	for _, row := range s.order {
		if seen[row] {
			t.Fatalf("row %d appears twice in the seeded order", row)
		}
		seen[row] = true
	}
	if s.order[0] != 42 {
		t.Fatalf("LPT order seeds row %d first, want the monster row 42", s.order[0])
	}

	covered := make([]int, n)
	for k := range s.deques {
		d := &s.deques[k]
		for _, c := range d.buf[d.head:d.tail] {
			if c.lo >= c.hi {
				t.Fatalf("worker %d holds empty chunk %+v", k, c)
			}
			for p := c.lo; p < c.hi; p++ {
				covered[p]++
			}
			if c.lo == 0 && c.hi-c.lo != 1 {
				t.Fatalf("monster row's chunk %+v is not a singleton", c)
			}
		}
	}
	for p, c := range covered {
		if c != 1 {
			t.Fatalf("position %d covered by %d chunks, want exactly 1", p, c)
		}
	}
}

// TestStatsAccounting locks in the counter bookkeeping: one run, n rows,
// and — because every seeded chunk is claimed exactly once, locally or by
// theft — local claims plus steals equals the chunk count.
func TestStatsAccounting(t *testing.T) {
	const n = 300
	ramp := func(i int) int64 { return int64(i%17 + 1) }
	withStealing(t, true, func() {
		before := ReadStats()
		Do(4, n, ramp, func(i int) int { return i })
		d := ReadStats().Sub(before)
		if d.Runs != 1 || d.Rows != n {
			t.Fatalf("delta %+v, want 1 run / %d rows", d, n)
		}
		if d.Chunks == 0 {
			t.Fatalf("parallel run built no chunks: %+v", d)
		}
		if d.LocalClaims+d.Steals != d.Chunks {
			t.Fatalf("claims (%d local + %d stolen) != %d chunks", d.LocalClaims, d.Steals, d.Chunks)
		}
	})

	// The serial path has no plan to account for: rows only.
	before := ReadStats()
	Do(1, n, ramp, func(i int) int { return i })
	d := ReadStats().Sub(before)
	if d.Runs != 1 || d.Rows != n || d.Chunks != 0 || d.LocalClaims != 0 || d.Steals != 0 {
		t.Fatalf("serial delta %+v, want rows only", d)
	}
}

// TestStealingOffNoSteals verifies the switch: with stealing disabled the
// run still completes every row, records zero steals, and claims exactly
// its chunks locally.
func TestStealingOffNoSteals(t *testing.T) {
	const n = 120
	withStealing(t, false, func() {
		before := ReadStats()
		var ran atomic.Int64
		Do(4, n, func(i int) int64 { return int64(n - i) }, func(i int) int {
			ran.Add(1)
			return i
		})
		d := ReadStats().Sub(before)
		if ran.Load() != n {
			t.Fatalf("ran %d rows, want %d", ran.Load(), n)
		}
		if d.Steals != 0 || d.IdleProbes != 0 {
			t.Fatalf("stealing disabled but delta records %d steals / %d probes", d.Steals, d.IdleProbes)
		}
		if d.LocalClaims != d.Chunks {
			t.Fatalf("local claims %d != chunks %d with stealing off", d.LocalClaims, d.Chunks)
		}
	})
}

// TestDoErrCostLowestIndexWins verifies that DoErr reports the lowest
// failing index even when the cost hint seeds the highest rows first.
func TestDoErrCostLowestIndexWins(t *testing.T) {
	const n = 50
	reversed := func(i int) int64 { return int64(i + 1) } // seeds row n-1 first
	for _, workers := range stealWorkerCounts() {
		for _, stealing := range []bool{true, false} {
			withStealing(t, stealing, func() {
				_, err := DoErr(workers, n, reversed, func(i int) (int, error) {
					if i == 7 || i == 43 {
						return 0, fmt.Errorf("row %d failed", i)
					}
					return i, nil
				})
				if err == nil || err.Error() != "row 7 failed" {
					t.Fatalf("workers=%d stealing=%v: err = %v, want row 7's", workers, stealing, err)
				}
			})
		}
	}
}

// TestDoCostPanicPoisons verifies fail-fast panic propagation through Do
// under a skewed cost hint.
func TestDoCostPanicPoisons(t *testing.T) {
	defer func() {
		if r := recover(); r == nil {
			t.Fatal("panic did not propagate through Do with a cost hint")
		}
	}()
	Do(4, 60, func(i int) int64 { return int64(60 - i) }, func(i int) int {
		if i == 13 {
			panic("row 13 exploded")
		}
		return i
	})
}

// TestDoRobustCostInterruptAndResume is the stealing-era resume gate:
// DoRobust with a cost hint, interrupted mid-run and resumed against the
// same sink, must produce output byte-identical to an uninterrupted
// serial run — the resume's scheduler sees only the pending rows, with
// the hint composed over them.
func TestDoRobustCostInterruptAndResume(t *testing.T) {
	const n = 40
	skew := func(i int) int64 {
		if i%9 == 0 {
			return 1 << 20
		}
		return int64(i + 1)
	}
	want, err := DoRobust(Options{Workers: 1, Cost: skew}, n, JSONCodec[int](), noScope, noExit, square, nil)
	if err != nil {
		t.Fatal(err)
	}

	for _, workers := range []int{1, 2, runtime.NumCPU()} {
		for _, stealing := range []bool{true, false} {
			t.Run(fmt.Sprintf("workers=%d/stealing=%v", workers, stealing), func(t *testing.T) {
				withStealing(t, stealing, func() {
					sink := newMemSink()
					stop := NewStopper()
					_, err := DoRobust(
						Options{Workers: workers, Sink: sink, Stop: stop, Cost: skew,
							AfterRow: func(done int) {
								if done >= 5 {
									stop.Stop()
								}
							}},
						n, JSONCodec[int](), noScope, noExit, square, nil)
					var ie *InterruptedError
					if !errors.As(err, &ie) {
						t.Fatalf("err = %v, want *InterruptedError", err)
					}
					if ie.Done >= n || sink.len() != ie.Done {
						t.Fatalf("interrupt bookkeeping: ie=%+v sink=%d", ie, sink.len())
					}

					var computed atomic.Int64
					out, err := DoRobust(Options{Workers: workers, Sink: sink, Cost: skew,
						AfterRow: func(int) { computed.Add(1) }},
						n, JSONCodec[int](), noScope, noExit, square, nil)
					if err != nil {
						t.Fatal(err)
					}
					if int(computed.Load()) != n-ie.Done {
						t.Errorf("resume computed %d rows, checkpoint lacked %d", computed.Load(), n-ie.Done)
					}
					for i := range want {
						if out[i] != want[i] {
							t.Fatalf("out[%d] = %d after resume, want %d", i, out[i], want[i])
						}
					}
				})
			})
		}
	}
}
