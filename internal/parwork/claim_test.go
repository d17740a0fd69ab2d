package parwork

import (
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
)

// costHints are the adversarially uneven synthetic row shapes the pool
// tests run under: a nil hint, uniform hints, one monster row at either
// end, monotone ramps in both directions, and hostile values (negative,
// overflow-adjacent).
func costHints(n int) []struct {
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

// poolWorkerCounts is the worker axis the pool tests sweep: serial, two,
// NumCPU and an oversubscribed count (more workers than this host has
// cores, and, for small n, more workers than rows).
func poolWorkerCounts() []int {
	return []int{1, 2, runtime.NumCPU(), 8}
}

// TestDoByteIdentity is the pool determinism gate: under every
// adversarial hint, at every worker count, the merged output of Do and
// DoErr must be byte-identical to the serial run's.
func TestDoByteIdentity(t *testing.T) {
	const n = 97
	job := func(i int) string { return fmt.Sprintf("row-%d=%d", i, i*i) }
	errJob := func(i int) (string, error) { return job(i), nil }
	for _, h := range costHints(n) {
		want := Do(1, n, h.cost, job)
		for _, workers := range poolWorkerCounts() {
			name := fmt.Sprintf("%s/workers=%d", h.name, workers)
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
		}
	}
}

// TestDoEveryIndexOnce verifies the cursor partitions the index space
// exactly: every row runs exactly once, under every hint and worker count.
func TestDoEveryIndexOnce(t *testing.T) {
	const n = 211
	for _, h := range costHints(n) {
		for _, workers := range poolWorkerCounts() {
			ran := make([]atomic.Int32, n)
			Do(workers, n, h.cost, func(i int) struct{} {
				ran[i].Add(1)
				return struct{}{}
			})
			for i := range ran {
				if c := ran[i].Load(); c != 1 {
					t.Fatalf("%s workers=%d: row %d ran %d times", h.name, workers, i, c)
				}
			}
		}
	}
}

// TestClaimOrder pins the order the cursor hands rows out in: descending
// hint with ties in index order (hints below 1 count as 1) when there is
// more than one worker, and the natural order for a nil hint or a serial
// pool.
func TestClaimOrder(t *testing.T) {
	hints := []int64{3, 9, 3, -4, 9, 0, 5}
	cost := func(i int) int64 { return hints[i] }
	natural := []int{0, 1, 2, 3, 4, 5, 6}
	for _, tc := range []struct {
		name    string
		workers int
		cost    CostHint
		want    []int
	}{
		{"hinted", 2, cost, []int{1, 4, 6, 0, 2, 3, 5}},
		{"nil-hint", 2, nil, natural},
		{"serial", 1, cost, natural},
	} {
		c := newCursor(len(hints), tc.workers, tc.cost)
		var got []int
		for {
			i, ok := c.claim()
			if !ok {
				break
			}
			got = append(got, i)
		}
		if fmt.Sprint(got) != fmt.Sprint(tc.want) {
			t.Errorf("%s: claimed %v, want %v", tc.name, got, tc.want)
		}
		if _, ok := c.claim(); ok {
			t.Errorf("%s: a drained cursor handed out another row", tc.name)
		}
	}
}

// TestStatsAccounting locks in the counter bookkeeping: one run and n
// rows per fan-out, serial or parallel, and the retired chunk and steal
// counters stay zero.
func TestStatsAccounting(t *testing.T) {
	const n = 300
	ramp := func(i int) int64 { return int64(i%17 + 1) }
	for _, workers := range []int{1, 4} {
		before := ReadStats()
		Do(workers, n, ramp, func(i int) int { return i })
		if d := ReadStats().Sub(before); d != (Stats{Runs: 1, Rows: n}) {
			t.Fatalf("workers=%d: delta %+v, want 1 run / %d rows", workers, d, n)
		}
	}
}

// TestDoErrCostLowestIndexWins verifies that DoErr reports the lowest
// failing index even when the cost hint seeds the highest rows first.
func TestDoErrCostLowestIndexWins(t *testing.T) {
	const n = 50
	reversed := func(i int) int64 { return int64(i + 1) } // claims row n-1 first
	for _, workers := range poolWorkerCounts() {
		_, err := DoErr(workers, n, reversed, func(i int) (int, error) {
			if i == 7 || i == 43 {
				return 0, fmt.Errorf("row %d failed", i)
			}
			return i, nil
		})
		if err == nil || err.Error() != "row 7 failed" {
			t.Fatalf("workers=%d: err = %v, want row 7's", workers, err)
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

// TestDoRobustCostInterruptAndResume is the hinted resume gate: DoRobust
// with a cost hint, interrupted mid-run and resumed against the same sink,
// must produce output byte-identical to an uninterrupted serial run; the
// resume's cursor orders only the pending rows, with the hint composed
// over them. The stealing=B level is gone from the pool but kept in the
// subtest names so their IDs stay stable; its two legs are two
// independent interrupted-and-resumed runs, each under its own claim
// interleaving.
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
		}
	}
}
