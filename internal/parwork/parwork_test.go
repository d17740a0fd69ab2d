package parwork

import (
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

func TestDoIndexOrder(t *testing.T) {
	for _, workers := range []int{1, 2, 3, 8, 100} {
		got := Do(workers, 50, nil, func(i int) int { return i * i })
		if len(got) != 50 {
			t.Fatalf("workers=%d: len=%d", workers, len(got))
		}
		for i, v := range got {
			if v != i*i {
				t.Fatalf("workers=%d: got[%d]=%d, want %d", workers, i, v, i*i)
			}
		}
	}
}

func TestDoZeroJobs(t *testing.T) {
	if got := Do(4, 0, nil, func(i int) int { return i }); got != nil {
		t.Fatalf("Do with 0 jobs = %v, want nil", got)
	}
	if got, err := DoErr(4, 0, nil, func(i int) (int, error) { return i, nil }); err != nil || len(got) != 0 {
		t.Fatalf("DoErr with 0 jobs = %v, %v", got, err)
	}
}

// TestDoErrLowestIndexWins verifies error precedence is by row index, not
// schedule order: a cost hint that seeds high indices first must not
// promote their errors over a lower-index failure, at any worker count,
// stealing on or off.
func TestDoErrLowestIndexWins(t *testing.T) {
	errA := errors.New("a")
	for _, workers := range []int{1, 4} {
		_, err := DoErr(workers, 20, nil, func(i int) (int, error) {
			switch i {
			case 3:
				return 0, errA
			case 17:
				return 0, errors.New("b")
			}
			return i, nil
		})
		if !errors.Is(err, errA) {
			t.Fatalf("workers=%d: err=%v, want the index-3 error", workers, err)
		}
	}
}

func TestDoErrRunsEveryJob(t *testing.T) {
	var ran atomic.Int64
	_, err := DoErr(4, 20, nil, func(i int) (int, error) {
		ran.Add(1)
		if i == 0 {
			return 0, errors.New("early")
		}
		return i, nil
	})
	if err == nil {
		t.Fatal("want error")
	}
	if ran.Load() != 20 {
		t.Fatalf("ran %d jobs, want all 20 (errors must not skew sibling results)", ran.Load())
	}
}

// TestDoPanicPropagates verifies fail-fast panic propagation: the
// original panic value re-raises on the caller, serial or parallel, with
// or without a skewed hint reordering the schedule.
func TestDoPanicPropagates(t *testing.T) {
	for _, workers := range []int{1, 4} {
		func() {
			defer func() {
				if v := recover(); v == nil {
					t.Errorf("workers=%d: panic did not propagate", workers)
				} else if fmt.Sprint(v) != "boom" {
					t.Errorf("workers=%d: panic value %v", workers, v)
				}
			}()
			Do(workers, 8, nil, func(i int) int {
				if i == 5 {
					panic("boom")
				}
				return i
			})
		}()
	}
}

func TestWorkersAndDefault(t *testing.T) {
	t.Cleanup(func() { SetDefault(0) })
	SetDefault(0)
	if got := Default(); got != runtime.GOMAXPROCS(0) {
		t.Fatalf("Default() = %d, want GOMAXPROCS %d", got, runtime.GOMAXPROCS(0))
	}
	if got := Workers(3); got != 3 {
		t.Fatalf("Workers(3) = %d", got)
	}
	SetDefault(7)
	if got := Workers(0); got != 7 {
		t.Fatalf("Workers(0) with default 7 = %d", got)
	}
	if got := Workers(-1); got != 7 {
		t.Fatalf("Workers(-1) with default 7 = %d", got)
	}
	SetDefault(-5)
	if got := Default(); got != runtime.GOMAXPROCS(0) {
		t.Fatalf("Default() after reset = %d", got)
	}
}

// TestRowsRunTwoAtATime is an exact parallelism check: rows meet in
// pairs, row 2k handing its index to row 2k+1 over an unbuffered
// channel, so a 2-worker pool completes only if it runs two rows at once.
// A row blocked on its partner yields its thread, so this holds at
// GOMAXPROCS=1 too. A pool that runs one row at a time fails at the
// deadline instead of hanging: the rows then give up and the pool drains.
func TestRowsRunTwoAtATime(t *testing.T) {
	const pairs = 4
	for _, tc := range []struct {
		name  string
		procs int
		run   func(job func(int) int) ([]int, error)
	}{
		{"Do", runtime.GOMAXPROCS(0), func(job func(int) int) ([]int, error) { return Do(2, 2*pairs, nil, job), nil }},
		{"Do/GOMAXPROCS=1", 1, func(job func(int) int) ([]int, error) { return Do(2, 2*pairs, nil, job), nil }},
		{"DoRobust/checkpointed", runtime.GOMAXPROCS(0), func(job func(int) int) ([]int, error) {
			return DoRobust(Options{Workers: 2, Sink: newMemSink()}, 2*pairs, JSONCodec[int](),
				noScope, noExit, func(_ struct{}, i int) int { return job(i) }, nil)
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(tc.procs))
			meet := make([]chan int, pairs)
			for k := range meet {
				meet[k] = make(chan int)
			}
			giveUp := make(chan struct{})
			job := func(i int) int {
				if i%2 == 0 {
					select {
					case meet[i/2] <- i:
						return i
					case <-giveUp:
						return -1
					}
				}
				select {
				case v := <-meet[i/2]:
					return v
				case <-giveUp:
					return -1
				}
			}
			done := make(chan []int, 1)
			go func() {
				out, err := tc.run(job)
				if err != nil {
					t.Error(err)
				}
				done <- out
			}()
			select {
			case got := <-done:
				for i, v := range got {
					if want := i &^ 1; v != want {
						t.Errorf("row %d met %d, want %d", i, v, want)
					}
				}
			case <-time.After(10 * time.Second):
				close(giveUp)
				<-done
				t.Fatal("rows of a pair never ran at the same time: the pool ran one row at a time")
			}
		})
	}
}
