package parwork

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// memSink is an in-memory Sink for tests.
type memSink struct {
	mu      sync.Mutex
	rows    map[int][]byte
	flushes int
}

func newMemSink() *memSink { return &memSink{rows: map[int][]byte{}} }

func (s *memSink) Restore(i int) ([]byte, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	p, ok := s.rows[i]
	return p, ok
}

func (s *memSink) Record(i int, payload []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.rows[i] = append([]byte(nil), payload...)
	return nil
}

func (s *memSink) Flush() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.flushes++
	return nil
}

func (s *memSink) len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.rows)
}

// noScope is the trivial scope for jobs that need none.
func noScope() struct{}            { return struct{}{} }
func noExit(struct{})              {}
func square(_ struct{}, i int) int { return i * i }

func TestDoRobustPlain(t *testing.T) {
	for _, workers := range []int{1, 4} {
		var computed atomic.Int64
		out, err := DoRobust(Options{Workers: workers, AfterRow: func(int) { computed.Add(1) }},
			10, noScope, noExit, square, nil)
		if err != nil {
			t.Fatal(err)
		}
		for i, v := range out {
			if v != i*i {
				t.Fatalf("workers=%d: out[%d] = %d", workers, i, v)
			}
		}
		if computed.Load() != 10 {
			t.Fatalf("workers=%d: %d rows reported computed, want 10", workers, computed.Load())
		}
	}
}

// TestDoRobustReusesStatePerWorker: each worker enters one scope before
// its first row and exits it after its last, and every row of that
// worker sees the same scope — at one worker as at several.
func TestDoRobustReusesStatePerWorker(t *testing.T) {
	for _, workers := range []int{1, 3} {
		var entered, exited, rows atomic.Int64
		got, err := DoRobust(Options{Workers: workers}, 12,
			func() *int { entered.Add(1); s := 0; return &s },
			func(s *int) { exited.Add(1); rows.Add(int64(*s)) },
			func(s *int, i int) int { *s++; return i },
			nil)
		if err != nil {
			t.Fatal(err)
		}
		for i, v := range got {
			if v != i {
				t.Fatalf("workers=%d: got[%d]=%d", workers, i, v)
			}
		}
		if entered.Load() != exited.Load() {
			t.Fatalf("workers=%d: enter/exit mismatch: %d vs %d", workers, entered.Load(), exited.Load())
		}
		if max := int64(workers); entered.Load() > max {
			t.Fatalf("workers=%d: %d scopes entered, want <= %d", workers, entered.Load(), max)
		}
		if rows.Load() != 12 {
			t.Fatalf("workers=%d: scopes saw %d rows, want all 12", workers, rows.Load())
		}
	}
}

func TestDoRobustRestoreSkipsCompletedRows(t *testing.T) {
	sink := newMemSink()
	for _, i := range []int{0, 3, 7} {
		if err := sink.Record(i, []byte(fmt.Sprint(i*i))); err != nil {
			t.Fatal(err)
		}
	}
	var ran atomic.Int64
	out, err := DoRobust(Options{Workers: 4, Sink: sink}, 10, noScope, noExit,
		func(_ struct{}, i int) int {
			ran.Add(1)
			return i * i
		}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if ran.Load() != 7 {
		t.Fatalf("job ran %d times, want 7", ran.Load())
	}
	for i, v := range out {
		if v != i*i {
			t.Fatalf("out[%d] = %d", i, v)
		}
	}
	if sink.len() != 10 {
		t.Fatalf("sink holds %d rows, want 10", sink.len())
	}
}

func TestDoRobustRestoreCorruptPayload(t *testing.T) {
	sink := newMemSink()
	if err := sink.Record(2, []byte("not an int")); err != nil {
		t.Fatal(err)
	}
	_, err := DoRobust(Options{Workers: 2, Sink: sink}, 5, noScope, noExit, square, nil)
	if err == nil || !strings.Contains(err.Error(), "restore row 2") {
		t.Fatalf("err = %v, want restore failure for row 2", err)
	}
}

func TestDoRobustKeepGoingPanic(t *testing.T) {
	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			sink := newMemSink()
			var computed atomic.Int64
			var failures []*RowFailure
			var failMu sync.Mutex
			out, err := DoRobust(
				Options{Workers: workers, KeepGoing: true, Sink: sink,
					RowInfo:  func(i int) string { return fmt.Sprintf("point %d", i) },
					AfterRow: func(int) { computed.Add(1) }},
				10, noScope, noExit,
				func(_ struct{}, i int) int {
					if i == 4 {
						panic("injected row failure")
					}
					return i * i
				},
				func(i int, f *RowFailure) int {
					failMu.Lock()
					defer failMu.Unlock()
					failures = append(failures, f)
					return -1
				},
			)
			if err != nil {
				t.Fatal(err)
			}
			if len(failures) != 1 {
				t.Fatalf("failures = %v, want exactly one", failures)
			}
			f := failures[0]
			if f.Index != 4 || f.PanicValue != "injected row failure" {
				t.Errorf("failure = %+v", f)
			}
			if f.Info != "point 4" {
				t.Errorf("Info = %q, want the RowInfo rendering", f.Info)
			}
			if !strings.Contains(f.Stack, "robust_test") {
				t.Errorf("Stack does not point at the panicking job:\n%s", f.Stack)
			}
			if got := f.Error(); !strings.Contains(got, "row 4") || !strings.Contains(got, "injected row failure") {
				t.Errorf("Error() = %q", got)
			}
			if strings.Contains(f.Error(), "robust_test") {
				t.Errorf("Error() leaks the stack trace: %q", f.Error())
			}
			if out[4] != -1 {
				t.Errorf("out[4] = %d, want the onFailure placeholder", out[4])
			}
			for i, v := range out {
				if i != 4 && v != i*i {
					t.Errorf("out[%d] = %d; healthy rows must be unaffected", i, v)
				}
			}
			if _, ok := sink.Restore(4); ok {
				t.Error("failed row was recorded to the sink; resume would skip retrying it")
			}
			if sink.len() != 9 || computed.Load() != 10 {
				t.Errorf("%d rows recorded, %d computed; want 9 and 10", sink.len(), computed.Load())
			}
		})
	}
}

func TestDoRobustFailFastPanicFlushesThenRepanics(t *testing.T) {
	sink := newMemSink()
	didPanic := func() (v any) {
		defer func() { v = recover() }()
		DoRobust(Options{Workers: 1, Sink: sink}, 10, noScope, noExit,
			func(_ struct{}, i int) int {
				if i == 3 {
					panic("boom")
				}
				return i
			}, nil)
		return nil
	}()
	if didPanic != "boom" {
		t.Fatalf("recovered %v, want the original panic value", didPanic)
	}
	// Rows 0..2 completed before the serial panic and must be durable.
	for i := 0; i < 3; i++ {
		if _, ok := sink.Restore(i); !ok {
			t.Errorf("row %d lost despite completing before the panic", i)
		}
	}
	if sink.flushes == 0 {
		t.Error("no final flush before the re-panic")
	}
}

// blockingSink is a memSink whose first Flush blocks until every row has
// started, and which notes whether two flushes were ever in flight at once.
type blockingSink struct {
	*memSink
	allStarted chan struct{}
	first      atomic.Bool
	inFlight   atomic.Int64
	overlapped atomic.Bool
}

func (s *blockingSink) Flush() error {
	if s.inFlight.Add(1) > 1 {
		s.overlapped.Store(true)
	}
	defer s.inFlight.Add(-1)
	if s.first.CompareAndSwap(false, true) {
		<-s.allStarted
	}
	return s.memSink.Flush()
}

// TestDoRobustFlushesOneAtATime: the Sink contract rules out concurrent
// Flush calls, so a periodic flush that comes due while another is still
// running is skipped. The first flush here blocks until every row has
// started, so the other worker passes the next flush point meanwhile.
func TestDoRobustFlushesOneAtATime(t *testing.T) {
	const n = 3 * flushEvery
	sink := &blockingSink{memSink: newMemSink(), allStarted: make(chan struct{})}
	var started atomic.Int64
	_, err := DoRobust(Options{Workers: 2, Sink: sink}, n, noScope, noExit,
		func(_ struct{}, i int) int {
			if started.Add(1) == n {
				close(sink.allStarted)
			}
			return i * i
		}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if sink.overlapped.Load() {
		t.Error("a second Flush entered while the first was still running")
	}
	if sink.len() != n {
		t.Errorf("sink holds %d rows, want %d", sink.len(), n)
	}
}

func TestDoRobustInterruptAndResume(t *testing.T) {
	const n = 40
	want, err := DoRobust(Options{Workers: 1}, n, noScope, noExit, square, nil)
	if err != nil {
		t.Fatal(err)
	}

	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			sink := newMemSink()
			stop := NewStopper()
			_, err := DoRobust(
				Options{Workers: workers, Sink: sink, Stop: stop,
					AfterRow: func(done int) {
						if done >= 5 {
							stop.Stop()
						}
					}},
				n, noScope, noExit, square, nil)
			var ie *InterruptedError
			if !errors.As(err, &ie) {
				t.Fatalf("err = %v, want *InterruptedError", err)
			}
			if ie.Total != n || ie.Done >= n {
				t.Fatalf("interrupt reports %+v for %d rows", ie, n)
			}
			if sink.len() != ie.Done {
				t.Errorf("sink holds %d rows, interrupt says %d durable", sink.len(), ie.Done)
			}

			// Resume against the same sink: restored + computed covers
			// everything and the merged output is identical.
			var computed atomic.Int64
			out2, err := DoRobust(Options{Workers: workers, Sink: sink, AfterRow: func(int) { computed.Add(1) }},
				n, noScope, noExit, square, nil)
			if err != nil {
				t.Fatal(err)
			}
			if int(computed.Load()) != n-ie.Done {
				t.Errorf("resume computed %d rows, want the %d the checkpoint lacked", computed.Load(), n-ie.Done)
			}
			for i := range want {
				if out2[i] != want[i] {
					t.Fatalf("out[%d] = %d after resume, want %d", i, out2[i], want[i])
				}
			}
		})
	}
}

func TestDoRobustStopBeforeStartComputesNothing(t *testing.T) {
	stop := NewStopper()
	stop.Stop()
	var ran atomic.Int64
	_, err := DoRobust(Options{Workers: 4, Stop: stop}, 10, noScope, noExit,
		func(_ struct{}, i int) int { ran.Add(1); return i }, nil)
	var ie *InterruptedError
	if !errors.As(err, &ie) || ie.Done != 0 {
		t.Fatalf("err = %v, want InterruptedError with 0 done", err)
	}
	if ran.Load() != 0 {
		t.Fatalf("stopped pool still ran %d rows", ran.Load())
	}
}

// TestRunPoisonDrainsPromptly locks in the fail-fast fix: after one worker
// panics, the survivors stop claiming new indices instead of running every
// outstanding job.
func TestRunPoisonDrainsPromptly(t *testing.T) {
	const n, workers = 100, 4
	var ran atomic.Int64
	started := make(chan struct{})
	func() {
		defer func() { recover() }()
		Do(workers, n, nil, func(i int) int {
			if i == 0 {
				close(started)
				panic("poison")
			}
			<-started
			// Give the panic time to poison the counter before this
			// worker claims again.
			time.Sleep(5 * time.Millisecond)
			ran.Add(1)
			return i
		})
	}()
	if got := ran.Load(); got > 3*workers {
		t.Errorf("%d of %d jobs ran after the panic; the pool did not drain", got, n)
	}
}

// TestDoErrMixedPanicAndError: a panic wins over row errors — it re-raises
// with its original value rather than being swallowed into the error path.
func TestDoErrMixedPanicAndError(t *testing.T) {
	for _, workers := range []int{1, 4} {
		v := func() (v any) {
			defer func() { v = recover() }()
			_, err := DoErr(workers, 12, nil, func(i int) (int, error) {
				switch i {
				case 3:
					return 0, errors.New("row error")
				case 7:
					panic("row panic")
				}
				return i, nil
			})
			t.Errorf("workers=%d: DoErr returned (err=%v) instead of panicking", workers, err)
			return nil
		}()
		if v != "row panic" {
			t.Errorf("workers=%d: recovered %v, want the original panic value", workers, v)
		}
	}
}
