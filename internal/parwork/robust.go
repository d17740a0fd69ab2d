package parwork

// This file is the sweep engine's worker pool. DoRobust runs every fan-out
// — Do and DoErr are DoRobust with zero Options — and adds, per Options
// field, the behaviors long sweeps need to survive the real world: durable
// progress (a Sink checkpoints each completed slot, and a resumed run
// restores those slots instead of recomputing them), cooperative
// cancellation (a Stopper makes workers stop claiming new rows and drain,
// leaving a flushed checkpoint behind), and per-row failure isolation
// (KeepGoing turns a panicking row into a typed RowFailure in its result
// slot instead of aborting the sweep). A row that never finishes is the
// job's business, not the pool's: every simulator row is bounded by its
// scenario's step budget and no-progress watchdog, which end it
// deterministically. The canonical index-slot merge holds throughout: row
// i fills slot i whether it was computed now, computed by a previous run
// and restored, or replaced by onFailure — so a resumed sweep is
// byte-identical to an uninterrupted one.

import (
	"encoding/json"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
)

// Sink is the durable store DoRobust records completed rows into, as
// encoding/json payloads. internal/checkpoint.Section implements it.
// Record and Restore are called concurrently from worker goroutines;
// Flush may be called concurrently with Record, but never with another
// Flush. Failed rows are never recorded — a resumed run retries them.
type Sink interface {
	// Restore returns the payload recorded for row i by a previous run.
	Restore(i int) ([]byte, bool)
	// Record stores the payload of newly completed row i.
	Record(i int, payload []byte) error
	// Flush persists everything recorded so far.
	Flush() error
}

// Stopper requests cooperative cancellation: once stopped, workers claim no
// further rows, finish the row in hand, and DoRobust returns an
// *InterruptedError after a final flush. A nil *Stopper is never stopped.
// Stop is safe to call from a signal handler goroutine.
type Stopper struct{ stopped atomic.Bool }

// NewStopper returns a fresh, unstopped Stopper.
func NewStopper() *Stopper { return &Stopper{} }

// Stop requests cancellation. Idempotent.
func (s *Stopper) Stop() { s.stopped.Store(true) }

// Stopped reports whether Stop has been called. Nil-safe.
func (s *Stopper) Stopped() bool { return s != nil && s.stopped.Load() }

// RowFailure describes one row whose job panicked. It is the per-row error
// type KeepGoing hands to onFailure.
type RowFailure struct {
	// Index is the row's slot in the sweep.
	Index int
	// Info is the caller's description of the row (Options.RowInfo),
	// typically the fault point, "" if none was provided.
	Info string
	// PanicValue is the rendered panic payload.
	PanicValue string
	// Stack is the panicking goroutine's stack trace. It is deliberately
	// kept out of Error() so reports that render errors stay stable and
	// readable; diagnostic surfaces print it separately.
	Stack string
}

func (f *RowFailure) Error() string {
	where := fmt.Sprintf("row %d", f.Index)
	if f.Info != "" {
		where += " (" + f.Info + ")"
	}
	return fmt.Sprintf("%s: panic: %s", where, f.PanicValue)
}

// InterruptedError reports a sweep stopped by its Stopper before every row
// completed. The rows that did complete are flushed to the Sink; rerunning
// with the same configuration and the same checkpoint resumes from them.
type InterruptedError struct {
	// Done is the number of rows with durable results (restored plus
	// newly completed); Total is the sweep size.
	Done, Total int
}

func (e *InterruptedError) Error() string {
	return fmt.Sprintf("sweep interrupted: %d/%d rows complete", e.Done, e.Total)
}

// Options configures DoRobust. The zero value (plus a worker count) is
// plain fan-out: no sink, no cancellation, fail-fast.
type Options struct {
	// Workers is the pool size, Workers-normalized.
	Workers int
	// KeepGoing isolates row failures: a panicking row becomes a
	// RowFailure, handed to onFailure for its result slot, and the sweep
	// continues.
	// Default (false) is fail-fast: a panic re-raises on the caller
	// after the pool drains and a final flush.
	KeepGoing bool
	// Stop, when non-nil, is polled before each claim.
	Stop *Stopper
	// Sink, when non-nil, restores previously completed rows before the
	// sweep starts and records each newly completed row, flushing about
	// every flushEvery rows (one flush at a time) and once at the end.
	Sink Sink
	// Cost, when non-nil, is the scheduling hint for row i (see
	// CostHint): pending rows are claimed largest-first. Restored rows
	// never rerun, so on a resume the hint is consulted only for the rows
	// still pending. Hints change the claim order, never the results.
	Cost CostHint
	// RowInfo, when non-nil, describes row i for failure reports (e.g.
	// the fault point).
	RowInfo func(i int) string
	// AfterRow, when non-nil, observes progress: it is called after each
	// row computed in this run (success or KeepGoing failure) with the
	// cumulative count. Called concurrently from worker goroutines.
	AfterRow func(done int)
}

// DoRobust runs job(s, i) for every row i in [0, n) on a pool of
// Workers(opt.Workers) goroutines (capped at the pending row count; one
// worker runs on the calling goroutine). Each worker calls enter once
// before its first row and exit once after its last, so its rows can
// reuse an expensive resource (typically a sim.Runner reset between
// executions) without any cross-worker sharing. On top of that, opt
// selects restore/record, cancellation and per-row failure isolation.
// Row i's result lands in slot i of the returned slice regardless of
// which run computed it; for pure jobs whose results round-trip through
// encoding/json unchanged (internal/spec's wire codecs exist to make them
// do so) the output is byte-identical across worker counts and across
// interrupt/resume splits.
//
// onFailure supplies the slot value for a KeepGoing row failure (so the
// caller can embed the RowFailure in its outcome type); it may be nil only
// when KeepGoing is false. Failed rows are never recorded to the Sink, so
// a resumed run retries them.
//
// On interruption the error is *InterruptedError and the slice holds the
// partial results. A fail-fast panic re-raises the original panic value on
// the caller — after the pool drains and completed rows are flushed, so
// even a crash loses no progress.
func DoRobust[S, T any](
	opt Options,
	n int,
	enter func() S,
	exit func(S),
	job func(s S, i int) T,
	onFailure func(i int, f *RowFailure) T,
) ([]T, error) {
	if n <= 0 {
		return nil, nil
	}
	out := make([]T, n)

	// Restore phase: decode previously completed slots, leaving the rest
	// as the pending work list (in index order — claims preserve it).
	pending := make([]int, 0, n)
	for i := 0; i < n; i++ {
		var payload []byte
		ok := false
		if opt.Sink != nil {
			payload, ok = opt.Sink.Restore(i)
		}
		if !ok {
			pending = append(pending, i)
			continue
		}
		if err := json.Unmarshal(payload, &out[i]); err != nil {
			return nil, fmt.Errorf("parwork: restore row %d: %w", i, err)
		}
	}
	restored := n - len(pending)

	var (
		computed   atomic.Int64 // rows executed this run (incl. failures)
		succeeded  atomic.Int64 // rows that produced a durable result
		unflushed  atomic.Int64 // successes since the last periodic flush
		flushing   atomic.Bool  // a periodic flush is in flight
		poisoned   atomic.Bool  // stop claiming: fatal error or panic
		fatalPanic atomic.Pointer[panicValue]
		fatalErr   atomic.Pointer[errBox]
	)
	setFatal := func(err error) {
		fatalErr.CompareAndSwap(nil, &errBox{err})
		poisoned.Store(true)
	}
	progressed := func() {
		done := int(computed.Add(1))
		if opt.AfterRow != nil {
			opt.AfterRow(done)
		}
	}

	// runIsolated executes one row, converting a panic into a RowFailure.
	runIsolated := func(s S, i int) (v T, f *RowFailure) {
		defer func() {
			if p := recover(); p != nil {
				buf := make([]byte, 64<<10)
				buf = buf[:runtime.Stack(buf, false)]
				f = &RowFailure{Index: i, PanicValue: fmt.Sprintf("%v", p), Stack: string(buf)}
				if opt.RowInfo != nil {
					f.Info = opt.RowInfo(i)
				}
			}
		}()
		v = job(s, i)
		return
	}

	// finish stores and records the successful result v of row i. Only
	// one periodic flush runs at a time: one that comes due while another
	// is in flight is skipped, so an older flush can never land after a
	// newer one.
	finish := func(i int, v T) {
		out[i] = v
		if opt.Sink != nil {
			payload, err := json.Marshal(v)
			if err != nil {
				setFatal(fmt.Errorf("parwork: encode row %d: %w", i, err))
				return
			}
			if err := opt.Sink.Record(i, payload); err != nil {
				setFatal(fmt.Errorf("parwork: record row %d: %w", i, err))
				return
			}
			if unflushed.Add(1)%flushEvery == 0 && flushing.CompareAndSwap(false, true) {
				err := opt.Sink.Flush()
				flushing.Store(false)
				if err != nil {
					setFatal(fmt.Errorf("parwork: flush: %w", err))
					return
				}
			}
		}
		succeeded.Add(1)
		progressed()
	}

	// The pending rows are claimed from one cursor: the caller's hint is
	// composed over the pending list (a resumed run orders only what is
	// left).
	w := Workers(opt.Workers)
	if w > len(pending) {
		w = len(pending)
	}
	var pendingCost CostHint
	if opt.Cost != nil {
		pendingCost = func(k int) int64 { return opt.Cost(pending[k]) }
	}
	rows := newCursor(len(pending), w, pendingCost)

	work := func() {
		defer func() {
			// Fail-fast: a row panic (or one in the enter/exit harness
			// code) poisons the claim counter so the pool drains, then
			// re-raises after the final flush.
			if v := recover(); v != nil {
				fatalPanic.CompareAndSwap(nil, &panicValue{v})
				poisoned.Store(true)
			}
		}()
		scope := enter()
		defer func() { exit(scope) }()
		for {
			if poisoned.Load() || opt.Stop.Stopped() {
				return
			}
			k, ok := rows.claim()
			if !ok {
				return
			}
			i := pending[k]
			if !opt.KeepGoing {
				finish(i, job(scope, i))
				continue
			}
			v, f := runIsolated(scope, i)
			if f == nil {
				finish(i, v)
				continue
			}
			if onFailure != nil {
				out[i] = onFailure(i, f)
			}
			progressed()
		}
	}
	// Worker 0 runs on the calling goroutine, so a one-worker pool is a
	// plain serial loop.
	var wg sync.WaitGroup
	for k := 1; k < w; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			work()
		}()
	}
	if w > 0 {
		work()
	}
	wg.Wait()

	// Final flush, even on the way out of a fatal failure: completed rows
	// are durable no matter how the sweep ends. The pool has drained, so
	// no periodic flush is in flight.
	var flushErr error
	if opt.Sink != nil {
		flushErr = opt.Sink.Flush()
	}

	if pv := fatalPanic.Load(); pv != nil {
		panic(pv.v)
	}
	if eb := fatalErr.Load(); eb != nil {
		return nil, eb.err
	}
	if flushErr != nil {
		return nil, fmt.Errorf("parwork: final flush: %w", flushErr)
	}
	if opt.Stop.Stopped() && restored+int(computed.Load()) < n {
		return out, &InterruptedError{Done: restored + int(succeeded.Load()), Total: n}
	}
	return out, nil
}

// flushEvery is how many newly completed rows may accumulate between
// periodic Sink flushes.
const flushEvery = 64

// errBox boxes an error for atomic first-wins publication.
type errBox struct{ err error }
