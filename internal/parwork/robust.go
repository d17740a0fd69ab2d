package parwork

// This file is the sweep engine's worker pool. DoRobust runs every fan-out
// — Do and DoErr are DoRobust with zero Options — and adds, per Options
// field, the behaviors long sweeps need to survive the real world: durable
// progress (a Sink checkpoints each completed slot, and a resumed run
// restores those slots instead of recomputing them), cooperative
// cancellation (a Stopper makes workers stop claiming new rows and drain,
// leaving a flushed checkpoint behind), and per-row failure isolation
// (KeepGoing turns a panicking or wedged row into a typed RowFailure in its
// result slot instead of aborting the sweep). The canonical index-slot
// merge holds throughout: row i fills slot i whether it was computed now,
// computed by a previous run and restored, or replaced by onFailure — so a
// resumed sweep is byte-identical to an uninterrupted one.

import (
	"encoding/json"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// Codec encodes row results for the Sink and decodes them on restore. The
// decoded value must be indistinguishable from the computed one as far as
// the caller's rendering is concerned — that is the resume-determinism
// contract, and internal/spec's wire codecs exist to uphold it.
type Codec[T any] struct {
	Encode func(T) ([]byte, error)
	Decode func([]byte) (T, error)
}

// JSONCodec is the Codec for row types whose fields round-trip through
// encoding/json unchanged (or that implement json.Marshaler/Unmarshaler to
// make it so).
func JSONCodec[T any]() Codec[T] {
	return Codec[T]{
		Encode: func(v T) ([]byte, error) { return json.Marshal(v) },
		Decode: func(p []byte) (T, error) {
			var v T
			err := json.Unmarshal(p, &v)
			return v, err
		},
	}
}

// Sink is the durable store DoRobust records completed rows into.
// internal/checkpoint.Section implements it. Record and Restore are called
// concurrently from worker goroutines; Flush may be called concurrently
// with Record. Failed rows are never recorded — a resumed run retries them.
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

// RowFailure describes one row that did not produce a result: its job
// panicked, or exceeded the row deadline. It is the per-row error type
// KeepGoing hands to onFailure and the fail-fast row-timeout path returns.
type RowFailure struct {
	// Index is the row's slot in the sweep.
	Index int
	// Info is the caller's description of the row (Options.RowInfo),
	// typically the fault point, "" if none was provided.
	Info string
	// PanicValue is the rendered panic payload; "" for a timeout.
	PanicValue string
	// Stuck marks a row that exceeded Options.RowTimeout. Its goroutine
	// could not be killed and may still be running; Stack holds the
	// all-goroutine dump captured at the deadline for diagnosis.
	Stuck bool
	// Elapsed is the deadline the row exceeded (Stuck only).
	Elapsed time.Duration
	// Stack is the stack trace: the panicking goroutine's for a panic,
	// an all-goroutine dump for a stuck row. It is deliberately kept out
	// of Error() so reports that render errors stay stable and readable;
	// diagnostic surfaces print it separately.
	Stack string

	// panicAny preserves the original panic payload so fail-fast can
	// re-raise it unchanged.
	panicAny any
}

func (f *RowFailure) Error() string {
	where := fmt.Sprintf("row %d", f.Index)
	if f.Info != "" {
		where += " (" + f.Info + ")"
	}
	if f.Stuck {
		return fmt.Sprintf("%s: stuck: no result after %v of wall clock", where, f.Elapsed)
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
// plain fan-out: no sink, no cancellation, fail-fast, no row deadline.
type Options struct {
	// Workers is the pool size, Workers-normalized.
	Workers int
	// KeepGoing isolates row failures: a panicking or timed-out row
	// becomes a RowFailure, handed to onFailure for its result slot, and
	// the sweep continues.
	// Default (false) is fail-fast: a panic re-raises on the caller
	// after the pool drains and a final flush, a timeout returns the
	// *RowFailure as the error.
	KeepGoing bool
	// RowTimeout, when positive, is the wall-clock deadline for one row.
	// A row that exceeds it is abandoned (its goroutine cannot be killed
	// and is leaked along with its scope) and reported as a Stuck
	// RowFailure; the worker continues on a fresh scope.
	RowTimeout time.Duration
	// Stop, when non-nil, is polled before each claim.
	Stop *Stopper
	// Sink, when non-nil, restores previously completed rows before the
	// sweep starts and records each newly completed row, flushing every
	// flushEvery rows and once at the end.
	Sink Sink
	// Cost, when non-nil, is the scheduling hint for row i (see
	// CostHint): pending rows are seeded largest-first across the worker
	// deques and claimed in cost-sized chunks. Restored rows never rerun,
	// so on a resume the hint is consulted only for the rows still
	// pending. Hints change the schedule, never the results.
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
// selects restore/record, cancellation, per-row failure isolation and a
// per-row deadline. Row i's result lands in slot i of the returned slice
// regardless of which run computed it; for pure jobs and faithful codecs
// the output is byte-identical across worker counts and across
// interrupt/resume splits. codec is used only with a Sink.
//
// onFailure supplies the slot value for a KeepGoing row failure (so the
// caller can embed the RowFailure in its outcome type); it may be nil only
// when KeepGoing is false. Failed rows are never recorded to the Sink, so
// a resumed run retries them.
//
// On interruption the error is *InterruptedError and the slice holds the
// partial results. On a fail-fast timeout the error is the *RowFailure. A
// fail-fast panic re-raises the original panic value on the caller — after
// the pool drains and completed rows are flushed, so even a crash loses no
// progress.
func DoRobust[S, T any](
	opt Options,
	n int,
	codec Codec[T],
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
		v, err := codec.Decode(payload)
		if err != nil {
			return nil, fmt.Errorf("parwork: restore row %d: %w", i, err)
		}
		out[i] = v
	}
	restored := n - len(pending)

	var (
		computed   atomic.Int64 // rows executed this run (incl. failures)
		succeeded  atomic.Int64 // rows that produced a durable result
		unflushed  atomic.Int64 // successes since the last periodic flush
		poisoned   atomic.Bool  // stop claiming: fatal error or panic
		fatalPanic atomic.Pointer[panicValue]
		fatalErr   atomic.Pointer[errBox]
	)
	setFatal := func(err error) {
		fatalErr.CompareAndSwap(nil, &errBox{err})
		poisoned.Store(true)
	}
	info := func(i int) string {
		if opt.RowInfo == nil {
			return ""
		}
		return opt.RowInfo(i)
	}
	progressed := func() {
		done := int(computed.Add(1))
		if opt.AfterRow != nil {
			opt.AfterRow(done)
		}
	}

	// runRecovered executes one row, converting a panic into a RowFailure.
	runRecovered := func(s S, i int) (v T, f *RowFailure) {
		defer func() {
			if p := recover(); p != nil {
				buf := make([]byte, 64<<10)
				buf = buf[:runtime.Stack(buf, false)]
				f = &RowFailure{
					Index:      i,
					Info:       info(i),
					PanicValue: fmt.Sprintf("%v", p),
					Stack:      string(buf),
					panicAny:   p,
				}
			}
		}()
		v = job(s, i)
		return
	}

	// runRow executes row i on the worker's scope (replacing *scope if the
	// row wedges past the deadline), stores and records a successful
	// result, and returns the failure otherwise.
	runRow := func(scope *S, i int) *RowFailure {
		var v T
		var f *RowFailure
		if opt.RowTimeout <= 0 {
			v, f = runRecovered(*scope, i)
		} else {
			type result struct {
				v T
				f *RowFailure
			}
			ch := make(chan result, 1)
			// 0 = pending, 1 = delivered by child, 2 = abandoned by
			// worker. The CAS decides who owns the child's scope.
			var state atomic.Int32
			child := *scope
			go func() {
				cv, cf := runRecovered(child, i)
				if state.CompareAndSwap(0, 1) {
					ch <- result{cv, cf}
				} else {
					// Abandoned: the worker moved on with a fresh
					// scope; this goroutine releases the old one.
					exit(child)
				}
			}()
			timer := time.NewTimer(opt.RowTimeout)
			select {
			case r := <-ch:
				timer.Stop()
				v, f = r.v, r.f
			case <-timer.C:
				if state.CompareAndSwap(0, 2) {
					buf := make([]byte, 256<<10)
					buf = buf[:runtime.Stack(buf, true)]
					f = &RowFailure{
						Index:   i,
						Info:    info(i),
						Stuck:   true,
						Elapsed: opt.RowTimeout,
						Stack:   string(buf),
					}
					*scope = enter()
				} else {
					// The child delivered in the race window.
					r := <-ch
					v, f = r.v, r.f
				}
			}
		}
		if f != nil {
			return f
		}
		out[i] = v
		if opt.Sink != nil {
			payload, err := codec.Encode(v)
			if err != nil {
				setFatal(fmt.Errorf("parwork: encode row %d: %w", i, err))
				return nil
			}
			if err := opt.Sink.Record(i, payload); err != nil {
				setFatal(fmt.Errorf("parwork: record row %d: %w", i, err))
				return nil
			}
			if unflushed.Add(1)%int64(flushEvery) == 0 {
				if err := opt.Sink.Flush(); err != nil {
					setFatal(fmt.Errorf("parwork: flush: %w", err))
					return nil
				}
			}
		}
		succeeded.Add(1)
		progressed()
		return nil
	}

	// The pending rows run on the cost-aware work-stealing scheduler: the
	// caller's hint is composed over the pending list (a resumed run
	// schedules only what is left).
	w := Workers(opt.Workers)
	if w > len(pending) {
		w = len(pending)
	}
	var pendingCost CostHint
	if opt.Cost != nil {
		pendingCost = func(k int) int64 { return opt.Cost(pending[k]) }
	}
	schd := newScheduler(len(pending), w, pendingCost)

	work := func(worker int) {
		defer func() {
			// enter/exit are harness code and should not panic; if one
			// does, surface it like a fail-fast row panic.
			if v := recover(); v != nil {
				fatalPanic.CompareAndSwap(nil, &panicValue{v})
				poisoned.Store(true)
			}
		}()
		next := schd.claimer(worker)
		scope := enter()
		defer func() { exit(scope) }()
		for {
			if poisoned.Load() || opt.Stop.Stopped() {
				return
			}
			k, ok := next()
			if !ok {
				return
			}
			i := pending[k]
			f := runRow(&scope, i)
			if f == nil {
				continue
			}
			if opt.KeepGoing {
				if onFailure != nil {
					out[i] = onFailure(i, f)
				}
				progressed()
				continue
			}
			// Fail-fast: poison the claim counter so the pool drains,
			// then surface the failure after the final flush.
			if f.panicAny != nil {
				fatalPanic.CompareAndSwap(nil, &panicValue{f.panicAny})
				poisoned.Store(true)
			} else {
				setFatal(f)
			}
			return
		}
	}
	// Worker 0 runs on the calling goroutine, so a one-worker pool is a
	// plain serial loop.
	var wg sync.WaitGroup
	for k := 1; k < w; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			work(k)
		}(k)
	}
	if w > 0 {
		work(0)
	}
	wg.Wait()

	// Final flush, even on the way out of a fatal failure: completed rows
	// are durable no matter how the sweep ends.
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
