// Package baseline implements the reader-writer lock algorithms the paper
// positions A_f against (Sections 1 and 6), all on the same abstract memory
// model so the experiments can compare RMR costs directly:
//
//   - Centralized: the folklore single-word lock (reader count + writer
//     bit manipulated with CAS). O(1) solo steps, but concurrent readers
//     CAS the same word, so contention produces invalidation storms and
//     unbounded retries (it is lock-free, not wait-free, for readers).
//   - FlagArray: one flag per reader plus a writer gate - the DSM-style
//     design at the f(n)=n endpoint done naively: O(1) readers,
//     Theta(n)-RMR writers that scan every flag.
//   - PhaseFair: a fetch-and-add ticket lock in the style of Brandenburg &
//     Anderson's PF-T, standing in for the Bhatt-Jayanti constant-RMR FAA
//     lock the paper cites: once FAA is allowed, the read/write/CAS
//     tradeoff of Theorem 5 no longer applies.
//   - MutexRW: the degenerate baseline where readers also take the mutex.
//     It forfeits Concurrent Entering, which the spec tests use as a
//     negative control for the property checker.
package baseline

import (
	"fmt"
	"math"

	"repro/internal/memmodel"
	"repro/internal/mutex"
)

// Centralized is the single-word CAS reader-writer lock. Bit 63 marks a
// writer holding (or acquiring) the lock; the low bits count readers in
// their passage.
type Centralized struct {
	state memmodel.Var
}

var (
	_ memmodel.Algorithm    = (*Centralized)(nil)
	_ memmodel.TryAlgorithm = (*Centralized)(nil)
)

const centralWriterBit = uint64(1) << 63

// NewCentralized returns an uninitialized centralized lock.
func NewCentralized() *Centralized { return &Centralized{} }

// Name implements memmodel.Algorithm.
func (c *Centralized) Name() string { return "centralized" }

// Init implements memmodel.Algorithm.
func (c *Centralized) Init(a memmodel.Allocator, _, _ int) error {
	c.state = a.Alloc("state", 0)
	return nil
}

// ReaderEnter spins until no writer is present, then registers with a CAS.
func (c *Centralized) ReaderEnter(p memmodel.Proc, _ int) {
	for {
		s := p.Await(c.state, func(x uint64) bool { return x&centralWriterBit == 0 })
		if _, ok := p.CAS(c.state, s, s+1); ok {
			return
		}
	}
}

// ReaderExit deregisters with a CAS retry loop.
func (c *Centralized) ReaderExit(p memmodel.Proc, _ int) {
	for {
		s := p.Read(c.state)
		if _, ok := p.CAS(c.state, s, s-1); ok {
			return
		}
	}
}

// WriterEnter claims the writer bit, then waits for readers to drain.
func (c *Centralized) WriterEnter(p memmodel.Proc, _ int) {
	for {
		s := p.Await(c.state, func(x uint64) bool { return x&centralWriterBit == 0 })
		if _, ok := p.CAS(c.state, s, s|centralWriterBit); ok {
			break
		}
	}
	p.Await(c.state, func(x uint64) bool { return x == centralWriterBit })
}

// WriterExit releases the lock with a single write (reader count is zero
// and rival writers only CAS from writer-bit-clear states).
func (c *Centralized) WriterExit(p memmodel.Proc, _ int) {
	p.Write(c.state, 0)
}

// ReaderTryEnter implements memmodel.TryAlgorithm: one registration
// attempt. It fails if a writer is present or if the single CAS loses a
// race (honest try semantics — callers retry under backoff). The abandon
// path is empty: a failed CAS changes nothing, so the whole failed attempt
// costs at most two steps.
func (c *Centralized) ReaderTryEnter(p memmodel.Proc, _ int) bool {
	s := p.Read(c.state)
	if s&centralWriterBit != 0 {
		return false
	}
	_, ok := p.CAS(c.state, s, s+1)
	return ok
}

// WriterTryEnter implements memmodel.TryAlgorithm: it succeeds only from
// the completely free state with a single CAS (claiming the writer bit
// while readers are draining would block them, so the try variant never
// does it). One step, zero rollback.
func (c *Centralized) WriterTryEnter(p memmodel.Proc, _ int) bool {
	_, ok := p.CAS(c.state, 0, centralWriterBit)
	return ok
}

// Props implements memmodel.Algorithm.
func (c *Centralized) Props() memmodel.Props {
	return memmodel.Props{
		UsesCAS: true,
		// Readers retry CAS against each other: no bounded-step entry.
		ConcurrentEntering:   false,
		ReaderStarvationFree: false,
		PredictedReaderRMR:   func(n, _ int) float64 { return float64(n) }, // contention worst case
		PredictedWriterRMR:   func(n, _ int) float64 { return float64(n) },
	}
}

// FlagArray is the per-reader-flag lock: the writer scans all n flags.
type FlagArray struct {
	flags []memmodel.Var
	gate  memmodel.Var
	wl    *mutex.Tournament
}

var _ memmodel.Algorithm = (*FlagArray)(nil)

// NewFlagArray returns an uninitialized flag-array lock.
func NewFlagArray() *FlagArray { return &FlagArray{} }

// Name implements memmodel.Algorithm.
func (f *FlagArray) Name() string { return "flag-array" }

// Init implements memmodel.Algorithm. Each reader's flag is homed at that
// reader (process id rid, per the harness numbering convention), making the
// reader side fully local under the DSM model — this is the classic
// DSM-style design the paper's Section 6 contrasts with CC algorithms.
func (f *FlagArray) Init(a memmodel.Allocator, nReaders, nWriters int) error {
	f.flags = make([]memmodel.Var, nReaders)
	for rid := range f.flags {
		f.flags[rid] = memmodel.AllocHome(a, fmt.Sprintf("flag[%d]", rid), 0, rid)
	}
	f.gate = a.Alloc("gate", 0)
	f.wl = mutex.NewTournament(a, "WL", max(nWriters, 1))
	return nil
}

// ReaderEnter raises the reader's flag and double-checks the gate,
// retreating while a writer holds it (Dekker-style handshake).
func (f *FlagArray) ReaderEnter(p memmodel.Proc, rid int) {
	for {
		p.Write(f.flags[rid], 1)
		if p.Read(f.gate) == 0 {
			return
		}
		p.Write(f.flags[rid], 0)
		p.Await(f.gate, func(x uint64) bool { return x == 0 })
	}
}

// ReaderExit lowers the flag: a single write.
func (f *FlagArray) ReaderExit(p memmodel.Proc, rid int) {
	p.Write(f.flags[rid], 0)
}

// WriterEnter closes the gate and scans all n flags, waiting on raised
// ones: Theta(n) RMRs.
func (f *FlagArray) WriterEnter(p memmodel.Proc, wid int) {
	f.wl.Enter(p, wid)
	p.Write(f.gate, 1)
	for _, flag := range f.flags {
		if p.Read(flag) != 0 {
			p.Await(flag, func(x uint64) bool { return x == 0 })
		}
	}
}

// WriterExit opens the gate.
func (f *FlagArray) WriterExit(p memmodel.Proc, wid int) {
	p.Write(f.gate, 0)
	f.wl.Exit(p, wid)
}

// Props implements memmodel.Algorithm.
func (f *FlagArray) Props() memmodel.Props {
	return memmodel.Props{
		UsesCAS:              false,
		ConcurrentEntering:   true,
		ReaderStarvationFree: false, // writer churn can livelock the retreat loop
		PredictedReaderRMR:   func(_, _ int) float64 { return 3 },
		PredictedWriterRMR:   func(n, m int) float64 { return float64(n) + math.Log2(float64(max(m, 2))) },
	}
}

// PhaseFair is the FAA ticket reader-writer lock (PF-T style). Packed
// fields in rin: bit 0 (PRES) marks a writer present, bit 1 (PHID) is the
// writer phase id; reader arrivals add 4 (rinc).
type PhaseFair struct {
	rin, rout memmodel.Var
	win, wout memmodel.Var
	// wlocal[wid] carries the writer's presence bits from enter to exit.
	wlocal []uint64
}

var _ memmodel.Algorithm = (*PhaseFair)(nil)

const (
	pfPres = uint64(1)
	pfPhid = uint64(2)
	pfWmsk = pfPres | pfPhid
	pfRinc = uint64(4)
)

// NewPhaseFair returns an uninitialized phase-fair FAA lock.
func NewPhaseFair() *PhaseFair { return &PhaseFair{} }

// Name implements memmodel.Algorithm.
func (pf *PhaseFair) Name() string { return "faa-phasefair" }

// Init implements memmodel.Algorithm.
func (pf *PhaseFair) Init(a memmodel.Allocator, _, nWriters int) error {
	pf.rin = a.Alloc("rin", 0)
	pf.rout = a.Alloc("rout", 0)
	pf.win = a.Alloc("win", 0)
	pf.wout = a.Alloc("wout", 0)
	pf.wlocal = make([]uint64, max(nWriters, 1))
	return nil
}

// ReaderEnter registers with one FAA; if a writer is present, the reader
// waits for the writer bits to change (the writer leaving or a new phase).
func (pf *PhaseFair) ReaderEnter(p memmodel.Proc, _ int) {
	w := p.FetchAdd(pf.rin, pfRinc) & pfWmsk
	if w&pfPres != 0 {
		p.Await(pf.rin, func(x uint64) bool { return x&pfWmsk != w })
	}
}

// ReaderExit deregisters with one FAA.
func (pf *PhaseFair) ReaderExit(p memmodel.Proc, _ int) {
	p.FetchAdd(pf.rout, pfRinc)
}

// WriterEnter takes a ticket, waits for predecessor writers, sets the
// presence bits, and waits for all earlier readers to exit.
func (pf *PhaseFair) WriterEnter(p memmodel.Proc, wid int) {
	t := p.FetchAdd(pf.win, 1)
	p.Await(pf.wout, func(x uint64) bool { return x == t })
	w := pfPres | ((t & 1) << 1) // presence bit + ticket-parity phase id
	//rwlint:ignore memdiscipline wlocal[wid] is writer wid's private scratch carrying its presence word to its own exit section; only the same incarnation of wid reads it
	pf.wlocal[wid] = w
	r := p.FetchAdd(pf.rin, w) &^ pfWmsk
	p.Await(pf.rout, func(x uint64) bool { return x == r })
}

// WriterExit clears the presence bits (releasing blocked readers) and
// passes the writer baton.
func (pf *PhaseFair) WriterExit(p memmodel.Proc, wid int) {
	p.FetchAdd(pf.rin, ^pf.wlocal[wid]+1) // subtract the presence bits
	p.FetchAdd(pf.wout, 1)
}

// Props implements memmodel.Algorithm.
func (pf *PhaseFair) Props() memmodel.Props {
	return memmodel.Props{
		UsesFAA:              true,
		ConcurrentEntering:   true,
		ReaderStarvationFree: true,
		PredictedReaderRMR:   func(_, _ int) float64 { return 2 },
		PredictedWriterRMR:   func(_, _ int) float64 { return 4 },
	}
}

// MutexRW degrades the reader-writer lock to a plain mutex over all n+m
// processes: correct, but readers exclude each other, so Concurrent
// Entering fails. The spec tests rely on it as a negative control.
type MutexRW struct {
	nReaders int
	l        *mutex.Tournament
}

var _ memmodel.Algorithm = (*MutexRW)(nil)

// NewMutexRW returns an uninitialized mutex-based RW lock.
func NewMutexRW() *MutexRW { return &MutexRW{} }

// Name implements memmodel.Algorithm.
func (mr *MutexRW) Name() string { return "mutex-rw" }

// Init implements memmodel.Algorithm.
func (mr *MutexRW) Init(a memmodel.Allocator, nReaders, nWriters int) error {
	if nReaders < 0 || nWriters < 0 {
		return fmt.Errorf("baseline: negative population %d/%d", nReaders, nWriters)
	}
	mr.nReaders = nReaders
	mr.l = mutex.NewTournament(a, "L", max(nReaders+nWriters, 1))
	return nil
}

// ReaderEnter implements memmodel.Algorithm.
func (mr *MutexRW) ReaderEnter(p memmodel.Proc, rid int) { mr.l.Enter(p, rid) }

// ReaderExit implements memmodel.Algorithm.
func (mr *MutexRW) ReaderExit(p memmodel.Proc, rid int) { mr.l.Exit(p, rid) }

// WriterEnter implements memmodel.Algorithm.
func (mr *MutexRW) WriterEnter(p memmodel.Proc, wid int) { mr.l.Enter(p, mr.nReaders+wid) }

// WriterExit implements memmodel.Algorithm.
func (mr *MutexRW) WriterExit(p memmodel.Proc, wid int) { mr.l.Exit(p, mr.nReaders+wid) }

// Props implements memmodel.Algorithm.
func (mr *MutexRW) Props() memmodel.Props {
	lg := func(n, m int) float64 { return math.Log2(float64(max(n+m, 2))) }
	return memmodel.Props{
		ConcurrentEntering:   false,
		ReaderStarvationFree: true,
		PredictedReaderRMR:   lg,
		PredictedWriterRMR:   lg,
	}
}
