package core

import (
	"fmt"
	"math"

	"repro/internal/counter"
	"repro/internal/memmodel"
	"repro/internal/mutex"
)

// RSIG opcodes (writer -> readers), paper Section 4.
const (
	opNOP      = 0 // no writer holds WL
	opPreentry = 1 // writer verifying no readers are waiting (lines 12-17)
	opWait     = 2 // readers must wait for the current writer passage
)

// WSIG opcodes (group-i readers -> writer).
const (
	wsBottom  = 0 // initial state for the current passage (line 8)
	wsProceed = 1 // group drained during PREENTRY; writer may continue (line 45)
	wsWait    = 2 // writer armed the group and is about to scan it (line 16)
	wsCS      = 3 // group quiescent or waiting; writer may enter the CS (line 52)
)

// CounterKind selects the group-counter implementation, as an ablation of
// the paper's key ingredient: the f-array's O(log K)-add / O(1)-read tree
// is what caps the reader's RMR cost, and replacing it with a naive
// single-word CAS counter (CounterCASWord) re-introduces the invalidation
// storms the tree exists to avoid (experiment E9).
type CounterKind uint8

const (
	// CounterFArray is the paper's Jayanti-style tree counter (default).
	CounterFArray CounterKind = iota + 1
	// CounterCASWord is the naive single-word CAS counter (ablation).
	CounterCASWord
	// CounterCellArray is the per-slot scan counter: O(1) adds but O(K)
	// reads, which shifts the cost onto whoever reads the counter — the
	// writer's group scan and the helping paths (ablation).
	CounterCellArray
)

// MutexKind selects the writers' mutex WL, as a substrate ablation. The
// paper requires an O(log m)-RMR starvation-free mutex with Bounded Exit
// ([21]); the tournament tree satisfies that. CLH (queue lock, O(1) RMR
// with hardware swap, CAS-emulated here) and the FAA ticket lock are
// alternative substrates with different constants and operation sets
// (experiment E10).
type MutexKind uint8

const (
	// MutexTournament is the Peterson arbitration tree (default; the
	// paper's WL).
	MutexTournament MutexKind = iota + 1
	// MutexCLH is the CLH queue lock.
	MutexCLH
	// MutexTicket is the FAA ticket lock (leaves the read/write/CAS
	// operation set).
	MutexTicket
)

// Option configures an AF instance at construction time.
type Option func(*AF)

// WithCounter selects the group-counter implementation.
func WithCounter(kind CounterKind) Option {
	return func(a *AF) { a.kind = kind }
}

// WithWriterMutex selects the WL substrate.
func WithWriterMutex(kind MutexKind) Option {
	return func(a *AF) { a.mutexKind = kind }
}

// AF is one member of the A_f family, bound to a parameterization F.
// Construct with New, then Init for a concrete population.
//
// Implementation note (deviation from the extended abstract): HelpWCS as
// printed reads C[i] and then W[i] (line 51). With two separate counter
// reads that order admits a mutual-exclusion violation: between the two
// reads an entering reader can increment both counters such that its
// C-increment is missed but its W-increment is observed, making the counts
// match while an earlier reader is still inside the CS. Reading W[i] first
// is safe: every reader counted in W read <seq, WAIT> from RSIG and cannot
// leave its passage before the writer exits, so it is necessarily counted
// by the later C[i] read, and a reader in the CS makes C's read strictly
// larger. See TestHelpWCSPaperOrderUnsafe for a schedule exhibiting the
// violation.
type AF struct {
	f         F
	kind      CounterKind
	mutexKind MutexKind

	n, m   int
	groups int
	k      int

	c    []counter.Counter // C[i]: group-i readers in a passage
	w    []counter.Counter // W[i]: group-i readers waiting
	wl   mutex.Lock        // WL: writers' mutex
	wseq memmodel.Var      // WSEQ: writer passage sequence number
	wsig []memmodel.Var    // WSIG[i]: <seq, opcode> from group i to the writer
	rsig memmodel.Var      // RSIG: <seq, opcode> from the writer to readers

	// wlocal[wid] carries the writer's passage sequence number from
	// WriterEnter to WriterExit.
	wlocal []uint64

	// helpWCSCFirst selects the extended abstract's literal (unsafe)
	// HelpWCS read order; test-only. See helpWCS.
	helpWCSCFirst bool

	inited bool
}

var (
	_ memmodel.Algorithm    = (*AF)(nil)
	_ memmodel.TryAlgorithm = (*AF)(nil)
)

// New returns an uninitialized A_f instance for parameterization f, using
// the paper's substrates (f-array counters, tournament WL) unless options
// say otherwise.
func New(f F, opts ...Option) *AF {
	a := &AF{f: f, kind: CounterFArray, mutexKind: MutexTournament}
	for _, opt := range opts {
		opt(a)
	}
	return a
}

// NewWithCounter returns an A_f instance with an explicit group-counter
// implementation (ablation studies). Equivalent to New(f, WithCounter(kind)).
func NewWithCounter(f F, kind CounterKind) *AF { return New(f, WithCounter(kind)) }

// Name implements memmodel.Algorithm.
func (a *AF) Name() string {
	name := "af-" + a.f.Name
	switch a.kind {
	case CounterCASWord:
		name += "+casword"
	case CounterCellArray:
		name += "+cellarray"
	}
	switch a.mutexKind {
	case MutexCLH:
		name += "+clhwl"
	case MutexTicket:
		name += "+ticketwl"
	}
	return name
}

// Groups returns f(n), the number of reader groups, after Init.
func (a *AF) Groups() int { return a.groups }

// GroupSize returns K, the per-group population, after Init.
func (a *AF) GroupSize() int { return a.k }

// Init implements memmodel.Algorithm: it allocates the shared variables of
// Algorithm 1 (lines 1-4).
func (a *AF) Init(alloc memmodel.Allocator, nReaders, nWriters int) error {
	if a.inited {
		return fmt.Errorf("core: %s: Init called twice", a.Name())
	}
	if nReaders < 0 || nWriters < 0 {
		return fmt.Errorf("core: negative population %d/%d", nReaders, nWriters)
	}
	a.inited = true
	a.n, a.m = nReaders, nWriters
	a.groups = a.f.Groups(nReaders)
	a.k = a.f.GroupSize(nReaders)

	a.c = make([]counter.Counter, a.groups)
	a.w = make([]counter.Counter, a.groups)
	for i := 0; i < a.groups; i++ {
		switch a.kind {
		case CounterCASWord:
			a.c[i] = counter.NewCASWord(alloc, fmt.Sprintf("C[%d]", i))
			a.w[i] = counter.NewCASWord(alloc, fmt.Sprintf("W[%d]", i))
		case CounterCellArray:
			a.c[i] = counter.NewCellArray(alloc, fmt.Sprintf("C[%d]", i), a.k)
			a.w[i] = counter.NewCellArray(alloc, fmt.Sprintf("W[%d]", i), a.k)
		default:
			a.c[i] = counter.NewFArray(alloc, fmt.Sprintf("C[%d]", i), a.k)
			a.w[i] = counter.NewFArray(alloc, fmt.Sprintf("W[%d]", i), a.k)
		}
	}
	switch a.mutexKind {
	case MutexCLH:
		a.wl = mutex.NewCLH(alloc, "WL", max(nWriters, 1))
	case MutexTicket:
		a.wl = mutex.NewTicket(alloc, "WL")
	default:
		a.wl = mutex.NewTournament(alloc, "WL", max(nWriters, 1))
	}
	a.wseq = alloc.Alloc("WSEQ", 0)
	a.wsig = alloc.AllocN("WSIG", a.groups, memmodel.PackSig(0, wsBottom))
	a.rsig = alloc.Alloc("RSIG", memmodel.PackSig(0, opNOP))
	a.wlocal = make([]uint64, max(nWriters, 1))
	return nil
}

// group returns reader rid's group index and in-group counter slot.
func (a *AF) group(rid int) (int, int) {
	return rid / a.k, rid % a.k
}

// ReaderEnter implements lines 31-38 of Algorithm 1.
func (a *AF) ReaderEnter(p memmodel.Proc, rid int) {
	i, slot := a.group(rid)
	a.c[i].Add(p, slot, 1)                        // line 31
	seq, op := memmodel.UnpackSig(p.Read(a.rsig)) // line 32
	if op == opWait {                             // line 33
		a.w[i].Add(p, slot, 1) // line 34
		a.helpWCS(p, i, seq)   // line 35
		waitWord := memmodel.PackSig(seq, opWait)
		p.Await(a.rsig, func(x uint64) bool { return x != waitWord }) // line 36
		a.w[i].Add(p, slot, -1)                                       // line 37
	}
}

// ReaderExit implements lines 40-48 of Algorithm 1.
func (a *AF) ReaderExit(p memmodel.Proc, rid int) {
	i, slot := a.group(rid)
	a.c[i].Add(p, slot, -1)                       // line 40
	seq, op := memmodel.UnpackSig(p.Read(a.rsig)) // line 41
	switch op {
	case opPreentry: // line 42
		if a.c[i].Read(p) == 0 { // line 43
			// line 45: exactly one exiting reader wins this CAS per
			// writer passage (the expected value embeds seq).
			p.CAS(a.wsig[i], memmodel.PackSig(seq, wsBottom), memmodel.PackSig(seq, wsProceed))
		}
	case opWait: // line 47
		a.helpWCS(p, i, seq) // line 48
	}
}

// helpWCS implements lines 50-54: if every group-i reader currently in a
// passage is waiting, signal the writer that group i is clear.
//
// W[i] is read before C[i]; see the type comment for why this order is
// load-bearing. The helpWCSCFirst flag restores the extended abstract's
// literal C-then-W order; it exists only so the regression test can
// demonstrate the resulting mutual-exclusion violation.
func (a *AF) helpWCS(p memmodel.Proc, i int, seq uint64) {
	var waiting, inPassage int32
	if a.helpWCSCFirst {
		inPassage = a.c[i].Read(p)
		waiting = a.w[i].Read(p)
	} else {
		waiting = a.w[i].Read(p)
		inPassage = a.c[i].Read(p)
	}
	if waiting == inPassage { // line 51
		// line 52
		p.CAS(a.wsig[i], memmodel.PackSig(seq, wsWait), memmodel.PackSig(seq, wsCS))
	}
}

// WriterEnter implements lines 6-23 of Algorithm 1.
func (a *AF) WriterEnter(p memmodel.Proc, wid int) {
	a.wl.Enter(p, wid)    // line 6
	seq := p.Read(a.wseq) // the passage's sequence number
	//rwlint:ignore memdiscipline wlocal[wid] is writer wid's private scratch (the paper's process-local seq register); only the same incarnation of wid reads it, in its own exit section
	a.wlocal[wid] = seq

	for i := 0; i < a.groups; i++ { // lines 7-9
		p.Write(a.wsig[i], memmodel.PackSig(seq, wsBottom))
	}
	p.Write(a.rsig, memmodel.PackSig(seq, opPreentry)) // line 11

	// Lines 12-17: verify no readers are still waiting for an earlier
	// passage before instructing readers to wait for this one.
	for i := 0; i < a.groups; i++ {
		if a.c[i].Read(p) > 0 { // line 13
			proceed := memmodel.PackSig(seq, wsProceed)
			p.Await(a.wsig[i], func(x uint64) bool { return x == proceed }) // line 14
		}
		p.Write(a.wsig[i], memmodel.PackSig(seq, wsWait)) // line 16
	}

	p.Write(a.rsig, memmodel.PackSig(seq, opWait)) // line 18

	// Lines 19-23: wait until every group is clear of readers that did
	// not observe the WAIT signal.
	for i := 0; i < a.groups; i++ {
		if a.c[i].Read(p) > 0 { // line 20
			cs := memmodel.PackSig(seq, wsCS)
			p.Await(a.wsig[i], func(x uint64) bool { return x == cs }) // line 21
		}
	}
}

// WriterExit implements lines 25-27 of Algorithm 1.
func (a *AF) WriterExit(p memmodel.Proc, wid int) {
	seq := a.wlocal[wid]
	p.Write(a.wseq, seq+1)                          // line 25
	p.Write(a.rsig, memmodel.PackSig(seq+1, opNOP)) // line 26
	a.wl.Exit(p, wid)                               // line 27
}

// ReaderTryEnter implements memmodel.TryAlgorithm. The reader entry
// section has exactly one unbounded wait — the await on RSIG while a
// writer holds the lock (line 36) — so the try variant registers in C[i],
// checks RSIG once, and on <seq, WAIT> abandons by running the ordinary
// exit section: an aborted attempt is indistinguishable from an
// instantaneous empty passage, so every safety and signaling invariant of
// Algorithm 1 carries over verbatim (including the helpWCS handshake the
// waiting writer may depend on). The failed attempt costs two counter
// updates plus O(1) signal steps: O(log(n/f(n))) RMRs, constant in n at
// the f(n)=n endpoint.
func (a *AF) ReaderTryEnter(p memmodel.Proc, rid int) bool {
	i, slot := a.group(rid)
	a.c[i].Add(p, slot, 1)                      // line 31
	_, op := memmodel.UnpackSig(p.Read(a.rsig)) // line 32
	if op != opWait {
		return true
	}
	a.ReaderExit(p, rid) // abandon: C[i] decrement + exit signaling
	return false
}

// WriterTryEnter implements memmodel.TryAlgorithm. Writers have three
// blocking points: WL itself and the two group scans (lines 14 and 21).
// The try variant (1) acquires WL through the substrate's bounded
// abortable entry (mutex.TryEnterer — O(log m) for the tournament tree,
// failure rolls the arbitration path back without waiting); (2) runs the
// entry handshake with each await replaced by a single check; and (3)
// abandons by running the ordinary WriterExit: advancing WSEQ and
// publishing <seq+1, NOP> invalidates every signal of the aborted round
// (readers parked on <seq, WAIT> wake and proceed) and releases WL — the
// same jump-to-exit rollback used by abortable-mutex constructions. A
// failed attempt costs O(f(n) + log m) RMRs, constant in n at the f(n)=1
// endpoint.
//
// WL substrates without bounded try-entry (CLH, ticket) have no way to
// abandon a queue position without waiting, so under those ablations the
// attempt is refused outright.
func (a *AF) WriterTryEnter(p memmodel.Proc, wid int) bool {
	tl, ok := a.wl.(mutex.TryEnterer)
	if !ok {
		return false
	}
	if !tl.TryEnter(p, wid) {
		return false
	}
	seq := p.Read(a.wseq)
	//rwlint:ignore memdiscipline wlocal[wid] is writer wid's private scratch (the paper's process-local seq register); only the same incarnation of wid reads it, in its own exit section
	a.wlocal[wid] = seq

	for i := 0; i < a.groups; i++ { // lines 7-9
		p.Write(a.wsig[i], memmodel.PackSig(seq, wsBottom))
	}
	p.Write(a.rsig, memmodel.PackSig(seq, opPreentry)) // line 11

	for i := 0; i < a.groups; i++ { // lines 12-17, await -> single check
		if a.c[i].Read(p) > 0 &&
			p.Read(a.wsig[i]) != memmodel.PackSig(seq, wsProceed) {
			a.WriterExit(p, wid)
			return false
		}
		p.Write(a.wsig[i], memmodel.PackSig(seq, wsWait)) // line 16
	}

	p.Write(a.rsig, memmodel.PackSig(seq, opWait)) // line 18

	for i := 0; i < a.groups; i++ { // lines 19-23, await -> single check
		if a.c[i].Read(p) > 0 &&
			p.Read(a.wsig[i]) != memmodel.PackSig(seq, wsCS) {
			a.WriterExit(p, wid)
			return false
		}
	}
	return true
}

// Props implements memmodel.Algorithm.
func (a *AF) Props() memmodel.Props {
	f := a.f
	return memmodel.Props{
		UsesCAS:              true,
		UsesFAA:              a.mutexKind == MutexTicket,
		ConcurrentEntering:   true,
		ReaderStarvationFree: true,
		PredictedReaderRMR: func(n, _ int) float64 {
			return math.Log2(float64(f.GroupSize(n))) + 1
		},
		PredictedWriterRMR: func(n, m int) float64 {
			return float64(f.Groups(n)) + math.Log2(float64(max(m, 2)))
		},
	}
}
