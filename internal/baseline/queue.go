package baseline

import (
	"fmt"

	"repro/internal/memmodel"
)

// QueueRW is a task-fair (FIFO) reader-writer lock in the spirit of the
// queue-based locks of Mellor-Crummey & Scott: all arrivals — readers and
// writers alike — join one CLH-style chain, so no class can starve the
// other. Two ideas make it a *reader-writer* lock rather than a mutex:
//
//   - Early read handoff: a reader passes the chain baton to its successor
//     immediately after it is admitted (not when it exits), so a run of
//     adjacent readers enters the critical section together.
//   - An active-reader word S tracks admissions: S = 2*activeReaders +
//     writerBit. A writer that reaches the head of the chain waits for
//     S == 0 (all batched readers gone), then sets the writer bit; it
//     passes the baton only at exit, so everything behind it waits.
//
// Mutual exclusion argument: the baton makes "await S, then update S on
// the acquire side" single-threaded — exactly one process (the head) ever
// adds admissions, so a writer's S == 0 check cannot be invalidated before
// its S = 1 write, and a reader's S += 2 CAS contends only with exiting
// readers' decrements. Readers behind a waiting writer spin on the
// writer's unpassed chain node, so they cannot overtake it (task
// fairness), and a writer behind a reader batch is admitted by the last
// exiting reader's decrement waking its S spin.
//
// Cost: readers are O(1) RMR plus the chain enqueue (a CAS-emulated swap;
// with hardware swap the enqueue is a single RMR); a writer pays one RMR
// per reader of the batch it waits out (its S spin is re-checked per
// decrement).
type QueueRW struct {
	n int
	// nodes[i] holds 0 while the owner of node i retains the baton and 1
	// once passed; n+m+1 nodes, recycled CLH-style.
	nodes []memmodel.Var
	// tail holds the node index of the most recent arrival.
	tail memmodel.Var
	// s is the admission word: 2*activeReaders + writerBit.
	s memmodel.Var
	// mine[slot] / pred[slot] are per-process local node indices; readers
	// use slots [0,n), writers [n, n+m).
	mine []int
	pred []int
}

var _ memmodel.Algorithm = (*QueueRW)(nil)

// NewQueueRW returns an uninitialized task-fair queue RW lock.
func NewQueueRW() *QueueRW { return &QueueRW{} }

// Name implements memmodel.Algorithm.
func (q *QueueRW) Name() string { return "queue-rw" }

// Init implements memmodel.Algorithm.
func (q *QueueRW) Init(a memmodel.Allocator, nReaders, nWriters int) error {
	if nReaders < 0 || nWriters < 0 {
		return fmt.Errorf("baseline: negative population %d/%d", nReaders, nWriters)
	}
	q.n = nReaders
	total := nReaders + nWriters
	q.nodes = a.AllocN("node", total, 0)
	// The sentinel node starts passed (1); it enters the normal recycling
	// rotation after the first acquisition adopts it.
	q.nodes = append(q.nodes, a.Alloc("node.sentinel", 1))
	q.tail = a.Alloc("tail", uint64(total))
	q.s = a.Alloc("S", 0)
	q.mine = make([]int, total)
	q.pred = make([]int, total)
	for slot := range q.mine {
		q.mine[slot] = slot
	}
	return nil
}

// enqueue joins the chain and waits for the predecessor's baton.
func (q *QueueRW) enqueue(p memmodel.Proc, slot int) {
	my := q.mine[slot]
	p.Write(q.nodes[my], 0)
	var predIdx uint64
	for {
		cur := p.Read(q.tail)
		if _, ok := p.CAS(q.tail, cur, uint64(my)); ok {
			predIdx = cur
			break
		}
	}
	//rwlint:ignore memdiscipline pred[slot] is slot's private node-recycling bookkeeping (classic CLH local state); only the same incarnation of slot's owner reads it
	q.pred[slot] = int(predIdx)
	p.Await(q.nodes[predIdx], func(x uint64) bool { return x == 1 })
}

// adopt recycles the predecessor's node for the next passage.
func (q *QueueRW) adopt(slot int) {
	//rwlint:ignore memdiscipline mine[slot] is slot's private node-recycling bookkeeping; only the same incarnation of slot's owner reads it
	q.mine[slot] = q.pred[slot]
}

// ReaderEnter: join the chain, wait for the baton, register in S, and pass
// the baton immediately (early read handoff).
func (q *QueueRW) ReaderEnter(p memmodel.Proc, rid int) {
	q.enqueue(p, rid)
	// Admitted: no writer can hold or take S's writer bit while we hold
	// the baton (writers set it only as head). Register before passing.
	p.Await(q.s, func(x uint64) bool { return x&1 == 0 })
	for {
		cur := p.Read(q.s)
		if _, ok := p.CAS(q.s, cur, cur+2); ok {
			break
		}
	}
	p.Write(q.nodes[q.mine[rid]], 1) // pass the baton: readers batch
	q.adopt(rid)
}

// ReaderExit deregisters from S; the last reader of a batch wakes the
// waiting head writer, if any.
func (q *QueueRW) ReaderExit(p memmodel.Proc, rid int) {
	for {
		cur := p.Read(q.s)
		if _, ok := p.CAS(q.s, cur, cur-2); ok {
			return
		}
	}
}

// WriterEnter: join the chain, wait for the baton, then drain the reader
// batch and take exclusive ownership. The baton is NOT passed until exit.
func (q *QueueRW) WriterEnter(p memmodel.Proc, wid int) {
	q.enqueue(p, q.n+wid)
	p.Await(q.s, func(x uint64) bool { return x == 0 })
	// Safe as a plain write: we hold the baton, so no reader can be
	// admitted, and S == 0 says none are active.
	p.Write(q.s, 1)
}

// WriterExit releases exclusivity and passes the baton.
func (q *QueueRW) WriterExit(p memmodel.Proc, wid int) {
	p.Write(q.s, 0)
	slot := q.n + wid
	p.Write(q.nodes[q.mine[slot]], 1)
	q.adopt(slot)
}

// Props implements memmodel.Algorithm.
func (q *QueueRW) Props() memmodel.Props {
	return memmodel.Props{
		UsesCAS: true,
		// Task-fair: FIFO admission means a reader behind a writer waits,
		// so entry is not bounded when writers are absent *from the
		// remainder of the chain* — but Concurrent Entering only requires
		// boundedness when ALL writers are in the remainder section, and
		// then the chain is all-readers and every baton passes in O(1)
		// steps. The CAS-emulated swap in enqueue is the one unbounded
		// piece (lock-free, not wait-free), as for the centralized lock.
		ConcurrentEntering:   false,
		ReaderStarvationFree: true, // FIFO
		PredictedReaderRMR:   func(_, _ int) float64 { return 6 },
		PredictedWriterRMR:   func(n, _ int) float64 { return float64(n) },
	}
}
