package mutex

import (
	"fmt"

	"repro/internal/memmodel"
)

// CLH is the Craig / Landin-Hagersten queue lock: waiters form an implicit
// queue through a tail pointer and each spins locally on its predecessor's
// node. With a hardware swap it is O(1) RMR per passage in the CC model;
// our model has no swap, so the enqueue emulates it with a CAS retry loop
// (retries are bounded by concurrent arrivals). It is FIFO, hence
// starvation-free, and its exit section is a single write: Bounded Exit.
//
// Node recycling follows the classic scheme: a releasing process adopts
// its predecessor's node for its next passage, so m+1 node variables
// suffice for m processes. Each process tracks the index of "its" node in
// local state.
type CLH struct {
	m int
	// nodes[i] == 1 while the owner of node i holds or waits for the
	// lock; 0 once released. m+1 nodes.
	nodes []memmodel.Var
	// tail holds the index+1 of the most recent waiter's node (0 = free,
	// with nodes[initTail] initialized released).
	tail memmodel.Var
	// mine[slot] / pred[slot] are per-process local node indices.
	mine []int
	pred []int
}

var _ Lock = (*CLH)(nil)

// NewCLH allocates a CLH lock for m slots.
func NewCLH(a memmodel.Allocator, name string, m int) *CLH {
	if m <= 0 {
		panic(fmt.Sprintf("mutex: m must be positive, got %d", m))
	}
	c := &CLH{
		m:     m,
		nodes: a.AllocN(name+".node", m+1, 0),
		// tail initially points at node m, which is released (0).
		tail: a.Alloc(name+".tail", uint64(m)),
		mine: make([]int, m),
		pred: make([]int, m),
	}
	for slot := range c.mine {
		c.mine[slot] = slot // node m is the initial dummy
	}
	return c
}

// Enter implements Lock.
func (c *CLH) Enter(p memmodel.Proc, slot int) {
	c.checkSlot(slot)
	my := c.mine[slot]
	p.Write(c.nodes[my], 1)
	// Swap tail -> my, fetching the predecessor (CAS-emulated).
	var predIdx uint64
	for {
		cur := p.Read(c.tail)
		if _, ok := p.CAS(c.tail, cur, uint64(my)); ok {
			predIdx = cur
			break
		}
	}
	//rwlint:ignore memdiscipline pred[slot] is slot's private node-recycling bookkeeping (classic CLH local state); only the same incarnation of slot's owner reads it
	c.pred[slot] = int(predIdx)
	p.Await(c.nodes[predIdx], func(x uint64) bool { return x == 0 })
}

// Exit implements Lock: one write, then adopt the predecessor's node.
func (c *CLH) Exit(p memmodel.Proc, slot int) {
	c.checkSlot(slot)
	p.Write(c.nodes[c.mine[slot]], 0)
	//rwlint:ignore memdiscipline mine[slot] is slot's private node-recycling bookkeeping; only the same incarnation of slot's owner reads it
	c.mine[slot] = c.pred[slot]
}

func (c *CLH) checkSlot(slot int) {
	if slot < 0 || slot >= c.m {
		panic(fmt.Sprintf("mutex: slot %d out of range [0,%d)", slot, c.m))
	}
}

// Ticket is the fetch-and-add ticket lock: FIFO and O(1) steps per
// passage, but every waiter spins on the single serving word, so each
// release invalidates all waiters — Theta(#waiters) coherence traffic per
// passage in the CC model. It exists as a contrast point for the WL
// substrate comparison; note it needs FAA, stepping outside the paper's
// read/write/CAS operation set.
type Ticket struct {
	next    memmodel.Var
	serving memmodel.Var
}

var _ Lock = (*Ticket)(nil)

// NewTicket allocates a ticket lock.
func NewTicket(a memmodel.Allocator, name string) *Ticket {
	return &Ticket{
		next:    a.Alloc(name+".next", 0),
		serving: a.Alloc(name+".serving", 0),
	}
}

// Enter implements Lock; the slot is ignored.
func (t *Ticket) Enter(p memmodel.Proc, _ int) {
	ticket := p.FetchAdd(t.next, 1)
	p.Await(t.serving, func(x uint64) bool { return x == ticket })
}

// Exit implements Lock.
func (t *Ticket) Exit(p memmodel.Proc, _ int) {
	// Only the holder writes serving, so a plain read-increment-write is
	// atomic enough.
	cur := p.Read(t.serving)
	p.Write(t.serving, cur+1)
}
