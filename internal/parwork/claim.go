package parwork

// The pool claims rows from one shared cursor. With a cost hint the cursor
// walks the rows largest-first (the LPT makespan heuristic): every worker
// starts the big rows before anyone reaches the cheap tail, so a worker
// that draws a monster row last cannot leave the others idle behind it.
// Claiming is one atomic add per row; a row is a whole simulator
// execution, so the claim costs nothing by comparison.
//
// None of this changes the merge contract: row i still writes slot i, so
// the output is byte-identical to the serial loop's at every worker count
// under any hint. Claim order is free precisely because the jobs are pure
// functions of their index.

import (
	"slices"
	"sync/atomic"
)

// CostHint estimates the relative cost of row i. Only the ordering
// matters: with more than one worker, rows are claimed in descending hint
// order, ties in index order. Values below 1 count as 1. A nil CostHint
// keeps the natural order. Hints never decide whether a row runs.
type CostHint func(i int) int64

// cursor hands out the rows [0, n) to the pool's workers, each exactly
// once. order is the claim order, nil for the natural one.
type cursor struct {
	n     int
	order []int32
	next  atomic.Int64
}

// newCursor builds the claim order for n rows across workers workers. A
// serial pool, or a nil cost, claims rows in index order.
func newCursor(n, workers int, cost CostHint) *cursor {
	statRuns.Add(1)
	statRows.Add(int64(n))
	c := &cursor{n: n}
	if workers <= 1 || cost == nil {
		return c
	}
	costs := make([]int64, n)
	c.order = make([]int32, n)
	for i := range costs {
		costs[i] = max(cost(i), 1)
		c.order[i] = int32(i)
	}
	slices.SortStableFunc(c.order, func(a, b int32) int {
		switch {
		case costs[a] > costs[b]:
			return -1
		case costs[a] < costs[b]:
			return 1
		}
		return 0
	})
	return c
}

// claim returns the next row to run, or false once every row is claimed.
// Safe for concurrent use.
func (c *cursor) claim() (int, bool) {
	k := int(c.next.Add(1)) - 1
	if k >= c.n {
		return 0, false
	}
	if c.order == nil {
		return k, true
	}
	return int(c.order[k]), true
}
