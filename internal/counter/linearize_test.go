package counter

import (
	"fmt"
	"math/bits"
	"sort"
	"testing"
)

// A linearizability checker for counter histories (Wing-Gong style
// search with memoization). A_f's correctness proofs treat C[i] and W[i]
// as atomic counters; the paper's f-array construction is designed to be
// linearizable, and this checker validates that claim on concurrent
// histories collected from the simulator (history_test.go) — and,
// conversely, exhibits the *non*-linearizable behaviour of the
// cell-array ablation's scan reads.
//
// A history is a set of operations with real-time windows [Start, End]:
// operation A happens before B iff A.End < B.Start. A history is
// linearizable iff there is a total order extending happens-before in
// which every Read returns the sum of the Adds ordered before it.

// Op is one completed counter operation with its observation window.
// Windows may be over-approximations (earlier Start, later End): widening
// windows only admits more linearizations, so a verdict of "not
// linearizable" remains sound.
type Op struct {
	// Proc identifies the calling process (diagnostics only).
	Proc int
	// Start and End delimit the operation's real-time window; End >= Start.
	Start, End int
	// IsRead distinguishes reads from adds.
	IsRead bool
	// Delta is the amount added (adds only).
	Delta int32
	// Result is the value returned (reads only).
	Result int32
}

func (o Op) String() string {
	if o.IsRead {
		return fmt.Sprintf("p%d Read()=%d @[%d,%d]", o.Proc, o.Result, o.Start, o.End)
	}
	return fmt.Sprintf("p%d Add(%d) @[%d,%d]", o.Proc, o.Delta, o.Start, o.End)
}

// MaxOps bounds the history size the checker accepts (the memoized search
// is exponential in the worst case; 24 ops keeps it comfortably fast).
const MaxOps = 24

// CheckCounter reports whether the history is linearizable with respect to
// a sequential counter starting at zero. It returns a witness order (op
// indices into the input) when linearizable.
func CheckCounter(ops []Op) (bool, []int, error) {
	if len(ops) > MaxOps {
		return false, nil, fmt.Errorf("history of %d ops exceeds limit %d", len(ops), MaxOps)
	}
	for i, o := range ops {
		if o.End < o.Start {
			return false, nil, fmt.Errorf("op %d has End < Start", i)
		}
	}
	if len(ops) == 0 {
		return true, nil, nil
	}

	// Sort by Start for a stable exploration order; keep original indices.
	idx := make([]int, len(ops))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return ops[idx[a]].Start < ops[idx[b]].Start })

	full := uint32(1)<<len(ops) - 1
	// visited memoizes "remaining set is not linearizable from here": the
	// running sum is a function of the applied add set, so the bitmask
	// alone identifies the search state.
	visited := make(map[uint32]bool)

	var order []int
	var dfs func(remaining uint32, sum int32) bool
	dfs = func(remaining uint32, sum int32) bool {
		if remaining == 0 {
			return true
		}
		if visited[remaining] {
			return false
		}
		// An op is a candidate next linearization point iff no other
		// remaining op finished before it started.
		minEnd := int(^uint(0) >> 1)
		for r := remaining; r != 0; r &= r - 1 {
			i := idx[bits.TrailingZeros32(r)]
			if ops[i].End < minEnd {
				minEnd = ops[i].End
			}
		}
		for r := remaining; r != 0; r &= r - 1 {
			bit := uint32(1) << bits.TrailingZeros32(r)
			i := idx[bits.TrailingZeros32(r)]
			if ops[i].Start > minEnd {
				continue // some remaining op happens strictly before it
			}
			if ops[i].IsRead {
				if ops[i].Result != sum {
					continue
				}
				order = append(order, i)
				if dfs(remaining&^bit, sum) {
					return true
				}
				order = order[:len(order)-1]
			} else {
				order = append(order, i)
				if dfs(remaining&^bit, sum+ops[i].Delta) {
					return true
				}
				order = order[:len(order)-1]
			}
		}
		visited[remaining] = true
		return false
	}

	if dfs(full, 0) {
		witness := append([]int(nil), order...)
		return true, witness, nil
	}
	return false, nil, nil
}

func TestEmptyAndSequential(t *testing.T) {
	ok, _, err := CheckCounter(nil)
	if err != nil || !ok {
		t.Fatalf("empty history: ok=%v err=%v", ok, err)
	}
	ops := []Op{
		{Proc: 0, Start: 0, End: 1, Delta: 5},
		{Proc: 0, Start: 2, End: 3, IsRead: true, Result: 5},
		{Proc: 0, Start: 4, End: 5, Delta: -2},
		{Proc: 0, Start: 6, End: 7, IsRead: true, Result: 3},
	}
	ok, witness, err := CheckCounter(ops)
	if err != nil || !ok {
		t.Fatalf("sequential history rejected: %v", err)
	}
	if len(witness) != len(ops) {
		t.Fatalf("witness length %d", len(witness))
	}
}

func TestOverlappingReadMaySeeEither(t *testing.T) {
	// A read overlapping an add may return the value before or after it.
	for _, result := range []int32{0, 7} {
		ops := []Op{
			{Proc: 0, Start: 0, End: 10, Delta: 7},
			{Proc: 1, Start: 0, End: 10, IsRead: true, Result: result},
		}
		if ok, _, err := CheckCounter(ops); err != nil || !ok {
			t.Errorf("result %d rejected: err=%v", result, err)
		}
	}
	// But not an unrelated value.
	ops := []Op{
		{Proc: 0, Start: 0, End: 10, Delta: 7},
		{Proc: 1, Start: 0, End: 10, IsRead: true, Result: 3},
	}
	if ok, _, _ := CheckCounter(ops); ok {
		t.Error("impossible read value accepted")
	}
}

func TestStaleReadRejected(t *testing.T) {
	// With only positive adds, a later read cannot observe less than an
	// earlier read (both sequential).
	ops := []Op{
		{Proc: 0, Start: 0, End: 1, Delta: 1},
		{Proc: 1, Start: 2, End: 3, IsRead: true, Result: 1},
		{Proc: 1, Start: 4, End: 5, IsRead: true, Result: 0},
	}
	if ok, _, _ := CheckCounter(ops); ok {
		t.Error("decreasing sequential reads accepted")
	}
}

func TestMissedMiddleAddRejected(t *testing.T) {
	// Add(1) completes strictly before Add(2) starts; a concurrent read
	// returning 2 (the second add without the first) is the classic
	// non-linearizable scan anomaly.
	ops := []Op{
		{Proc: 0, Start: 2, End: 3, Delta: 1},
		{Proc: 1, Start: 5, End: 6, Delta: 2},
		{Proc: 2, Start: 0, End: 10, IsRead: true, Result: 2},
	}
	if ok, _, _ := CheckCounter(ops); ok {
		t.Error("scan anomaly accepted (read saw the second add but not the first)")
	}
	// Whereas 0, 1 and 3 are all legitimate.
	for _, result := range []int32{0, 1, 3} {
		ops[2].Result = result
		if ok, _, _ := CheckCounter(ops); !ok {
			t.Errorf("legitimate result %d rejected", result)
		}
	}
}

func TestRealTimeOrderRespected(t *testing.T) {
	// Two sequential adds then a sequential read must see both.
	ops := []Op{
		{Proc: 0, Start: 0, End: 1, Delta: 1},
		{Proc: 0, Start: 2, End: 3, Delta: 1},
		{Proc: 1, Start: 4, End: 5, IsRead: true, Result: 1},
	}
	if ok, _, _ := CheckCounter(ops); ok {
		t.Error("read missing a completed add accepted")
	}
}

func TestWitnessIsValid(t *testing.T) {
	ops := []Op{
		{Proc: 0, Start: 0, End: 4, Delta: 2},
		{Proc: 1, Start: 1, End: 5, IsRead: true, Result: 2},
		{Proc: 2, Start: 2, End: 6, Delta: 3},
		{Proc: 1, Start: 7, End: 8, IsRead: true, Result: 5},
	}
	ok, witness, err := CheckCounter(ops)
	if err != nil || !ok {
		t.Fatalf("history rejected: %v", err)
	}
	// Replay the witness sequentially.
	var sum int32
	seen := map[int]bool{}
	for _, i := range witness {
		if seen[i] {
			t.Fatal("witness repeats an op")
		}
		seen[i] = true
		if ops[i].IsRead {
			if ops[i].Result != sum {
				t.Fatalf("witness invalid: read %d at sum %d", ops[i].Result, sum)
			}
		} else {
			sum += ops[i].Delta
		}
	}
	if len(seen) != len(ops) {
		t.Fatal("witness incomplete")
	}
}

func TestCheckCounterErrors(t *testing.T) {
	if _, _, err := CheckCounter(make([]Op, MaxOps+1)); err == nil {
		t.Error("oversized history accepted")
	}
	if _, _, err := CheckCounter([]Op{{Start: 5, End: 2}}); err == nil {
		t.Error("inverted window accepted")
	}
}
