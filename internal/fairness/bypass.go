package fairness

import (
	"repro/internal/memmodel"
	"repro/internal/trace"
)

// BypassMonitor turns reader non-starvation and writer bounded-bypass into
// measured quantities. Observing the simulator's section-transition
// events, it counts — for every process — how many times some *other*
// process entered the critical section while the observed process was
// waiting in its entry section (an "overtake" or "bypass"). A stalled-
// then-resumed process that keeps getting overtaken shows up as a growing
// per-passage bypass count, so fail-slow sweeps can report starvation
// quantitatively per algorithm instead of only pass/fail.
//
// The monitor is backend-agnostic: install Observe as (or inside) a
// sim.Config/spec.Scenario observer. Processes are identified by the spec
// harness numbering (readers 0..nReaders-1, writers above).
//
// Concurrency contract: BypassMonitor is single-threaded. The simulator
// delivers observer events from one goroutine, so Observe and the query
// methods are deliberately unsynchronized — adding a lock here would tax
// every simulated step. A caller with real concurrency must serialize
// every call itself.
type BypassMonitor struct {
	nReaders int
	inEntry  []bool
	current  []int
	max      []int
	total    []int
}

// NewBypassMonitor returns a monitor for nProcs processes of which the
// first nReaders are readers.
func NewBypassMonitor(nProcs, nReaders int) *BypassMonitor {
	return &BypassMonitor{
		nReaders: nReaders,
		inEntry:  make([]bool, nProcs),
		current:  make([]int, nProcs),
		max:      make([]int, nProcs),
		total:    make([]int, nProcs),
	}
}

// Observe consumes one trace event. Only section-transition events matter;
// all others are ignored, so the monitor can share an observer chain with
// step-level checkers.
func (m *BypassMonitor) Observe(e trace.Event) {
	if !e.SectionChange || e.Proc < 0 || e.Proc >= len(m.inEntry) {
		return
	}
	switch e.Section {
	case memmodel.SecEntry:
		m.inEntry[e.Proc] = true
		m.current[e.Proc] = 0
	case memmodel.SecCS:
		// Close the winner's own wait first: entering the CS ends its
		// entry section, and it does not overtake itself.
		m.closeWait(e.Proc)
		for p := range m.inEntry {
			if p != e.Proc && m.inEntry[p] {
				m.current[p]++
				m.total[p]++
			}
		}
	default:
		// Exit, remainder, or recovery: any open entry wait ends here
		// (aborted attempts, recovered passages).
		m.closeWait(e.Proc)
	}
}

func (m *BypassMonitor) closeWait(proc int) {
	if !m.inEntry[proc] {
		return
	}
	m.inEntry[proc] = false
	if m.current[proc] > m.max[proc] {
		m.max[proc] = m.current[proc]
	}
}

// MaxBypass returns the largest number of overtakes proc suffered during a
// single entry-section wait (completed or still open).
func (m *BypassMonitor) MaxBypass(proc int) int {
	return max(m.max[proc], m.current[proc])
}

// TotalBypass returns the total number of overtakes proc suffered across
// all its entry-section waits.
func (m *BypassMonitor) TotalBypass(proc int) int { return m.total[proc] }

// MaxReaderBypass returns the worst single-wait overtake count over all
// readers.
func (m *BypassMonitor) MaxReaderBypass() int {
	worst := 0
	for p := 0; p < m.nReaders && p < len(m.max); p++ {
		worst = max(worst, m.MaxBypass(p))
	}
	return worst
}

// MaxWriterBypass returns the worst single-wait overtake count over all
// writers.
func (m *BypassMonitor) MaxWriterBypass() int {
	worst := 0
	for p := m.nReaders; p < len(m.max); p++ {
		worst = max(worst, m.MaxBypass(p))
	}
	return worst
}
