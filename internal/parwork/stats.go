package parwork

// Pool observability: process-wide counters the pool bumps per fan-out.
// They use sync/atomic by design: parwork coordinates whole simulator
// executions with real goroutines and real synchronization, and
// deliberately lives outside the simulated shared-memory discipline that
// rwlint's memdiscipline analyzer enforces (see the scope pin in
// internal/lint/scope_test.go).

import "sync/atomic"

var (
	statRuns atomic.Int64
	statRows atomic.Int64
)

// Stats is a snapshot of the pool counters, cumulative since process
// start.
type Stats struct {
	// Runs counts fan-outs (one per Do, DoErr or DoRobust call, serial
	// or parallel).
	Runs int64
	// Rows counts rows handed to the pool across all fan-outs.
	Rows int64
	// Chunks, Steals and IdleProbes are always zero: the pool claims
	// single rows from one cursor and neither chunks nor steals. They
	// remain only because perfbench still reads them.
	Chunks, Steals, IdleProbes int64
}

// ReadStats returns the current counter values.
func ReadStats() Stats {
	return Stats{Runs: statRuns.Load(), Rows: statRows.Load()}
}

// Sub returns s minus prev, the delta between two snapshots.
func (s Stats) Sub(prev Stats) Stats {
	return Stats{Runs: s.Runs - prev.Runs, Rows: s.Rows - prev.Rows}
}
