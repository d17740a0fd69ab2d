package parwork

// Scheduler observability: process-wide counters the work-stealing
// engine bumps as it hands out rows. rwbench's -scaling mode snapshots
// them around each measured configuration (ReadStats deltas) so the
// recorded scaling curve carries *why* it scaled — how many chunks were
// claimed locally, how many were stolen, how often a would-be thief
// found every deque empty.
//
// The counters use sync/atomic by design: parwork coordinates whole
// simulator executions with real goroutines and real synchronization,
// and deliberately lives outside the simulated shared-memory discipline
// that rwlint's memdiscipline analyzer enforces (see the scope pin in
// internal/lint/scope_test.go).

import "sync/atomic"

var (
	statRuns        atomic.Int64
	statRows        atomic.Int64
	statChunks      atomic.Int64
	statLocalClaims atomic.Int64
	statSteals      atomic.Int64
	statIdleProbes  atomic.Int64
)

// Stats is a snapshot of the scheduler counters. All fields are
// cumulative since process start or the last ResetStats.
type Stats struct {
	// Runs counts fan-outs (one per Do, DoErr or DoRobust call, serial
	// or parallel).
	Runs int64 `json:"runs"`
	// Rows counts rows handed to the engine across all fan-outs.
	Rows int64 `json:"rows"`
	// Chunks counts claim units built by the cost-aware chunker
	// (parallel fan-outs only; a serial run claims rows directly).
	Chunks int64 `json:"chunks"`
	// LocalClaims counts chunks a worker popped from its own deque.
	LocalClaims int64 `json:"local_claims"`
	// Steals counts chunks a worker took from another worker's deque.
	Steals int64 `json:"steals"`
	// IdleProbes counts steal attempts that found a victim's deque
	// empty — the "looking for work and finding none" signal.
	IdleProbes int64 `json:"idle_probes"`
}

// ReadStats returns the current counter values.
func ReadStats() Stats {
	return Stats{
		Runs:        statRuns.Load(),
		Rows:        statRows.Load(),
		Chunks:      statChunks.Load(),
		LocalClaims: statLocalClaims.Load(),
		Steals:      statSteals.Load(),
		IdleProbes:  statIdleProbes.Load(),
	}
}

// ResetStats zeroes the counters. Benchmarks call it between measured
// configurations; concurrent fan-outs will simply attribute their
// remaining claims to the new window.
func ResetStats() {
	statRuns.Store(0)
	statRows.Store(0)
	statChunks.Store(0)
	statLocalClaims.Store(0)
	statSteals.Store(0)
	statIdleProbes.Store(0)
}

// Sub returns s minus prev, the delta between two snapshots.
func (s Stats) Sub(prev Stats) Stats {
	return Stats{
		Runs:        s.Runs - prev.Runs,
		Rows:        s.Rows - prev.Rows,
		Chunks:      s.Chunks - prev.Chunks,
		LocalClaims: s.LocalClaims - prev.LocalClaims,
		Steals:      s.Steals - prev.Steals,
		IdleProbes:  s.IdleProbes - prev.IdleProbes,
	}
}
