// Robust sweep execution: the options every sweep entry point honors. The
// sweep driver (sweep.go) always fans its rows out through
// parwork.DoRobust, and RobustOptions only choose which of its behaviors
// are on; with none on it is a plain fan-out. The result slots are
// identical either way, which makes an interrupted-and-resumed sweep
// byte-identical to an uninterrupted one (TestCheckpointResumeDeterminism,
// TestSweepGolden).
package spec

import (
	"sync/atomic"

	"repro/internal/checkpoint"
	"repro/internal/parwork"
)

// RobustOptions selects the robust execution behaviors for a sweep (see
// Scenario.Robust). The zero value disables them all, which — as an
// explicit non-nil Scenario.Robust — also shields a sweep from the
// process default.
type RobustOptions struct {
	// Store, when non-nil, checkpoints completed rows: each sweep binds
	// a section keyed by a fingerprint of its configuration, restores
	// rows a previous run completed, and records new ones. A stale
	// checkpoint (different configuration) fails the sweep with a typed
	// *checkpoint.MismatchError.
	Store *checkpoint.Store
	// KeepGoing isolates row failures: a panicking row is reported
	// inside its result slot (the outcome's Err holds the
	// *parwork.RowFailure) and the sweep continues. Default is
	// fail-fast. A row that would run forever is not a failure here: the
	// scenario's step budget (Scenario.MaxSteps) ends it as a
	// BudgetExceeded outcome, the same at every worker count.
	KeepGoing bool
	// Stop, when non-nil, cooperatively cancels the sweep: workers stop
	// claiming rows, the checkpoint is flushed, and the sweep returns a
	// *parwork.InterruptedError. The cmd binaries wire SIGINT/SIGTERM
	// to it.
	Stop *parwork.Stopper
	// AfterRow, when non-nil, observes progress (cumulative rows
	// computed this run). Called concurrently from sweep workers.
	AfterRow func(done int)
}

// defaultRobust is the process-wide default (see SetDefaultRobust).
var defaultRobust atomic.Pointer[RobustOptions]

// SetDefaultRobust installs the process-wide robust options applied to
// every sweep whose Scenario.Robust is nil. The cmd binaries call it from
// their -checkpoint/-resume/-keep-going flags, mirroring how
// parwork.SetDefault carries -parallel. Pass nil to clear.
func SetDefaultRobust(o *RobustOptions) { defaultRobust.Store(o) }

// EffectiveRobust resolves the robust options a sweep over sc runs under:
// the scenario's own Robust field wins (including a non-nil zero value,
// which opts out of the default); otherwise the process default. Exported
// for internal/explore, whose subtree split honors the same options.
func EffectiveRobust(sc Scenario) *RobustOptions {
	if sc.Robust != nil {
		return sc.Robust
	}
	return defaultRobust.Load()
}
