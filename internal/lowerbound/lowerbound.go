// Package lowerbound implements the adversarial execution construction of
// the paper's Theorem 5 (and its Figure 1) as an executable driver: it runs
// a real reader-writer lock algorithm through the three staged fragments
//
//	E1: all n readers execute their entry sections and stop inside the CS;
//	E2: all readers execute their exit sections, scheduled in iterations —
//	    readers run freely while their next step is non-expanding, and once
//	    every remaining reader is poised at an expanding step the whole
//	    batch is released in Lemma 2's order (value-preserving steps, then
//	    writes, then value-changing CASes);
//	E3: the single writer runs solo through its entry section into the CS.
//
// The driver measures exactly the quantities the proof bounds: the number
// of iterations r (the theorem shows r = Omega(log3(n/f(n)))), the number
// of expanding steps (hence RMRs, by Lemma 1) some reader performs in its
// exit section, the per-round growth of the maximum awareness/familiarity
// cardinality (at most 3x, by Lemma 2), the writer's entry-section RMRs,
// and Lemma 4's conclusion that the writer becomes aware of every reader.
package lowerbound

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"repro/internal/awareness"
	"repro/internal/memmodel"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/trace"
)

// Config parameterizes the adversary.
type Config struct {
	// Protocol is the coherence protocol (default write-through).
	Protocol sim.Protocol
	// StepBudget bounds the total steps across all phases (default
	// 200*n + 100000).
	StepBudget int
	// IterationCap aborts pathological executions (default
	// 8*log2(n) + 64); the theorem predicts Theta(log n) iterations at
	// most, so hitting the cap indicates a broken algorithm.
	IterationCap int
}

// Result reports the measured quantities of one constructed execution.
type Result struct {
	// Algorithm is the algorithm's name; N the number of readers.
	Algorithm string
	N         int
	// R is the number of expanding-batch iterations in E2. Theorem 5:
	// R = Omega(log3(n/f(n))) for any read/write/CAS algorithm whose
	// writer performs O(f(n)) entry RMRs.
	R int
	// MaxReaderExitExpanding is the largest number of expanding steps a
	// single reader executed during its exit section; by Lemma 1 each
	// incurred an RMR.
	MaxReaderExitExpanding int
	// MaxReaderExitRMR / MeanReaderExitRMR summarize the readers' actual
	// exit-section RMR counts.
	MaxReaderExitRMR  int
	MeanReaderExitRMR float64
	// WriterEntryRMR and WriterEntrySteps are the writer's E3 entry costs.
	WriterEntryRMR   int
	WriterEntrySteps int
	// WriterAwareReaders counts the readers in the writer's awareness set
	// after E3; Lemma 4 requires all n.
	WriterAwareReaders int
	// MaxRoundGrowth is the largest per-iteration growth factor of
	// M = max set cardinality; Lemma 2 bounds it by 3.
	MaxRoundGrowth float64
	// Lemma1Violations counts expanding steps that incurred no RMR
	// (must be zero).
	Lemma1Violations int
	// E2Steps is the total number of steps in fragment E2.
	E2Steps int
}

// Log3Bound returns the reference value log3(n/f) the theorem compares R
// against, for a given writer group count f.
func Log3Bound(n, f int) float64 {
	if f < 1 {
		f = 1
	}
	ratio := float64(n) / float64(f)
	if ratio < 1 {
		ratio = 1
	}
	return math.Log(ratio) / math.Log(3)
}

// driver holds the staged execution state.
type driver struct {
	r    *sim.Runner
	ctrl *sched.Controlled
	tr   *awareness.Tracker
	n    int
	cfg  Config
}

// Run constructs the Theorem-5 execution for alg with n readers and one
// writer. The algorithm instance must be fresh. Algorithms whose readers
// cannot all occupy the CS simultaneously (no Concurrent Entering, e.g. a
// mutex-based RW lock) cannot complete fragment E1 and yield an error.
func Run(alg memmodel.Algorithm, n int, cfg Config) (*Result, error) {
	if n < 1 {
		return nil, errors.New("lowerbound: need at least one reader")
	}
	if cfg.Protocol == 0 {
		cfg.Protocol = sim.WriteThrough
	}
	if cfg.StepBudget == 0 {
		cfg.StepBudget = 200*n + 100_000
	}
	if cfg.IterationCap == 0 {
		cfg.IterationCap = 8*int(math.Log2(float64(n)+1)) + 64
	}

	d := &driver{ctrl: &sched.Controlled{}, n: n, cfg: cfg}
	d.r = sim.New(sim.Config{
		Protocol:  cfg.Protocol,
		Scheduler: d.ctrl,
		MaxSteps:  cfg.StepBudget,
		Observer: func(e trace.Event) {
			if d.tr != nil {
				d.tr.Observe(e)
			}
		},
	})
	defer d.r.Close()

	if err := alg.Init(d.r, n, 1); err != nil {
		return nil, fmt.Errorf("lowerbound: init: %w", err)
	}

	for rid := 0; rid < n; rid++ {
		rid := rid
		d.r.AddProc(func(p sim.Proc) {
			p.Section(memmodel.SecEntry)
			alg.ReaderEnter(p, rid)
			p.Section(memmodel.SecCS)
			p.Barrier() // end of E1: hold the CS until E2 starts
			p.Section(memmodel.SecExit)
			alg.ReaderExit(p, rid)
			p.Section(memmodel.SecRemainder)
		})
	}
	writerID := d.r.AddProc(func(p sim.Proc) {
		p.Barrier() // released at the start of E3
		p.Section(memmodel.SecEntry)
		alg.WriterEnter(p, 0)
		p.Section(memmodel.SecCS)
		p.Barrier() // hold the CS: the measurement ends here
		p.Section(memmodel.SecExit)
		alg.WriterExit(p, 0)
		p.Section(memmodel.SecRemainder)
	})

	if err := d.r.Start(); err != nil {
		return nil, err
	}
	// The tracker exists from the start (Observer needs it) but is Reset
	// at the E2 fragment boundary per the paper's fragment-relative sets.
	d.tr = awareness.New(n+1, d.r.NumVars())

	// ---- E1: readers enter the CS one after another. ----
	for rid := 0; rid < n; rid++ {
		if err := d.driveToBarrier(rid); err != nil {
			return nil, fmt.Errorf("lowerbound: E1 reader %d: %w", rid, err)
		}
	}

	// ---- E2: staged exit. ----
	d.tr.Reset()
	e2Start := d.r.StepCount()
	for rid := 0; rid < n; rid++ {
		if err := d.r.ReleaseBarrier(rid); err != nil {
			return nil, fmt.Errorf("lowerbound: releasing reader %d: %w", rid, err)
		}
	}

	res := &Result{Algorithm: alg.Name(), N: n}
	for !d.allReadersDone() {
		// Drain: run every reader while its next step is non-expanding.
		// Repeat passes until a full pass makes no progress (steps by one
		// reader can flip another's classification).
		for {
			progressed := false
			for rid := 0; rid < n; rid++ {
				for {
					op, poised := d.r.PendingOf(rid)
					if !poised || d.tr.IsExpanding(op) {
						break
					}
					if err := d.step(rid); err != nil {
						return nil, fmt.Errorf("lowerbound: E2 drain reader %d: %w", rid, err)
					}
					progressed = true
				}
			}
			if !progressed {
				break
			}
		}
		if d.allReadersDone() {
			break
		}

		// Batch: release all poised expanding steps in Lemma 2's order.
		batch := d.expandingBatch()
		if len(batch) == 0 {
			// Remaining readers are parked on awaits with no writer to
			// wake them: the exit section is not wait-free.
			return nil, errors.New("lowerbound: E2 stalled: readers awaiting in their exit section (Bounded Exit violated)")
		}
		mBefore := d.tr.M()
		for _, rid := range batch {
			if _, poised := d.r.PendingOf(rid); !poised {
				continue
			}
			if err := d.step(rid); err != nil {
				return nil, fmt.Errorf("lowerbound: E2 batch reader %d: %w", rid, err)
			}
		}
		res.R++
		if res.R > d.cfg.IterationCap {
			return nil, fmt.Errorf("lowerbound: iteration cap %d exceeded", d.cfg.IterationCap)
		}
		growth := float64(d.tr.M()) / float64(max(mBefore, 1))
		if growth > res.MaxRoundGrowth {
			res.MaxRoundGrowth = growth
		}
	}
	res.E2Steps = d.r.StepCount() - e2Start

	// ---- E3: the writer runs solo into the CS. ----
	if err := d.r.ReleaseBarrier(writerID); err != nil {
		return nil, fmt.Errorf("lowerbound: releasing writer: %w", err)
	}
	if err := d.driveToBarrier(writerID); err != nil {
		return nil, fmt.Errorf("lowerbound: E3 writer: %w", err)
	}

	// ---- Measurements. ----
	totalExit := 0
	for rid := 0; rid < n; rid++ {
		acct := d.r.Account(rid)
		if len(acct.Passages) != 1 {
			return nil, fmt.Errorf("lowerbound: reader %d completed %d passages", rid, len(acct.Passages))
		}
		exitRMR := acct.Passages[0].ExitRMR
		totalExit += exitRMR
		if exitRMR > res.MaxReaderExitRMR {
			res.MaxReaderExitRMR = exitRMR
		}
		if exp := d.tr.ExpandingSteps(rid); exp > res.MaxReaderExitExpanding {
			res.MaxReaderExitExpanding = exp
		}
	}
	res.MeanReaderExitRMR = float64(totalExit) / float64(n)

	wAcct := d.r.Account(writerID)
	res.WriterEntryRMR = wAcct.SectionRMR[memmodel.SecEntry]
	res.WriterEntrySteps = wAcct.SectionSteps[memmodel.SecEntry]
	for rid := 0; rid < n; rid++ {
		if d.tr.AW(writerID).Contains(rid) {
			res.WriterAwareReaders++
		}
	}
	res.Lemma1Violations = len(d.tr.Lemma1Violations())
	return res, nil
}

// step executes one step of process id.
func (d *driver) step(id int) error {
	d.ctrl.Target = id
	progressed, err := d.r.Step()
	if err != nil {
		return err
	}
	if !progressed {
		return fmt.Errorf("process %d cannot step", id)
	}
	return nil
}

// driveToBarrier runs process id solo until it parks at its barrier.
func (d *driver) driveToBarrier(id int) error {
	for !d.r.IsAtBarrier(id) {
		if _, poised := d.r.PendingOf(id); !poised {
			return fmt.Errorf("process %d blocked before reaching its barrier (awaiting: %v)", id, d.r.Awaiting())
		}
		if err := d.step(id); err != nil {
			return err
		}
	}
	return nil
}

// allReadersDone reports whether every reader finished its passage.
func (d *driver) allReadersDone() bool {
	for rid := 0; rid < d.n; rid++ {
		if len(d.r.Account(rid).Passages) == 0 {
			return false
		}
	}
	return true
}

// expandingBatch collects the poised (necessarily expanding, after a
// completed drain) reader steps and orders them per Lemma 2: steps that
// preserve the accessed variable's value first, then writes, then
// value-changing CASes; ties broken by process id for determinism.
func (d *driver) expandingBatch() []int {
	type entry struct {
		rid   int
		class awareness.Class
	}
	var entries []entry
	for rid := 0; rid < d.n; rid++ {
		op, poised := d.r.PendingOf(rid)
		if !poised {
			continue
		}
		entries = append(entries, entry{rid, awareness.Classify(op, d.r.Value(op.Var))})
	}
	sort.Slice(entries, func(i, j int) bool {
		if entries[i].class != entries[j].class {
			return entries[i].class < entries[j].class
		}
		return entries[i].rid < entries[j].rid
	})
	out := make([]int, len(entries))
	for i, e := range entries {
		out[i] = e.rid
	}
	return out
}
