package main

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"hash"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/lowerbound"
	"repro/internal/memmodel"
	"repro/internal/parwork"
	"repro/internal/recoverable"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/spec"
)

// The simulator workloads run fixed constructions: their correctness
// gates compare against results recorded at the commit that added this
// benchmark, so their inputs cannot vary with the seed.

// advN is the reader count of the sim-adversary construction.
const advN = 243

// The simulator workloads time set-up in batches of stand-ups (see
// standUp): setup_s is the median, over setupBatches batches, of a
// batch's time per stand-up. One stand-up of the sweep scenario takes
// tens of microseconds, too short to time alone; a batch takes about
// 10 ms on either workload, and all batches together about two seconds,
// long enough to average the host's swings of a second or so: with 60
// batches, sim-adversary's setup_s spread by 0.18 of its median over ten
// runs.
//
// setupWorkers stand-ups run at once, one per P, so that every batch
// runs on both vCPUs of the host: the two vCPUs of the host the
// benchmark was tuned on ran this code at speeds up to 1.5x apart, and
// a thread can sit on one of them for seconds.
const (
	setupBatches    = 200
	setupWorkers    = 2
	advSetupBatch   = 20
	sweepSetupBatch = 500
)

// advWant is lowerbound.Run's result for A_f with f = log at n = 243
// under write-through, as recorded when the benchmark was added.
var advWant = lowerbound.Result{
	R:                      9,
	MaxReaderExitRMR:       24,
	WriterEntryRMR:         27,
	Lemma1Violations:       0,
	WriterAwareReaders:     advN,
	E2Steps:                8269,
	MaxReaderExitExpanding: 9,
}

func adversaryOp() (*lowerbound.Result, error) {
	return lowerbound.Run(core.New(core.FLog), advN, lowerbound.Config{Protocol: sim.WriteThrough})
}

// standUp is the set-up of one simulated execution, done through the
// simulator's public API as lowerbound.Run and every sweep row do it
// before their first step: a fresh algorithm instance allocates its
// shared state on a new runner, one process per reader and writer is
// added, and Start launches each process goroutine and lets it run to
// its first shared-memory step. Close then ends the execution.
func standUp(alg memmodel.Algorithm, readers, writers int) error {
	r := sim.New(sim.Config{Protocol: sim.WriteThrough})
	defer r.Close()
	if err := alg.Init(r, readers, writers); err != nil {
		return err
	}
	for rid := 0; rid < readers; rid++ {
		rid := rid
		r.AddProc(func(p sim.Proc) { alg.ReaderEnter(p, rid) })
	}
	for wid := 0; wid < writers; wid++ {
		wid := wid
		r.AddProc(func(p sim.Proc) { alg.WriterEnter(p, wid) })
	}
	return r.Start()
}

// standUpTime times set-up in batches of batch calls of up, made by
// setupWorkers goroutines at once, and returns the median batch time per
// call.
func standUpTime(e *env, batch int, up func() error) (float64, error) {
	_, perBatch, err := setupMedian(e, setupBatches, nil, func() (struct{}, error) {
		var wg sync.WaitGroup
		errs := make([]error, setupWorkers)
		for w := range errs {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := 0; i < batch/setupWorkers; i++ {
					if err := up(); err != nil {
						errs[w] = err
						return
					}
				}
			}(w)
		}
		wg.Wait()
		return struct{}{}, errors.Join(errs...)
	}, func(struct{}) {})
	return perBatch / float64(batch), err
}

// checkAdversary compares a construction's result with advWant.
func checkAdversary(res *lowerbound.Result) error {
	got := [...]int{res.R, res.MaxReaderExitRMR, res.WriterEntryRMR, res.Lemma1Violations,
		res.WriterAwareReaders, res.E2Steps, res.MaxReaderExitExpanding}
	want := [...]int{advWant.R, advWant.MaxReaderExitRMR, advWant.WriterEntryRMR, advWant.Lemma1Violations,
		advWant.WriterAwareReaders, advWant.E2Steps, advWant.MaxReaderExitExpanding}
	if got != want {
		return fmt.Errorf("%w: lowerbound.Run (R, max exit RMR, writer entry RMR, Lemma 1 violations, aware readers, E2 steps, max exit expanding) = %v, want %v",
			errGate, got, want)
	}
	return nil
}

// runAdversary is the sim-adversary workload: one Theorem-5 construction
// per operation, closed loop, one caller.
func runAdversary(e *env) (*report, error) {
	// Set-up: standing up the construction's execution, A_f with 243
	// readers and one writer.
	setupS, err := standUpTime(e, advSetupBatch, func() error {
		return standUp(core.New(core.FLog), advN, 1)
	})
	if err != nil {
		return nil, err
	}
	rep := &report{setupS: setupS, layers: map[string]float64{}}
	var last *lowerbound.Result
	for _, traced := range e.phases() {
		var tr *tracer
		if traced {
			tr = newTracer()
		}
		ph := closedLoop(1, e.phaseDur(), func(_, i int) error {
			start := time.Now()
			res, err := adversaryOp()
			tr.record("lowerbound.Run", "", int64(i), start, time.Now())
			if err != nil {
				return err
			}
			last = res
			return checkAdversary(res)
		})
		if !traced {
			rep.untraced = ph
			continue
		}
		rep.traced = ph
		if last != nil {
			rep.layers["lowerbound.e2_steps"] = float64(last.E2Steps)
			rep.layers["lowerbound.iterations"] = float64(last.R)
			rep.layers["lowerbound.ns_per_e2_step"] = percentile(rep.untraced.lat, 50) / float64(last.E2Steps)
		}
		rep.layers["self.lowerbound_run_ms_per_op"] = ms(tr.selfNS("lowerbound.Run")) / float64(len(ph.lat))
		if err := tr.write(e.tracePath("sim-adversary")); err != nil {
			return nil, err
		}
	}
	return rep, nil
}

// sweepWorkers is the parwork worker count of sim-fault-sweep.
const sweepWorkers = 2

// sweepScenario is rwbench's sweep scenario: 2 readers and 2 writers, 2
// passages each, one extra read inside each critical section.
var sweepScenario = spec.Scenario{NReaders: 2, NWriters: 2, ReaderPassages: 2, WriterPassages: 2,
	CSReads: 1, Parallel: sweepWorkers}

// sweepDigestWant is the SHA-256 of the rendered outcomes of one
// sim-fault-sweep operation, as recorded when the benchmark was added.
const sweepDigestWant = "aa82a4760fba570b6e0654a7e1c96430f910f17a89d426f960bda16fcb0be410"

// sweepRowsWant is the number of outcomes one operation yields.
const sweepRowsWant = 731

// countingSched delegates to a scheduler and counts its picks. It defines
// Name and Next only, so wrapping never makes a policy sched.OpAware.
type countingSched struct {
	inner sched.Scheduler
	timed bool
	picks int64
	ns    int64
}

func (c *countingSched) Name() string { return c.inner.Name() }

func (c *countingSched) Next(step int, poised []int) int {
	c.picks++
	if !c.timed {
		return c.inner.Next(step, poised)
	}
	t0 := time.Now()
	p := c.inner.Next(step, poised)
	c.ns += int64(time.Since(t0))
	return p
}

// schedPool makes the counting round-robin schedulers of one sweep and
// sums their counts once the sweep has returned. The sweep calls make
// from several workers; each scheduler is then used by one runner only.
type schedPool struct {
	timed bool
	mu    sync.Mutex
	made  []*countingSched
}

func (p *schedPool) make() sched.Scheduler {
	c := &countingSched{inner: sched.NewRoundRobin(), timed: p.timed}
	p.mu.Lock()
	p.made = append(p.made, c)
	p.mu.Unlock()
	return c
}

// drain returns the picks and pick time of every scheduler made since
// the last drain.
func (p *schedPool) drain() (picks, ns int64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, c := range p.made {
		picks += c.picks
		ns += c.ns
	}
	p.made = nil
	return picks, ns
}

func renderInto[T any](h hash.Hash, outs []T) {
	for i, o := range outs {
		fmt.Fprintf(h, "%d: %+v\n", i, o)
	}
}

// sweepOp runs one sim-fault-sweep operation: exhaustive crash and stall
// sweeps of A_f (f = log) and the recovery sweep of recoverable A_f, all
// with victim 0 under round-robin. pool, when non-nil, supplies counting
// schedulers (nil runs the sweeps' default round-robin). It returns the
// digest of the rendered outcomes and the number of rows.
func sweepOp(pool *schedPool, tr *tracer, op int64) (string, int, error) {
	afLog := func() memmodel.Algorithm { return core.New(core.FLog) }
	recAF := func() memmodel.RecoverableAlgorithm { return recoverable.NewAF(core.FLog) }
	var mk func() sched.Scheduler
	if pool != nil {
		mk = pool.make
	}
	h := sha256.New()
	rows := 0
	call := func(name string, sweep func() (int, error)) error {
		start := time.Now()
		n, err := sweep()
		tr.record(name, "", op, start, time.Now())
		if pool != nil {
			picks, ns := pool.drain()
			tr.recordAgg("sched.Next", name, picks, float64(ns), sweepWorkers)
		}
		rows += n
		return err
	}
	if err := call("spec.CrashSweep", func() (int, error) {
		outs, err := spec.CrashSweep(afLog, sweepScenario, 0, mk)
		renderInto(h, outs)
		return len(outs), err
	}); err != nil {
		return "", 0, err
	}
	if err := call("spec.StallSweep", func() (int, error) {
		outs, err := spec.StallSweep(afLog, sweepScenario, 0, mk)
		renderInto(h, outs)
		return len(outs), err
	}); err != nil {
		return "", 0, err
	}
	if err := call("spec.RecoverySweep", func() (int, error) {
		outs, err := spec.RecoverySweep(recAF, sweepScenario, 0, 0, mk)
		for i, o := range outs {
			fmt.Fprintf(h, "%d: %+v\n", i, *o)
		}
		return len(outs), err
	}); err != nil {
		return "", 0, err
	}
	return hex.EncodeToString(h.Sum(nil)), rows, nil
}

func checkSweep(digest string, rows int) error {
	if digest != sweepDigestWant || rows != sweepRowsWant {
		return fmt.Errorf("%w: fault sweep digest %s over %d rows, want %s over %d",
			errGate, digest, rows, sweepDigestWant, sweepRowsWant)
	}
	return nil
}

// runFaultSweep is the sim-fault-sweep workload: one set of exhaustive
// fault sweeps per operation, closed loop, parwork at two workers.
func runFaultSweep(e *env) (*report, error) {
	// Set-up: standing up one execution of the scenario for each of the
	// two algorithms the sweeps run.
	setupS, err := standUpTime(e, sweepSetupBatch, func() error {
		nr, nw := sweepScenario.NReaders, sweepScenario.NWriters
		if err := standUp(core.New(core.FLog), nr, nw); err != nil {
			return err
		}
		return standUp(recoverable.NewAF(core.FLog), nr, nw)
	})
	if err != nil {
		return nil, err
	}
	rep := &report{setupS: setupS, layers: map[string]float64{}}
	for _, traced := range e.phases() {
		var (
			tr       *tracer
			pool     *schedPool
			picks    []int64
			lastRows int
		)
		if traced {
			tr = newTracer()
			pool = &schedPool{timed: true}
		}
		before := parwork.ReadStats()
		ph := closedLoop(1, e.phaseDur(), func(_, i int) error {
			p0 := tr.count("sched.Next")
			d, rows, err := sweepOp(pool, tr, int64(i))
			if traced {
				picks = append(picks, tr.count("sched.Next")-p0)
			}
			if err != nil {
				return err
			}
			lastRows = rows
			return checkSweep(d, rows)
		})
		st := parwork.ReadStats().Sub(before)
		n := float64(len(ph.lat))
		if !traced {
			rep.untraced = ph
			rep.layers["spec.rows_per_op"] = float64(lastRows)
			rep.layers["spec.ms_per_row"] = ms(percentile(ph.lat, 50)) / float64(lastRows)
			rep.layers["parwork.chunks_per_op"] = float64(st.Chunks) / n
			rep.layers["parwork.steals_per_op"] = float64(st.Steals) / n
			rep.layers["parwork.idle_probes_per_op"] = float64(st.IdleProbes) / n
			if st.Steals+st.IdleProbes > 0 {
				rep.layers["parwork.steal_hit_ratio"] = float64(st.Steals) / float64(st.Steals+st.IdleProbes)
			}
			continue
		}
		rep.traced = ph
		for _, p := range picks {
			if p != picks[0] {
				fmt.Fprintf(e.log, "perfbench: sched.steps_per_op moved between operations: %v\n", picks)
				break
			}
		}
		if len(picks) > 0 {
			steps := float64(picks[0])
			rep.layers["sched.steps_per_op"] = steps
			rep.layers["sched.ns_per_pick"] = tr.selfNS("sched.Next") / float64(tr.count("sched.Next"))
			rep.layers["sim.busy_ns_per_step"] = rep.untraced.cpuNS / float64(len(rep.untraced.lat)) / steps
		}
		sweeps := tr.selfNS("spec.CrashSweep") + tr.selfNS("spec.StallSweep") + tr.selfNS("spec.RecoverySweep")
		rep.layers["self.spec_sweeps_ms_per_op"] = ms(sweeps) / n
		rep.layers["self.sched_next_ms_per_op"] = ms(tr.selfNS("sched.Next")/sweepWorkers) / n
		if err := tr.write(e.tracePath("sim-fault-sweep")); err != nil {
			return nil, err
		}
	}
	return rep, nil
}
