// simulate: run a reader-writer lock inside the cache-coherent simulator
// and print the exact per-process RMR accounting — the measurement the
// paper's theorems are about and that native execution cannot observe.
//
// The example runs af-log with 4 readers and 1 writer under a seeded
// random schedule and prints, per process, the RMRs attributed to each
// passage section.
//
// Run with: go run ./examples/simulate
package main

import (
	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/memmodel"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/tablefmt"
	"repro/internal/trace"
	"repro/internal/tracefmt"
)

func main() {
	const (
		nReaders = 4
		nWriters = 1
		passages = 3
		seed     = 7
	)

	alg := core.New(core.FLog)
	var rec trace.Recorder
	r := sim.New(sim.Config{
		Protocol:  sim.WriteThrough,
		Scheduler: sched.NewRandom(seed),
		Observer:  rec.Observe,
	})
	defer r.Close()

	if err := alg.Init(r, nReaders, nWriters); err != nil {
		log.Fatalf("init: %v", err)
	}

	for rid := 0; rid < nReaders; rid++ {
		rid := rid
		r.AddProc(func(p sim.Proc) {
			for i := 0; i < passages; i++ {
				p.Section(memmodel.SecEntry)
				alg.ReaderEnter(p, rid)
				p.Section(memmodel.SecCS)
				p.Section(memmodel.SecExit)
				alg.ReaderExit(p, rid)
				p.Section(memmodel.SecRemainder)
			}
		})
	}
	r.AddProc(func(p sim.Proc) {
		for i := 0; i < passages; i++ {
			p.Section(memmodel.SecEntry)
			alg.WriterEnter(p, 0)
			p.Section(memmodel.SecCS)
			p.Section(memmodel.SecExit)
			alg.WriterExit(p, 0)
			p.Section(memmodel.SecRemainder)
		}
	})

	if err := r.Start(); err != nil {
		log.Fatalf("start: %v", err)
	}
	if err := r.Run(); err != nil {
		log.Fatalf("run: %v", err)
	}

	fmt.Printf("af-log, n=%d m=%d, %d passages each, random schedule (seed %d), %s\n",
		nReaders, nWriters, passages, seed, r.Protocol())
	fmt.Printf("f(n)=%d groups of K=%d readers; %d shared variables; %d total steps\n\n",
		alg.Groups(), alg.GroupSize(), r.NumVars(), r.StepCount())

	table := tablefmt.New("process", "role", "total RMR", "total steps",
		"worst entry RMR", "worst exit RMR", "worst passage RMR")
	for id := 0; id < nReaders+nWriters; id++ {
		role := "reader"
		if id >= nReaders {
			role = "writer"
		}
		acct := r.Account(id)
		mx := acct.MaxPassage()
		table.AddRow(fmt.Sprintf("p%d", id), role,
			tablefmt.Itoa(acct.TotalRMR), tablefmt.Itoa(acct.TotalSteps),
			tablefmt.Itoa(mx.EntryRMR), tablefmt.Itoa(mx.ExitRMR),
			tablefmt.Itoa(mx.EntryRMR+mx.CSRMR+mx.ExitRMR))
	}
	fmt.Println(table)

	fmt.Println("Theorem 18 predicts: writer entry ~Theta(f(n)) =",
		alg.Groups(), "and reader passage ~Theta(log K) =", alg.GroupSize(), "group size.")

	fmt.Println("\nFirst steps of the execution as a timeline (R read, W write,")
	fmt.Println("CAS!/CAS~ success/failure, aw await re-check, * = RMR):")
	events := rec.Events()
	if len(events) > 30 {
		events = events[:30]
	}
	names := make([]string, r.NumVars())
	for v := range names {
		names[v] = r.VarName(memmodel.Var(v))
	}
	fmt.Println(tracefmt.Render(events, tracefmt.Options{NumProcs: nReaders + nWriters, VarNames: names}))
}
