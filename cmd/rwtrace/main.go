// Command rwtrace runs a reader-writer lock scenario on the CC simulator
// and dumps the execution as a lane-per-process timeline plus per-process
// RMR accounts — the debugging view for any of the repository's
// algorithms.
//
// A seeded random scheduler picks the interleaving, or -path replays a
// choice path (as rmrall -e E16 reports a violation): the i-th number
// picks among the processes poised at step i, in ascending id order, and
// first choices follow once the path is used up.
//
// Usage:
//
//	rwtrace [-alg af-log] [-n 3] [-m 1] [-rp 1] [-wp 1] [-seed 7 | -path 0,1,0,...]
//	        [-protocol wt|wb|dsm] [-events 80] [-hide-sections]
package main

import (
	"flag"
	"fmt"
	"os"
	"slices"
	"strconv"
	"strings"

	"repro/internal/cliutil"
	"repro/internal/experiments"
	"repro/internal/explore"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/spec"
	"repro/internal/tablefmt"
	"repro/internal/trace"
	"repro/internal/tracefmt"
)

// config is one rwtrace invocation; seedSet reports that -seed was given.
type config struct {
	alg, path, protocol     string
	n, m, rp, wp, maxEvents int
	seed                    int64
	seedSet, hideSections   bool
}

func main() {
	var c config
	flag.StringVar(&c.alg, "alg", "af-log", "algorithm name")
	flag.IntVar(&c.n, "n", 3, "readers")
	flag.IntVar(&c.m, "m", 1, "writers")
	flag.IntVar(&c.rp, "rp", 1, "passages per reader")
	flag.IntVar(&c.wp, "wp", 1, "passages per writer")
	flag.Int64Var(&c.seed, "seed", 7, "random scheduler seed")
	flag.StringVar(&c.path, "path", "", "replay this comma-separated scheduler choice path (as E16 prints it) instead of a seeded schedule")
	flag.StringVar(&c.protocol, "protocol", "wt", "wt, wb or dsm")
	flag.IntVar(&c.maxEvents, "events", 80, "max events to print (tail kept)")
	flag.BoolVar(&c.hideSections, "hide-sections", false, "omit section transitions")
	flag.Parse()
	cliutil.NoArgs(flag.CommandLine)
	flag.Visit(func(f *flag.Flag) { c.seedSet = c.seedSet || f.Name == "seed" })

	if err := run(c); err != nil {
		fmt.Fprintln(os.Stderr, "rwtrace:", err)
		os.Exit(1)
	}
}

func parseProtocol(s string) (sim.Protocol, error) {
	switch strings.ToLower(s) {
	case "wt":
		return sim.WriteThrough, nil
	case "wb":
		return sim.WriteBack, nil
	case "dsm":
		return sim.DSM, nil
	default:
		return 0, fmt.Errorf("unknown protocol %q", s)
	}
}

func run(c config) error {
	facs, err := experiments.FactoriesNamed(c.alg)
	if err != nil {
		return err
	}
	proto, err := parseProtocol(c.protocol)
	if err != nil {
		return err
	}
	sc := spec.Scenario{
		NReaders: c.n, NWriters: c.m,
		ReaderPassages: c.rp, WriterPassages: c.wp,
		Protocol: proto,
	}

	var rep *spec.Report
	var events []trace.Event
	switch {
	case c.path == "":
		var rec trace.Recorder
		sc.Scheduler, sc.Observer = sched.NewRandom(c.seed), rec.Observe
		rep = spec.Run(facs[0].New(), sc)
		events = rec.Events()
	case c.seedSet:
		return fmt.Errorf("-path replays a fixed schedule and cannot be combined with -seed")
	default:
		var path []int
		for _, f := range strings.Split(c.path, ",") {
			choice, err := strconv.Atoi(strings.TrimSpace(f))
			if err != nil {
				return fmt.Errorf("-path %q: %q is not a choice index", c.path, f)
			}
			path = append(path, choice)
		}
		if rep, events, err = explore.Replay(facs[0].New, sc, path); err != nil {
			return err
		}
	}
	fmt.Printf("%s: %s — %d steps", rep.Algorithm, rep.Scenario, rep.Steps)
	if rep.OK() {
		fmt.Println(", no violations")
	} else {
		fmt.Printf("\nPROBLEMS:\n%s", rep.Failures())
	}

	table := tablefmt.New("process", "role", "total RMR", "steps", "worst passage RMR")
	for id, acct := range slices.Concat(rep.ReaderAccounts, rep.WriterAccounts) {
		role := "reader"
		if id >= c.n {
			role = "writer"
		}
		mx := acct.MaxPassage()
		table.AddRow(fmt.Sprintf("p%d", id), role,
			tablefmt.Itoa(acct.TotalRMR), tablefmt.Itoa(acct.TotalSteps),
			tablefmt.Itoa(mx.EntryRMR+mx.CSRMR+mx.ExitRMR))
	}
	fmt.Println(table)

	fmt.Println(tracefmt.Render(events, tracefmt.Options{
		NumProcs:     c.n + c.m,
		MaxEvents:    c.maxEvents,
		HideSections: c.hideSections,
		VarNames:     rep.VarNames,
	}))
	return nil
}
