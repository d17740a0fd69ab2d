// Command rmrall regenerates the simulator experiment tables of
// EXPERIMENTS.md from the experiments registry, E1-E16 except native
// throughput (E7, cmd/rwbench). Every table checks the claims it shows:
// the command exits 1 if one fails (E6, E13-E15 and the model check E16
// are the pass/fail gates; rwtrace -path replays an E16 violation).
//
// The fault sweeps and E16 are crash-safe: with -checkpoint FILE completed
// rows are recorded durably, SIGINT/SIGTERM stops the sweep cooperatively
// (exit status 3), and -resume picks up where the interrupted run stopped
// with byte-identical final output. -keep-going reports a panicking row
// and continues; a row that never finishes ends on its step budget.
//
// Usage:
//
//	rmrall [-e E2,E11] [-quick] [-parallel N]
//	       [-checkpoint FILE [-resume]] [-keep-going]
//	       [-cpuprofile FILE] [-memprofile FILE]
//
// -e names the tables to print, in the order given (default: all, in
// registry order). An unknown name exits 2 with the valid names listed.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/cliutil"
	"repro/internal/experiments"
)

func main() {
	names := flag.String("e", "", "comma-separated tables to print, in order (default all: "+strings.Join(allNames(), ",")+")")
	quick := flag.Bool("quick", false, "smaller grids (faster)")
	applyParallel := cliutil.ParallelFlag()
	applyRobust := cliutil.RobustFlags()
	applyProfile := cliutil.ProfileFlags()
	flag.Parse()
	cliutil.NoArgs(flag.CommandLine)
	applyParallel()

	entries, err := selectEntries(*names)
	if err != nil {
		fmt.Fprintln(os.Stderr, "rmrall:", err)
		cliutil.Exit(2)
	}
	if err := applyRobust(); err != nil {
		cliutil.Fail("rmrall", err)
	}
	if err := applyProfile(); err != nil {
		cliutil.Fail("rmrall", err)
	}
	if err := run(entries, *quick); err != nil {
		cliutil.Fail("rmrall", err)
	}
	cliutil.Exit(0)
}

func allNames() []string {
	var names []string
	for _, e := range experiments.Registry() {
		names = append(names, e.Name)
	}
	return names
}

// selectEntries resolves a comma-separated -e list against the registry,
// keeping the order given; an empty list selects every entry.
func selectEntries(list string) ([]experiments.Entry, error) {
	reg := experiments.Registry()
	if strings.TrimSpace(list) == "" {
		return reg, nil
	}
	byName := make(map[string]experiments.Entry, len(reg))
	for _, e := range reg {
		byName[e.Name] = e
	}
	var out []experiments.Entry
	for _, name := range strings.Split(list, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		e, ok := byName[name]
		if !ok {
			return nil, fmt.Errorf("unknown experiment %q (valid: %s)", name, strings.Join(allNames(), ","))
		}
		out = append(out, e)
	}
	return out, nil
}

func run(entries []experiments.Entry, quick bool) error {
	for _, e := range entries {
		fmt.Printf("=== %s: %s\n", e.Name, e.Title)
		table, err := e.Run(quick)
		if err != nil {
			return err
		}
		fmt.Println(table)
	}
	return nil
}
