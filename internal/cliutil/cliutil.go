// Package cliutil holds the small flag-parsing helpers shared by the cmd/
// binaries.
package cliutil

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/parwork"
)

// ParallelFlag registers the shared -parallel flag. The returned apply
// function must be called after flag.Parse: it installs the chosen worker
// count as the process-wide sweep default (parwork.SetDefault), so every
// sweep and experiment grid in the invocation fans out across it. 0 (the
// default) selects GOMAXPROCS; 1 forces serial execution. Results are
// byte-identical at every worker count.
func ParallelFlag() (apply func()) {
	n := flag.Int("parallel", 0,
		"sweep worker count (0 = GOMAXPROCS, 1 = serial; results identical either way)")
	return func() { parwork.SetDefault(*n) }
}

// exit is swapped out by tests.
var exit = os.Exit

// NoArgs enforces that a parsed flag set received no positional arguments.
// The cmd/ binaries take configuration through flags only; a stray operand
// is almost always a mistyped flag, so it is reported and the process
// exits with the same status code the flag package uses for bad flags (2).
func NoArgs(fs *flag.FlagSet) {
	if fs.NArg() == 0 {
		return
	}
	fmt.Fprintf(fs.Output(), "%s: unexpected argument %q (flags only)\n", fs.Name(), fs.Arg(0))
	fs.Usage()
	Exit(2)
}
