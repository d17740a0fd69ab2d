// Robust-sweep flags: the -checkpoint/-resume/-keep-going/-row-timeout
// surface of rmrall's sweeps and model check. Like ParallelFlag, the flags
// install a process-wide default (spec.SetDefaultRobust) so every sweep in
// the invocation inherits the chosen behaviors.
package cliutil

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"

	"repro/internal/checkpoint"
	"repro/internal/parwork"
	"repro/internal/spec"
)

// resumableHint is set once a checkpoint file is in play, so Fail can tell
// the user an interrupted sweep is resumable.
var resumableHint bool

// RobustFlags registers the shared robust-sweep flags. The returned apply
// function must be called after flag.Parse: it validates the combination,
// opens the checkpoint store, installs the process-wide robust default
// (spec.SetDefaultRobust) and wires SIGINT/SIGTERM to cooperative
// cancellation — the first signal stops workers from claiming new rows
// and flushes a final checkpoint, a second one exits immediately. With no
// robust flag set it is a no-op and sweeps run exactly as before.
func RobustFlags() (apply func() error) {
	ckPath := flag.String("checkpoint", "",
		"checkpoint file: record completed sweep rows so an interrupted run can resume")
	resume := flag.Bool("resume", false,
		"resume from -checkpoint FILE, recomputing only rows it is missing (the file must exist and match the sweep configuration)")
	keepGoing := flag.Bool("keep-going", false,
		"isolate row failures: report a panicking or timed-out sweep row and continue instead of aborting")
	rowTimeout := flag.Duration("row-timeout", 0,
		"wall-clock deadline per sweep row; a row exceeding it is reported as stuck (0 = none)")
	interruptAfter := flag.Int("interrupt-after", 0,
		"stop the sweep after N computed rows as if interrupted (testing hook; 0 = never)")
	return func() error {
		if *resume && *ckPath == "" {
			return errors.New("-resume requires -checkpoint FILE")
		}
		ro := &spec.RobustOptions{KeepGoing: *keepGoing, RowTimeout: *rowTimeout}
		if *ckPath != "" {
			st, err := checkpoint.Open(*ckPath, *resume)
			if err != nil {
				return err
			}
			// Flush immediately: an unwritable path must fail now, not
			// hours into the sweep at the first periodic flush.
			if err := st.Flush(); err != nil {
				return err
			}
			ro.Store = st
			resumableHint = true
		}
		if ro.Store == nil && !ro.KeepGoing && ro.RowTimeout <= 0 && *interruptAfter <= 0 {
			return nil
		}
		ro.Stop = parwork.NewStopper()
		if n := *interruptAfter; n > 0 {
			ro.AfterRow = func(done int) {
				if done >= n {
					ro.Stop.Stop()
				}
			}
		}
		notifyStop(ro.Stop)
		spec.SetDefaultRobust(ro)
		return nil
	}
}

// notifyStop wires SIGINT/SIGTERM to the stopper: first signal cancels
// cooperatively, second aborts the process (130, shell convention for
// death by SIGINT).
func notifyStop(stop *parwork.Stopper) {
	ch := make(chan os.Signal, 2)
	signal.Notify(ch, os.Interrupt, syscall.SIGTERM)
	go handleSignals(ch, stop)
}

// handleSignals is notifyStop's body, split out so tests can drive it
// through an injected channel: the first signal stops the sweep
// cooperatively and tells the user how to abort; the second exits 130.
func handleSignals(ch <-chan os.Signal, stop *parwork.Stopper) {
	<-ch
	stop.Stop()
	fmt.Fprintln(os.Stderr, "interrupt: finishing in-flight rows and flushing the checkpoint (interrupt again to abort)")
	<-ch
	Exit(130)
}

// Fail reports a fatal sweep error and exits: status 3 for a cooperative
// interruption (resumable when a checkpoint file is in play), 1 for
// everything else.
func Fail(tool string, err error) {
	var ie *parwork.InterruptedError
	if errors.As(err, &ie) {
		hint := ""
		if resumableHint {
			hint = " (resumable, rerun with -resume)"
		}
		fmt.Fprintf(os.Stderr, "%s: %v%s\n", tool, err, hint)
		Exit(3)
		return
	}
	fmt.Fprintf(os.Stderr, "%s: %v\n", tool, err)
	Exit(1)
}
