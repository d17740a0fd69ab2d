package cliutil

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"testing"

	"repro/internal/parwork"
)

// TestNoArgs checks the flags-only contract shared by every cmd/ binary:
// positional operands exit with status 2 (matching the flag package's own
// bad-flag exit), clean invocations pass through.
func TestNoArgs(t *testing.T) {
	exitCode := -1
	exit = func(code int) { exitCode = code }
	defer func() { exit = os.Exit }()

	fs := flag.NewFlagSet("toolname", flag.ContinueOnError)
	var usageCalled bool
	fs.Usage = func() { usageCalled = true }
	var out strings.Builder
	fs.SetOutput(&out)
	if err := fs.Parse(nil); err != nil {
		t.Fatal(err)
	}
	NoArgs(fs)
	if exitCode != -1 {
		t.Fatalf("NoArgs exited (%d) without positional args", exitCode)
	}

	if err := fs.Parse([]string{"stray"}); err != nil {
		t.Fatal(err)
	}
	NoArgs(fs)
	if exitCode != 2 {
		t.Errorf("exit code = %d, want 2", exitCode)
	}
	if !usageCalled {
		t.Error("usage not printed")
	}
	if msg := out.String(); !strings.Contains(msg, "stray") || !strings.Contains(msg, "toolname") {
		t.Errorf("diagnostic %q does not name the tool and the stray argument", msg)
	}
}

// TestFail checks the sweep exit-status contract: a cooperative
// interruption exits 3 and advertises -resume when a checkpoint is in
// play; everything else exits 1.
func TestFail(t *testing.T) {
	exitCode := -1
	exit = func(code int) { exitCode = code }
	defer func() { exit = os.Exit }()

	captureStderr := func(fn func()) string {
		old := os.Stderr
		r, w, err := os.Pipe()
		if err != nil {
			t.Fatal(err)
		}
		os.Stderr = w
		fn()
		w.Close()
		os.Stderr = old
		buf, err := io.ReadAll(r)
		if err != nil {
			t.Fatal(err)
		}
		return string(buf)
	}

	msg := captureStderr(func() { Fail("tool", errors.New("boom")) })
	if exitCode != 1 || !strings.Contains(msg, "tool: boom") {
		t.Errorf("plain error: exit %d, msg %q", exitCode, msg)
	}

	interrupted := fmt.Errorf("E15: %w", &parwork.InterruptedError{Done: 2, Total: 5})
	resumableHint = false
	msg = captureStderr(func() { Fail("tool", interrupted) })
	if exitCode != 3 || strings.Contains(msg, "-resume") {
		t.Errorf("interrupted without checkpoint: exit %d, msg %q", exitCode, msg)
	}

	resumableHint = true
	defer func() { resumableHint = false }()
	msg = captureStderr(func() { Fail("tool", interrupted) })
	if exitCode != 3 || !strings.Contains(msg, "resumable, rerun with -resume") {
		t.Errorf("interrupted with checkpoint: exit %d, msg %q", exitCode, msg)
	}
}
