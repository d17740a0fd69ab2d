package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestMain doubles as the rmrall binary when RMRALL_ARGS is set, so the
// tests below drive the real flag parsing and exit codes in a subprocess.
func TestMain(m *testing.M) {
	if args, ok := os.LookupEnv("RMRALL_ARGS"); ok {
		os.Args = append([]string{"rmrall"}, strings.Fields(args)...)
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// rmrall runs the command with args and returns its stdout, stderr and
// exit code.
func rmrall(t *testing.T, args ...string) (stdout, stderr string, code int) {
	t.Helper()
	cmd := exec.Command(os.Args[0])
	cmd.Env = append(os.Environ(), "RMRALL_ARGS="+strings.Join(args, " "))
	var out, errOut bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errOut
	err := cmd.Run()
	var exitErr *exec.ExitError
	switch {
	case err == nil:
	case errors.As(err, &exitErr):
		code = exitErr.ExitCode()
	default:
		t.Fatal(err)
	}
	return out.String(), errOut.String(), code
}

// TestSelectionOrder checks that -e prints exactly the named tables, in
// the order given rather than registry order.
func TestSelectionOrder(t *testing.T) {
	out, errOut, code := rmrall(t, "-quick", "-e", "E3b,E1,E4")
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errOut)
	}
	headers := regexp.MustCompile(`(?m)^=== (E\w+):`).FindAllStringSubmatch(out, -1)
	var got []string
	for _, h := range headers {
		got = append(got, h[1])
	}
	if strings.Join(got, ",") != "E3b,E1,E4" {
		t.Errorf("printed tables %v, want [E3b E1 E4]", got)
	}
	for _, want := range []string{"af-1", "centralized", "writer entry RMR"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q", want)
		}
	}
}

// TestUnknownNameExits2 checks that a bad -e name is a usage error: exit
// 2, the valid names listed, and no table printed.
func TestUnknownNameExits2(t *testing.T) {
	out, errOut, code := rmrall(t, "-quick", "-e", "E1,E99")
	if code != 2 {
		t.Errorf("exit %d, want 2", code)
	}
	if out != "" {
		t.Errorf("printed tables before rejecting the list:\n%s", out)
	}
	for _, want := range []string{`"E99"`, "E1,E2,E3a,E3b,E4,E5,E6,E8,E9,E10,E11,E12,E13,E14,E15"} {
		if !strings.Contains(errOut, want) {
			t.Errorf("stderr %q missing %q", errOut, want)
		}
	}
}

// gatePasses runs the named tables on their full grids and checks that
// every gate holds (exit 0), that each wanted line or column is printed,
// and that no cell reports a failure.
func gatePasses(t *testing.T, names string, want ...string) {
	t.Helper()
	out, errOut, code := rmrall(t, "-e", names)
	if code != 0 {
		t.Fatalf("exit %d: %s\n%s", code, errOut, out)
	}
	for _, w := range want {
		if !strings.Contains(out, w) {
			t.Errorf("output missing %q", w)
		}
	}
	if strings.Contains(out, "FAIL") {
		t.Errorf("%s reported failures:\n%s", names, out)
	}
}

// TestE6Passes runs the property matrix over seeds 1-5: Mutual
// Exclusion, progress, reader overlap and Bounded Exit all hold.
func TestE6Passes(t *testing.T) {
	gatePasses(t, "E6", "=== E6:", "mutual exclusion", "reader overlap", "bounded exit")
}

// TestE13CrashSweep runs the crash-stop sweep and the abort-cost table;
// their gates must pass.
func TestE13CrashSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("crash sweep is a full exhaustive enumeration")
	}
	gatePasses(t, "E13", "=== E13:", "crash-stop sweep (", "crash section",
		"abort cost of one failing try attempt", "reader abort rmr")
}

// TestE14RecoverSweep runs the crash-recovery sweep; its gate must pass.
func TestE14RecoverSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("recovery sweep is a full exhaustive enumeration")
	}
	gatePasses(t, "E14", "=== E14:", "crash-recovery sweep (", "crash section", "resumed cs")
}

// TestE15StallSweep runs the fail-slow tables: the stall sweep, reader
// liveness with its mutex-rw negative control, and the crash+stall mix;
// every liveness gate must pass.
func TestE15StallSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("stall sweep is a full exhaustive enumeration")
	}
	gatePasses(t, "E15", "=== E15:", "fail-slow stall sweep (", "stall section", "max rd byp",
		"reader liveness under", "negative control", "doomed readers",
		"sampled crash+stall mixed sweep")
}

// TestInterruptResume drives a checkpointed E15 run that stops after 25
// rows as if interrupted: it must exit 3 and say it is resumable, and
// -resume must then print exactly what an uninterrupted serial run does.
func TestInterruptResume(t *testing.T) {
	ck := filepath.Join(t.TempDir(), "ck.json")
	_, errOut, code := rmrall(t, "-e", "E15", "-parallel", "2", "-checkpoint", ck, "-interrupt-after", "25")
	if code != 3 {
		t.Fatalf("interrupted run exited %d, want 3: %s", code, errOut)
	}
	if !strings.Contains(errOut, "resumable, rerun with -resume") {
		t.Errorf("interrupted run did not advertise resumability: %s", errOut)
	}
	if fi, err := os.Stat(ck); err != nil || fi.Size() == 0 {
		t.Fatalf("no checkpoint was flushed: %v", err)
	}
	resumed, errOut, code := rmrall(t, "-e", "E15", "-parallel", "2", "-checkpoint", ck, "-resume")
	if code != 0 {
		t.Fatalf("resumed run exited %d: %s", code, errOut)
	}
	serial, errOut, code := rmrall(t, "-e", "E15", "-parallel", "1")
	if code != 0 {
		t.Fatalf("serial run exited %d: %s", code, errOut)
	}
	if resumed != serial {
		t.Errorf("resumed output differs from the uninterrupted serial run:\n--- resumed\n%s\n--- serial\n%s", resumed, serial)
	}
}
