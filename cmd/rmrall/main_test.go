package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
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
	for _, want := range []string{`"E99"`, "E1,E2,E3a,E3b,E4,E5,E6,E8,E9,E10,E11,E12"} {
		if !strings.Contains(errOut, want) {
			t.Errorf("stderr %q missing %q", errOut, want)
		}
	}
}
