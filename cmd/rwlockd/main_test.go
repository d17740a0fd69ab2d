package main

import (
	"bytes"
	"context"
	"errors"
	"os"
	"strings"
	"syscall"
	"testing"
	"time"

	"repro/internal/lockd"
)

// startRun launches run with an injected signal channel and waits for the
// server to come up, returning its address, the signal channel, the exit
// code channel, and the output buffers.
func startRun(t *testing.T, args []string) (string, chan os.Signal, chan int, *bytes.Buffer, *bytes.Buffer) {
	t.Helper()
	sig := make(chan os.Signal, 2)
	ready := make(chan string, 1)
	code := make(chan int, 1)
	var out, errOut bytes.Buffer
	go func() {
		code <- run(args, sig, func(addr string) { ready <- addr }, &out, &errOut)
	}()
	select {
	case addr := <-ready:
		return addr, sig, code, &out, &errOut
	case c := <-code:
		t.Fatalf("run exited early with %d\nstdout: %s\nstderr: %s", c, out.String(), errOut.String())
		return "", nil, nil, nil, nil
	case <-time.After(5 * time.Second):
		t.Fatal("server never became ready")
		return "", nil, nil, nil, nil
	}
}

func waitExit(t *testing.T, code chan int) int {
	t.Helper()
	select {
	case c := <-code:
		return c
	case <-time.After(10 * time.Second):
		t.Fatal("run did not exit")
		return -1
	}
}

func TestServeAndCleanDrain(t *testing.T) {
	addr, sig, code, out, _ := startRun(t, []string{"-addr", "127.0.0.1:0", "-quiet"})

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	c, err := lockd.Dial(ctx, addr, lockd.Options{})
	if err != nil {
		t.Fatal(err)
	}
	h, err := c.Acquire(ctx, "svc", lockd.ModeWrite, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if err := h.Release(ctx); err != nil {
		t.Fatal(err)
	}
	c.Close()

	sig <- syscall.SIGTERM
	if c := waitExit(t, code); c != 0 {
		t.Fatalf("clean drain exited %d, want 0\nstdout: %s", c, out.String())
	}
	if !strings.Contains(out.String(), "drain complete, 0 leaked holds") {
		t.Fatalf("missing drain report in output:\n%s", out.String())
	}
}

func TestDrainRefusesNewAcquires(t *testing.T) {
	addr, sig, code, _, _ := startRun(t, []string{"-addr", "127.0.0.1:0", "-quiet", "-drain-timeout", "2s"})

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	c, err := lockd.Dial(ctx, addr, lockd.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Abandon()
	// Keep a hold alive so the drain waits instead of finishing instantly.
	h, err := c.Acquire(ctx, "held", lockd.ModeWrite, time.Second)
	if err != nil {
		t.Fatal(err)
	}

	sig <- syscall.SIGTERM
	// The drain refuses new acquires while it waits for the holder.
	var acqErr error
	for i := 0; i < 50; i++ {
		var late *lockd.Hold
		late, acqErr = c.TryAcquire(ctx, "late", lockd.ModeRead)
		if errors.Is(acqErr, lockd.ErrDraining) {
			break
		}
		if acqErr == nil {
			// Granted before the signal took effect: give it back, or the
			// drain would wait out its timeout on this hold and exit 1.
			if err := late.Release(ctx); err != nil {
				t.Fatal(err)
			}
		}
		time.Sleep(10 * time.Millisecond)
	}
	if !errors.Is(acqErr, lockd.ErrDraining) {
		t.Fatalf("acquire during drain: got %v, want ErrDraining", acqErr)
	}
	if err := h.Release(ctx); err != nil {
		t.Fatal(err)
	}
	if c := waitExit(t, code); c != 0 {
		t.Fatalf("drain after holder released exited %d, want 0", c)
	}
}

func TestDrainReportsLeakedHolds(t *testing.T) {
	addr, sig, code, _, errOut := startRun(t, []string{
		"-addr", "127.0.0.1:0", "-quiet", "-drain-timeout", "300ms", "-max-ttl", "60s",
	})

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	// A healthy client (heartbeating, so its lease never lapses) that sits
	// on a write hold past the drain deadline is a leak.
	c, err := lockd.Dial(ctx, addr, lockd.Options{TTL: 30 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Abandon()
	if _, err := c.Acquire(ctx, "stuck", lockd.ModeWrite, time.Second); err != nil {
		t.Fatal(err)
	}

	sig <- syscall.SIGTERM
	if c := waitExit(t, code); c != 1 {
		t.Fatalf("drain with a stuck hold exited %d, want 1\nstderr: %s", c, errOut.String())
	}
	if !strings.Contains(errOut.String(), "leaked holds") || !strings.Contains(errOut.String(), "stuck/w") {
		t.Fatalf("leak report missing from stderr:\n%s", errOut.String())
	}
}

func TestBadFlagExitsTwo(t *testing.T) {
	var out, errOut bytes.Buffer
	if c := run([]string{"-no-such-flag"}, make(chan os.Signal), nil, &out, &errOut); c != 2 {
		t.Fatalf("bad flag exited %d, want 2", c)
	}
}
