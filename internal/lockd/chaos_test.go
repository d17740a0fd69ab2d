package lockd

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestChaosLeaseExpiryRegrant is the core robustness gate: a client is
// killed (kill -9 style: no release, no heartbeats) while holding the
// write lock mid-passage, and the lock must be re-granted to a live
// waiter once the lease expires — within a small multiple of the TTL.
func TestChaosLeaseExpiryRegrant(t *testing.T) {
	const ttl = 150 * time.Millisecond
	srv := startServer(t, Config{MinTTL: 50 * time.Millisecond, SweepInterval: 10 * time.Millisecond})
	ctx := ctxT(t)

	victim := dialT(t, srv, Options{TTL: ttl})
	vh, err := victim.Acquire(ctx, "regrant", ModeWrite, time.Second)
	if err != nil {
		t.Fatal(err)
	}

	survivor := dialT(t, srv, Options{TTL: 2 * time.Second})
	killed := make(chan time.Time, 1)
	go func() {
		time.Sleep(30 * time.Millisecond) // mid-passage
		victim.Abandon()
		killed <- time.Now()
	}()
	h, err := survivor.Acquire(ctx, "regrant", ModeWrite, 10*time.Second)
	if err != nil {
		t.Fatalf("survivor never got the lock: %v", err)
	}
	since := time.Since(<-killed)
	// The lease must lapse (>= TTL since the last victim request) but the
	// re-grant must land promptly after; 10x TTL is generous slack for a
	// loaded -race CI box while still catching a wedged sweeper.
	if since > 10*ttl {
		t.Fatalf("re-grant took %v after the kill; lease expiry is wedged (ttl %v)", since, ttl)
	}
	if h.Passage <= vh.Passage {
		t.Fatalf("fencing token did not advance: victim %d, survivor %d", vh.Passage, h.Passage)
	}
	if err := h.Release(ctx); err != nil {
		t.Fatal(err)
	}
}

// TestChaosRetryConvergence floods a chaotic transport (drop, duplicate,
// delay, disconnect on both directions) with concurrent clients and
// checks the system converges: passages keep completing, no write passage
// token is ever observed twice (at-most-once), and the final server
// ledger accounts for every write grant as either client-observed or
// lease-revoked.
func TestChaosRetryConvergence(t *testing.T) {
	srv := startServer(t, Config{
		MinTTL:        50 * time.Millisecond,
		SweepInterval: 10 * time.Millisecond,
	})
	addr := srv.Addr().String()

	chaos := ChaosConfig{
		Seed:       42,
		Drop:       0.05,
		Dup:        0.05,
		Delay:      0.10,
		MaxDelay:   15 * time.Millisecond,
		Disconnect: 0.002,
	}

	const (
		workers = 8
		runFor  = 2 * time.Second
	)
	keys := []string{"alpha", "beta", "gamma"}
	var ledger Ledger
	var reads atomic.Int64
	// passages picks the next key and mode from the passages completed
	// so far.
	passages := func() int { return int(ledger.Counts().Observed) + int(reads.Load()) }
	deadline := time.Now().Add(runFor)

	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			dialer := ChaosDialer(chaos, nil) // distinct rng stream per worker is fine: seed is shared, streams diverge by schedule
			var c *Client
			defer func() {
				if c != nil {
					c.Abandon()
				}
			}()
			for time.Now().Before(deadline) {
				if c == nil {
					ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
					nc, err := Dial(ctx, addr, Options{
						TTL:             300 * time.Millisecond,
						RetransmitAfter: 30 * time.Millisecond,
						Dialer:          dialer,
					})
					cancel()
					if err != nil {
						time.Sleep(20 * time.Millisecond)
						continue
					}
					c = nc
				}
				key := keys[(id+passages())%len(keys)]
				mode := ModeRead
				if (id+passages())%3 == 0 {
					mode = ModeWrite
				}
				ctx, cancel := context.WithTimeout(context.Background(), 3*time.Second)
				h, err := c.Acquire(ctx, key, mode, 500*time.Millisecond)
				if err == nil {
					if mode == ModeWrite {
						ledger.ObserveWrite(key, h.Passage)
					} else {
						reads.Add(1)
					}
					h.Release(ctx) //nolint:errcheck // chaos may eat the ack; lease expiry cleans up
					cancel()
					continue
				}
				cancel()
				switch {
				case errors.Is(err, ErrDisconnected), errors.Is(err, ErrSessionExpired):
					c.Abandon()
					c = nil
					time.Sleep(10 * time.Millisecond)
				case errors.Is(err, ErrTimeout), errors.Is(err, ErrShed), errors.Is(err, ErrRevoked):
					time.Sleep(5 * time.Millisecond)
				default:
					t.Errorf("unexpected acquire error: %v", err)
					return
				}
			}
		}(i)
	}
	wg.Wait()

	counts := ledger.Counts()
	if counts.Dups != 0 {
		t.Fatalf("duplicated write passages: %d (at-most-once violated)", counts.Dups)
	}
	if counts.Observed == 0 || reads.Load() == 0 {
		t.Fatalf("no convergence under chaos: %d writes, %d reads completed", counts.Observed, reads.Load())
	}

	// Let in-flight revocations settle, then reconcile the ledger over a
	// clean (chaos-free) connection: every server-side write grant must be
	// either client-observed or revoked by lease expiry — zero passages
	// simply lost. (An observed hold whose release ack was eaten is later
	// also revoked, so observed+revoked can exceed grants; it can never
	// fall short.)
	time.Sleep(500 * time.Millisecond)
	ctx := ctxT(t)
	clean, err := Dial(ctx, addr, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer clean.Close()
	st, err := clean.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	var grants, revokedW uint64
	for _, sh := range st.Shards {
		grants += sh.WriteGrants
		revokedW += sh.RevokedWrite
	}
	if lost := ledger.Lost(grants, revokedW); lost > 0 {
		t.Fatalf("lost write passages: grants=%d observed=%d revoked=%d -> %d unaccounted",
			grants, counts.Unique, revokedW, lost)
	}
	t.Logf("chaos converged: %d reads, %d unique write passages, grants=%d revoked=%d",
		reads.Load(), counts.Unique, grants, revokedW)
}

// TestChaosDuplicateTransport checks the dedup layer end to end under a
// duplicate-heavy, otherwise lossless transport: every message delivered
// twice must not double-grant or double-release.
func TestChaosDuplicateTransport(t *testing.T) {
	srv := startServer(t, Config{})
	ctx := ctxT(t)
	dialer := ChaosDialer(ChaosConfig{Seed: 7, Dup: 1.0}, nil)
	c, err := Dial(ctx, srv.Addr().String(), Options{Dialer: dialer, RetransmitAfter: 50 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	for i := 0; i < 20; i++ {
		h, err := c.Acquire(ctx, "dup-heavy", ModeWrite, time.Second)
		if err != nil {
			t.Fatalf("passage %d: %v", i, err)
		}
		if err := h.Release(ctx); err != nil {
			t.Fatalf("release %d: %v", i, err)
		}
	}
	var grants, releases uint64
	for _, sh := range srv.Stats().Shards {
		grants += sh.WriteGrants
		releases += sh.Releases
	}
	if grants != 20 || releases != 20 {
		t.Fatalf("grants/releases = %d/%d under duplication, want 20/20", grants, releases)
	}
}

// TestChaosDropRecovery: a drop-heavy transport still converges because
// the client retransmits with the same seq and the server answers
// retransmits from the response cache.
func TestChaosDropRecovery(t *testing.T) {
	srv := startServer(t, Config{})
	ctx := ctxT(t)
	dialer := ChaosDialer(ChaosConfig{Seed: 11, Drop: 0.25}, nil)
	c, err := Dial(ctx, srv.Addr().String(), Options{
		Dialer:          dialer,
		TTL:             2 * time.Second,
		RetransmitAfter: 20 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Abandon()

	var last uint64
	for i := 0; i < 10; i++ {
		h, err := c.Acquire(ctx, "droppy", ModeWrite, 2*time.Second)
		if err != nil {
			t.Fatalf("passage %d: %v", i, err)
		}
		if h.Passage <= last {
			t.Fatalf("passage %d: token %d not past %d (duplicate grant?)", i, h.Passage, last)
		}
		last = h.Passage
		if err := h.Release(ctx); err != nil {
			t.Fatalf("release %d: %v", i, err)
		}
	}
}

// TestChaosDrainUnderFaults: SIGTERM-style drain completes with zero
// leaked holds even while a chaotic client population is mid-flight,
// because live holders release (or their leases expire) within the drain
// deadline.
func TestChaosDrainUnderFaults(t *testing.T) {
	srv := startServer(t, Config{
		MinTTL:        50 * time.Millisecond,
		SweepInterval: 10 * time.Millisecond,
	})
	addr := srv.Addr().String()
	dialer := ChaosDialer(ChaosConfig{Seed: 3, Drop: 0.05, Dup: 0.05}, nil)

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			ctx := context.Background()
			c, err := Dial(ctx, addr, Options{TTL: 200 * time.Millisecond, RetransmitAfter: 20 * time.Millisecond, Dialer: dialer})
			if err != nil {
				return
			}
			defer c.Abandon()
			for n := 0; ; n++ {
				select {
				case <-stop:
					return
				default:
				}
				key := fmt.Sprintf("drain-%d", n%3)
				cctx, cancel := context.WithTimeout(ctx, time.Second)
				h, err := c.Acquire(cctx, key, ModeWrite, 200*time.Millisecond)
				if err == nil {
					h.Release(cctx) //nolint:errcheck // lease expiry cleans up lost acks
				}
				cancel()
				if err != nil && (errors.Is(err, ErrDisconnected) || errors.Is(err, ErrSessionExpired)) {
					return
				}
				if err != nil && errors.Is(err, ErrDraining) {
					return
				}
			}
		}(i)
	}

	time.Sleep(300 * time.Millisecond) // let traffic build
	leaked := srv.Drain(5 * time.Second)
	close(stop)
	wg.Wait()
	if len(leaked) != 0 {
		t.Fatalf("drain leaked %d holds under chaos: %+v", len(leaked), leaked)
	}
}
