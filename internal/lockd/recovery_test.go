package lockd

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/lockd/durable"
	"repro/internal/lockd/wire"
)

// startDurable builds and serves a durable server on addr, waiting for
// recovery install (the epoch bump) to finish.
func startDurable(t *testing.T, addr, dir string) *Server {
	t.Helper()
	return startDurableConfig(t, durableConfig(addr, dir))
}

// durableConfig is the configuration startDurable serves.
func durableConfig(addr, dir string) Config {
	return Config{
		Addr:          addr,
		DataDir:       dir,
		Fsync:         "never", // kill -9 safety does not depend on fsync; keep the test fast
		Shards:        4,
		DefaultTTL:    400 * time.Millisecond,
		MinTTL:        50 * time.Millisecond,
		SweepInterval: 10 * time.Millisecond,
	}
}

// startDurableConfig is startDurable with a configuration of its own.
func startDurableConfig(t *testing.T, cfg Config) *Server {
	t.Helper()
	srv, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	go srv.Serve() //nolint:errcheck // exercised paths close cleanly or crash on purpose
	select {
	case <-srv.Ready():
	case <-time.After(5 * time.Second):
		t.Fatal("server never became ready")
	}
	return srv
}

// TestRecoveringStateServed holds recovery install at the gate and checks
// that the server answers (typed) instead of hanging, then serves once
// install completes.
func TestRecoveringStateServed(t *testing.T) {
	srv, err := New(Config{Addr: "127.0.0.1:0", DataDir: t.TempDir(), Fsync: "never"})
	if err != nil {
		t.Fatal(err)
	}
	gate := make(chan struct{})
	srv.installGate = gate
	go srv.Serve() //nolint:errcheck // closed at test end
	defer srv.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	_, err = Dial(ctx, srv.Addr().String(), Options{})
	if !errors.Is(err, ErrRecovering) {
		t.Fatalf("dial during recovery: got %v, want ErrRecovering", err)
	}

	close(gate)
	select {
	case <-srv.Ready():
	case <-time.After(5 * time.Second):
		t.Fatal("server never became ready after gate opened")
	}
	c, err := Dial(context.Background(), srv.Addr().String(), Options{})
	if err != nil {
		t.Fatalf("dial after recovery: %v", err)
	}
	defer c.Close()
	if c.Epoch() != 1 {
		t.Fatalf("fresh data dir epoch = %d, want 1", c.Epoch())
	}
}

// TestEpochFencingAcrossRestart is the core no-double-grant story: a
// write hold granted before a kill -9 is fenced by the restart — the
// resumed session keeps its lease and seq numbering but not the hold, a
// release quoting the stale token gets ErrEpochFenced, and the
// re-acquired grant's token strictly dominates the old one.
func TestEpochFencingAcrossRestart(t *testing.T) {
	dir := t.TempDir()
	srv := startDurable(t, "127.0.0.1:0", dir)
	addr := srv.Addr().String()

	c, err := Dial(context.Background(), addr, Options{TTL: 30 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Abandon()
	if c.Epoch() != 1 {
		t.Fatalf("first-boot epoch = %d, want 1", c.Epoch())
	}
	h, err := c.Acquire(context.Background(), "k", ModeWrite, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	oldTok := h.Passage
	if durable.TokenEpoch(oldTok) != 1 {
		t.Fatalf("pre-crash token epoch = %d, want 1", durable.TokenEpoch(oldTok))
	}
	oldSession := c.SessionID()

	srv.Crash()
	srv2 := startDurable(t, addr, dir)
	defer srv2.Close()
	if srv2.Epoch() != 2 {
		t.Fatalf("post-restart epoch = %d, want 2", srv2.Epoch())
	}

	c2, err := Dial(context.Background(), addr, Options{ResumeSession: oldSession})
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	if !c2.Resumed() {
		t.Fatal("session did not resume across the restart")
	}
	if c2.SessionID() != oldSession {
		t.Fatalf("resumed session id %s, want %s", c2.SessionID(), oldSession)
	}
	if c2.Epoch() != 2 {
		t.Fatalf("resumed client epoch = %d, want 2", c2.Epoch())
	}

	// The stale holder must be fenced, not silently accepted.
	err = c2.Release(context.Background(), "k", ModeWrite, oldTok)
	if !errors.Is(err, ErrEpochFenced) {
		t.Fatalf("stale-token release: got %v, want ErrEpochFenced", err)
	}

	// The hold is gone server-side, so the same key grants again — with a
	// strictly dominating token.
	h2, err := c2.Acquire(context.Background(), "k", ModeWrite, time.Second)
	if err != nil {
		t.Fatalf("re-acquire after fencing: %v", err)
	}
	if h2.Passage <= oldTok {
		t.Fatalf("post-restart token %#x does not dominate pre-crash token %#x", h2.Passage, oldTok)
	}
	if durable.TokenEpoch(h2.Passage) != 2 {
		t.Fatalf("post-restart token epoch = %d, want 2", durable.TokenEpoch(h2.Passage))
	}
	if err := h2.Release(context.Background()); err != nil {
		t.Fatalf("fresh release: %v", err)
	}

	// Fencing shows up in the ledger counters.
	st := srv2.Stats()
	var fencedW uint64
	for _, sh := range st.Shards {
		fencedW += sh.FencedWrite
	}
	if fencedW != 1 {
		t.Fatalf("fenced-write counter = %d, want 1", fencedW)
	}
	if st.Epoch != 2 {
		t.Fatalf("stats epoch = %d, want 2", st.Epoch)
	}
}

// TestTokensRestartEachEpoch: a shard's tokens count its write grants in
// the current epoch, across keys, and the count starts again at 1 after
// a restart, where the bumped epoch alone keeps every new token above
// every token minted before the crash. A read grant carries the shard's
// write count as it stands.
func TestTokensRestartEachEpoch(t *testing.T) {
	dir := t.TempDir()
	srv := startDurable(t, "127.0.0.1:0", dir)
	addr := srv.Addr().String()
	ctx := context.Background()
	keys := []string{"a"}
	for i := 0; len(keys) < 2; i++ {
		if k := fmt.Sprintf("b%d", i); srv.shardFor(k) == srv.shardFor(keys[0]) {
			keys = append(keys, k)
		}
	}

	c, err := Dial(ctx, addr, Options{TTL: 30 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Abandon()
	acquire := func(c *Client, key, mode string) uint64 {
		t.Helper()
		h, err := c.Acquire(ctx, key, mode, time.Second)
		if err != nil {
			t.Fatal(err)
		}
		if err := h.Release(ctx); err != nil {
			t.Fatal(err)
		}
		return h.Passage
	}
	var before []uint64
	for i, key := range []string{keys[0], keys[1], keys[0]} {
		tok := acquire(c, key, ModeWrite)
		if want := durable.MakeToken(1, uint64(i+1)); tok != want {
			t.Fatalf("write grant %d on %q: token %#x, want %#x", i+1, key, tok, want)
		}
		before = append(before, tok)
	}
	if tok, want := acquire(c, keys[1], ModeRead), durable.MakeToken(1, 3); tok != want {
		t.Fatalf("read grant after three writes: token %#x, want %#x", tok, want)
	}

	srv.Crash()
	srv2 := startDurable(t, addr, dir)
	defer srv2.Close()
	e := srv2.Epoch()
	if e != 2 {
		t.Fatalf("post-restart epoch %d, want 2", e)
	}
	c2, err := Dial(ctx, addr, Options{TTL: 30 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	tok := acquire(c2, keys[1], ModeWrite)
	if want := durable.MakeToken(e, 1); tok != want {
		t.Fatalf("first post-restart write token %#x, want %#x", tok, want)
	}
	for _, old := range before {
		if tok <= old {
			t.Fatalf("post-restart token %#x does not dominate pre-crash token %#x", tok, old)
		}
	}
	if tok, want := acquire(c2, keys[0], ModeWrite), durable.MakeToken(e, 2); tok != want {
		t.Fatalf("second post-restart write token %#x, want %#x", tok, want)
	}
}

// TestResumeContinuesSeqNumbering: the resumed session's MaxSeq keeps a
// reconnecting client's seqs above everything it used before the crash,
// so the restored at-most-once response cache can never answer a fresh
// request.
func TestResumeContinuesSeqNumbering(t *testing.T) {
	dir := t.TempDir()
	srv := startDurable(t, "127.0.0.1:0", dir)
	addr := srv.Addr().String()

	c, err := Dial(context.Background(), addr, Options{TTL: 30 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Abandon()
	var lastSeq uint64
	for i := 0; i < 5; i++ {
		h, aerr := c.Acquire(context.Background(), fmt.Sprintf("k%d", i), ModeWrite, time.Second)
		if aerr != nil {
			t.Fatal(aerr)
		}
		if rerr := h.Release(context.Background()); rerr != nil {
			t.Fatal(rerr)
		}
	}
	lastSeq = c.seq.Load()
	sid := c.SessionID()

	srv.Crash()
	srv2 := startDurable(t, addr, dir)
	defer srv2.Close()

	c2, err := Dial(context.Background(), addr, Options{ResumeSession: sid})
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	if !c2.Resumed() {
		t.Fatal("session did not resume")
	}
	if got := c2.seq.Load(); got < lastSeq {
		t.Fatalf("resumed client seq %d below pre-crash high water %d", got, lastSeq)
	}
	// And the resumed session still works end to end.
	h, err := c2.Acquire(context.Background(), "fresh", ModeWrite, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if err := h.Release(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// TestQueuedAcquireNotLogged: a queued waiter leaves nothing in the WAL,
// because no restart could restore it. One session holds a key, a second
// queues behind it and is granted on the release; the log must hold only
// epoch, hello, grant, resp and release records, and a restart must
// restore the same sessions and ledger counters.
func TestQueuedAcquireNotLogged(t *testing.T) {
	dir := t.TempDir()
	srv := startDurable(t, "127.0.0.1:0", dir)
	addr := srv.Addr().String()
	ctx := context.Background()

	var clients [2]*Client
	for i := range clients {
		c, err := Dial(ctx, addr, Options{TTL: 30 * time.Second})
		if err != nil {
			t.Fatal(err)
		}
		defer c.Abandon()
		clients[i] = c
	}
	h, err := clients[0].Acquire(ctx, "k", ModeWrite, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	queued := make(chan error, 1)
	go func() {
		h2, err := clients[1].Acquire(ctx, "k", ModeWrite, 5*time.Second)
		if err == nil {
			err = h2.Release(ctx)
		}
		queued <- err
	}()
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		n := 0
		for _, sh := range srv.Stats().Shards {
			n += sh.Queued
		}
		if n == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("the second acquire never queued")
		}
	}
	if err := h.Release(ctx); err != nil {
		t.Fatal(err)
	}
	if err := <-queued; err != nil {
		t.Fatalf("queued acquire and its release: %v", err)
	}

	before := srv.Stats()
	srv.Crash()
	shadow := srv.store.State()

	wal, err := os.ReadFile(filepath.Join(dir, "wal.log"))
	if err != nil {
		t.Fatal(err)
	}
	kinds := map[durable.RecordType]int{}
	body := wal[bytes.IndexByte(wal, '\n')+1:]
	if _, err := durable.ReadLog(bytes.NewReader(body), func(r *durable.Record) { kinds[r.Type]++ }); err != nil {
		t.Fatalf("ReadLog: %v", err)
	}
	for k, n := range kinds {
		switch k {
		case durable.RecEpoch, durable.RecHello, durable.RecGrant, durable.RecResp, durable.RecRelease:
		default:
			t.Errorf("WAL holds %d records of kind %d", n, k)
		}
	}
	if kinds[durable.RecGrant] != 2 || kinds[durable.RecRelease] != 2 {
		t.Errorf("WAL holds %d grants and %d releases, want 2 and 2", kinds[durable.RecGrant], kinds[durable.RecRelease])
	}

	srv2 := startDurable(t, addr, dir)
	defer srv2.Close()
	restored := srv2.store.State()
	if restored.Epoch != shadow.Epoch+1 {
		t.Errorf("restored epoch %d, want %d", restored.Epoch, shadow.Epoch+1)
	}
	if !reflect.DeepEqual(restored.Sessions, shadow.Sessions) || restored.Counters != shadow.Counters {
		t.Errorf("restart changed the durable state:\n got %+v\nwant %+v", restored, shadow)
	}
	after := srv2.Stats()
	if after.Sessions != before.Sessions {
		t.Errorf("restored %d sessions, want %d", after.Sessions, before.Sessions)
	}
	if got, want := ledgerTotals(after), ledgerTotals(before); got != want {
		t.Errorf("ledger totals %+v after the restart, want %+v", got, want)
	}
}

// ledgerTotals sums the ledger counters of st across its shards: after a
// restart shard 0 also carries the totals of earlier epochs, so only the
// sum is comparable.
func ledgerTotals(st wire.Stats) durable.Counters {
	var c durable.Counters
	for _, sh := range st.Shards {
		c.ReadGrants += sh.ReadGrants
		c.WriteGrants += sh.WriteGrants
		c.Releases += sh.Releases
		c.Revoked += sh.Revoked
		c.RevokedWrite += sh.RevokedWrite
		c.Fenced += sh.Fenced
		c.FencedWrite += sh.FencedWrite
	}
	return c
}

// TestRestartUnderOtherShardCount: nothing durable depends on the shard
// a key hashes to, so a data directory written by a 2-shard server (a
// snapshot and a WAL tail) restarts under 8 shards. The epoch rises by
// one, the write lock held at the crash is fenced, the ledger totals are
// the pre-crash ones plus that fencing, and the first new write token
// dominates every token minted before the crash.
func TestRestartUnderOtherShardCount(t *testing.T) {
	dir := t.TempDir()
	cfg := durableConfig("127.0.0.1:0", dir)
	cfg.Shards, cfg.SnapshotEvery = 2, 8
	srv := startDurableConfig(t, cfg)
	cfg.Addr = srv.Addr().String()
	ctx := context.Background()

	c, err := Dial(ctx, cfg.Addr, Options{TTL: 30 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Abandon()
	var before []uint64
	for i := 0; i < 6; i++ {
		h, err := c.Acquire(ctx, fmt.Sprintf("k%d", i), ModeWrite, time.Second)
		if err != nil {
			t.Fatal(err)
		}
		if err := h.Release(ctx); err != nil {
			t.Fatal(err)
		}
		before = append(before, h.Passage)
	}
	held, err := c.Acquire(ctx, "held", ModeWrite, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	before = append(before, held.Passage)
	epoch, pre := srv.Epoch(), ledgerTotals(srv.Stats())
	srv.Crash()
	if _, err := os.Stat(filepath.Join(dir, "snapshot.json")); err != nil {
		t.Fatalf("no snapshot before the restart: %v", err)
	}

	cfg.Shards = 8
	srv2 := startDurableConfig(t, cfg)
	defer srv2.Close()
	if got := srv2.Epoch(); got != epoch+1 {
		t.Fatalf("epoch after the restart %d, want %d", got, epoch+1)
	}
	st := srv2.Stats()
	want := pre
	want.Revoked++
	want.RevokedWrite++
	want.Fenced++
	want.FencedWrite++
	if got := ledgerTotals(st); got != want {
		t.Fatalf("ledger totals after the restart %+v, want %+v", got, want)
	}
	if len(st.Shards) != 8 {
		t.Fatalf("%d shards after the restart, want 8", len(st.Shards))
	}

	c2, err := Dial(ctx, cfg.Addr, Options{TTL: 30 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	h, err := c2.Acquire(ctx, "held", ModeWrite, time.Second)
	if err != nil {
		t.Fatalf("acquire of the fenced key: %v", err)
	}
	defer h.Release(ctx) //nolint:errcheck // the server closes at test end
	if durable.TokenEpoch(h.Passage) != epoch+1 {
		t.Fatalf("first new write token %#x has epoch %d, want %d", h.Passage, durable.TokenEpoch(h.Passage), epoch+1)
	}
	for _, old := range before {
		if h.Passage <= old {
			t.Fatalf("first new write token %#x does not dominate pre-crash token %#x", h.Passage, old)
		}
	}
}

// TestLedgerAcrossServerCrashes is the chaos gate: concurrent write
// traffic through three kill -9 / restart cycles on one data directory.
// Required invariants: every observed fencing token is globally unique
// per key (zero duplicated passages), the reconciled ledger loses nothing
// (every server-side write grant is observed or revoked/fenced), and the
// epoch increases by exactly one per restart.
func TestLedgerAcrossServerCrashes(t *testing.T) {
	dir := t.TempDir()
	srv := startDurable(t, "127.0.0.1:0", dir)
	addr := srv.Addr().String()

	var ledger Ledger

	stop := make(chan struct{})
	var wg sync.WaitGroup
	const workers = 8
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			key := fmt.Sprintf("k%d", id%4)
			var c *Client
			defer func() {
				if c != nil {
					c.Abandon()
				}
			}()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if c == nil {
					ctx, cancel := context.WithTimeout(context.Background(), time.Second)
					nc, err := Dial(ctx, addr, Options{TTL: 300 * time.Millisecond})
					cancel()
					if err != nil {
						time.Sleep(10 * time.Millisecond)
						continue
					}
					c = nc
				}
				ctx, cancel := context.WithTimeout(context.Background(), time.Second)
				h, err := c.Acquire(ctx, key, ModeWrite, 200*time.Millisecond)
				if err == nil {
					ledger.ObserveWrite(key, h.Passage)
					h.Release(ctx) //nolint:errcheck // lost acks are revoked by lease expiry
					cancel()
					continue
				}
				cancel()
				if errors.Is(err, ErrDisconnected) || errors.Is(err, ErrSessionExpired) || errors.Is(err, ErrRecovering) {
					c.Abandon()
					c = nil
					time.Sleep(10 * time.Millisecond)
				}
			}
		}(i)
	}

	const crashes = 3
	for i := 0; i < crashes; i++ {
		time.Sleep(250 * time.Millisecond)
		srv.Crash()
		srv = startDurable(t, addr, dir)
		want := uint64(2 + i)
		if got := srv.Epoch(); got != want {
			t.Errorf("epoch after crash %d = %d, want %d", i+1, got, want)
		}
	}
	time.Sleep(250 * time.Millisecond)
	close(stop)
	wg.Wait()

	// Let in-flight lease revocations settle before reconciling.
	time.Sleep(600 * time.Millisecond)
	st := srv.Stats()
	srv.Close()

	var grants, revokedW, fencedW uint64
	for _, sh := range st.Shards {
		grants += sh.WriteGrants
		revokedW += sh.RevokedWrite
		fencedW += sh.FencedWrite
	}
	counts := ledger.Counts()
	if counts.Dups != 0 {
		t.Fatalf("%d duplicated write passages across %d crashes", counts.Dups, crashes)
	}
	if lost := ledger.Lost(grants, revokedW); lost > 0 {
		t.Fatalf("ledger lost %d write passages (grants=%d observed-unique=%d revoked-write=%d fenced-write=%d)",
			lost, grants, counts.Unique, revokedW, fencedW)
	}
	if counts.Observed == 0 {
		t.Fatal("no passages completed under chaos")
	}
	if st.Epoch != uint64(1+crashes) {
		t.Fatalf("final epoch = %d, want %d", st.Epoch, 1+crashes)
	}
	t.Logf("chaos gate: grants=%d unique-observed=%d revoked-write=%d fenced-write=%d epoch=%d",
		grants, counts.Unique, revokedW, fencedW, st.Epoch)
}
