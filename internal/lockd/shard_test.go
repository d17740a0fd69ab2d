package lockd

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"repro/internal/fairness"
	"repro/internal/lockd/wire"
	"repro/internal/memmodel"
	"repro/internal/trace"
)

// newTestSession mints a session straight from the server's table, so a
// test can drive the shards without the wire protocol in between.
func newTestSession(srv *Server) *session {
	return srv.sessions.create(time.Hour, time.Now())
}

// queuedOn returns the length of key's wait queue (0 for no table).
func queuedOn(srv *Server, key string) int {
	sh := srv.shardFor(key)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if ls := sh.locks[key]; ls != nil {
		return len(ls.queue)
	}
	return 0
}

// liveTotals sums the live-table gauges over every shard.
func liveTotals(srv *Server) (locks, held, queued int) {
	for _, sh := range srv.Stats().Shards {
		locks += sh.Locks
		held += sh.Held
		queued += sh.Queued
	}
	return locks, held, queued
}

type acqResult struct {
	tok uint64
	err error
}

// startAcquire runs a blocking acquire in the background; its result
// arrives on the returned channel.
func startAcquire(srv *Server, sess *session, key, mode string) chan acqResult {
	res := make(chan acqResult, 1)
	go func() {
		tok, err := srv.shardFor(key).acquire(sess, key, mode, 30*time.Second)
		res <- acqResult{tok, err}
	}()
	return res
}

func recvResult(t *testing.T, res chan acqResult) acqResult {
	t.Helper()
	select {
	case r := <-res:
		return r
	case <-time.After(10 * time.Second):
		t.Fatal("queued acquire never completed")
		return acqResult{}
	}
}

// oracleWaiter and oracleKey model one key's strict-FIFO grant table.
type oracleWaiter struct {
	sess int
	mode string
	res  chan acqResult
}

type oracleKey struct {
	readers map[int]bool
	writer  int // session index, -1 for none
	queue   []*oracleWaiter
	lastTok uint64
	mon     *fairness.BypassMonitor
}

func (k *oracleKey) grantable(mode string) bool {
	if mode == wire.ModeWrite {
		return k.writer < 0 && len(k.readers) == 0
	}
	return k.writer < 0
}

// TestBypassMatchesMonitor is the differential oracle for the shards'
// per-waiter bypass counters: a seeded schedule of acquires, queued
// waits, tryacquires, timeouts and releases over a few hot keys, issued
// one step at a time (each step completes before the next), is mirrored into an independent FIFO model whose section
// transitions feed one fairness.BypassMonitor per key (readers are procs
// 0..nSess-1, writers nSess..2*nSess-1). After every step each shard's
// MaxReaderBypass/MaxWriterBypass must equal the monitors' readings.
func TestBypassMatchesMonitor(t *testing.T) {
	const (
		nSess = 24
		nOps  = 400
	)
	keys := []string{"hot-a", "hot-b", "hot-c", "hot-d"}
	for seed := int64(1); seed <= 8; seed++ {
		srv := startServer(t, Config{Shards: 2})
		rng := rand.New(rand.NewSource(seed))
		sess := make([]*session, nSess)
		for i := range sess {
			sess[i] = newTestSession(srv)
		}
		model := map[string]*oracleKey{}
		for _, k := range keys {
			model[k] = &oracleKey{readers: map[int]bool{}, writer: -1,
				mon: fairness.NewBypassMonitor(2*nSess, nSess)}
		}
		proc := func(s int, mode string) int {
			if mode == wire.ModeWrite {
				return nSess + s
			}
			return s
		}
		observe := func(k *oracleKey, p int, sec memmodel.Section) {
			k.mon.Observe(trace.Event{Proc: p, Section: sec, SectionChange: true})
		}
		fail := func(op int, format string, args ...any) {
			t.Helper()
			t.Fatalf("seed %d op %d: %s", seed, op, fmt.Sprintf(format, args...))
		}
		checkWrite := func(op int, k *oracleKey, w *oracleWaiter, tok uint64) {
			if w.mode != wire.ModeWrite {
				return
			}
			if tok <= k.lastTok {
				fail(op, "write token %#x not above %#x", tok, k.lastTok)
			}
			k.lastTok = tok
		}
		involved := func(k *oracleKey, s int) bool {
			if k.writer == s || k.readers[s] {
				return true
			}
			for _, w := range k.queue {
				if w.sess == s {
					return true
				}
			}
			return false
		}
		release := func(op int, key string, s int) {
			k := model[key]
			mode := wire.ModeRead
			if k.writer == s {
				mode = wire.ModeWrite
				k.writer = -1
			} else {
				delete(k.readers, s)
			}
			var granted []*oracleWaiter
			for len(k.queue) > 0 && k.grantable(k.queue[0].mode) {
				w := k.queue[0]
				k.queue = k.queue[1:]
				observe(k, proc(w.sess, w.mode), memmodel.SecCS)
				if w.mode == wire.ModeWrite {
					k.writer = w.sess
				} else {
					k.readers[w.sess] = true
				}
				granted = append(granted, w)
			}
			if err := srv.shardFor(key).release(sess[s], key, mode); err != nil {
				fail(op, "release %s/%s: %v", key, mode, err)
			}
			for _, w := range granted {
				r := recvResult(t, w.res)
				if r.err != nil {
					fail(op, "promoted %s/%s: %v", key, w.mode, r.err)
				}
				checkWrite(op, k, w, r.tok)
			}
			if got := queuedOn(srv, key); got != len(k.queue) {
				fail(op, "%s queue length %d, model %d", key, got, len(k.queue))
			}
		}
		check := func(op int) {
			for i, sh := range srv.shards {
				wantR, wantW := 0, 0
				for _, key := range keys {
					if srv.shardFor(key) == sh {
						wantR = max(wantR, model[key].mon.MaxReaderBypass())
						wantW = max(wantW, model[key].mon.MaxWriterBypass())
					}
				}
				st := sh.snapshotStats()
				if st.MaxReaderBypass != wantR || st.MaxWriterBypass != wantW {
					fail(op, "shard %d bypass r%d/w%d, monitor r%d/w%d",
						i, st.MaxReaderBypass, st.MaxWriterBypass, wantR, wantW)
				}
			}
		}

		for op := 0; op < nOps; op++ {
			key := keys[rng.Intn(len(keys))]
			k := model[key]
			s := rng.Intn(nSess)
			if k.writer == s || k.readers[s] {
				release(op, key, s)
				check(op)
				continue
			}
			if involved(k, s) {
				continue
			}
			mode := wire.ModeRead
			if rng.Intn(10) < 3 {
				mode = wire.ModeWrite
			}
			p := proc(s, mode)
			w := &oracleWaiter{sess: s, mode: mode}
			switch r := rng.Intn(10); {
			case len(k.queue) == 0 && k.grantable(mode):
				observe(k, p, memmodel.SecEntry)
				observe(k, p, memmodel.SecCS)
				tok, err := srv.shardFor(key).acquire(sess[s], key, mode, time.Second)
				if err != nil {
					fail(op, "instant %s/%s: %v", key, mode, err)
				}
				if mode == wire.ModeWrite {
					k.writer = s
				} else {
					k.readers[s] = true
				}
				checkWrite(op, k, w, tok)
			case r < 2: // tryacquire on a busy lock: never queued
				if _, err := srv.shardFor(key).acquire(sess[s], key, mode, 0); !errors.Is(err, ErrTimeout) {
					fail(op, "tryacquire %s/%s: %v, want ErrTimeout", key, mode, err)
				}
			case r < 4: // queued, then timed out with no grant in between
				observe(k, p, memmodel.SecEntry)
				observe(k, p, memmodel.SecRemainder)
				if _, err := srv.shardFor(key).acquire(sess[s], key, mode, time.Millisecond); !errors.Is(err, ErrTimeout) {
					fail(op, "timed-out %s/%s: %v, want ErrTimeout", key, mode, err)
				}
			default:
				observe(k, p, memmodel.SecEntry)
				k.queue = append(k.queue, w)
				w.res = startAcquire(srv, sess[s], key, mode)
				waitFor(t, 10*time.Second, func() bool { return queuedOn(srv, key) == len(k.queue) })
			}
			check(op)
		}
		// Wind down: releasing every holder eventually grants (and then
		// releases) every queued waiter.
		for op := nOps; ; op++ {
			progressed := false
			for _, key := range keys {
				k := model[key]
				for s := 0; s < nSess; s++ {
					if k.writer == s || k.readers[s] {
						release(op, key, s)
						check(op)
						progressed = true
					}
				}
			}
			if !progressed {
				break
			}
		}
		if locks, held, queued := liveTotals(srv); locks+held+queued != 0 {
			t.Fatalf("seed %d: after wind-down locks=%d held=%d queued=%d", seed, locks, held, queued)
		}
	}
}

// TestIdleGrantTablesReclaimed locks 10 000 distinct keys through every
// exit a grant table has — grant+release, tryacquire on a busy lock,
// queued timeout, lease-expiry revocation (of holds and of waiters), drain
// cancellation, promotion of an expired session's waiter, and an acquire
// by an expired session on a fresh key — in both modes, and requires that
// no grant table survives. A reclaimed key must keep minting strictly
// rising write tokens.
func TestIdleGrantTablesReclaimed(t *testing.T) {
	const nKeys = 10000
	srv := startServer(t, Config{})
	holder := newTestSession(srv)
	other := newTestSession(srv)
	victim := newTestSession(srv)
	acquire := func(s *session, key, mode string, wait time.Duration) (uint64, error) {
		return srv.shardFor(key).acquire(s, key, mode, wait)
	}
	mustAcquire := func(s *session, key, mode string) uint64 {
		t.Helper()
		tok, err := acquire(s, key, mode, time.Second)
		if err != nil {
			t.Fatalf("acquire %s/%s: %v", key, mode, err)
		}
		return tok
	}
	mustRelease := func(s *session, key, mode string) {
		t.Helper()
		if err := srv.shardFor(key).release(s, key, mode); err != nil {
			t.Fatalf("release %s/%s: %v", key, mode, err)
		}
	}
	// blocker returns the holder mode that makes a mode-m request wait.
	blocker := func(m string) string {
		if m == wire.ModeRead {
			return wire.ModeWrite
		}
		return wire.ModeRead
	}

	const (
		pathGrant = iota
		pathTry
		pathTimeout
		pathExpiry
		pathDrain
		pathExpiredPromote
		pathExpiredFresh
		nPaths
	)
	byPath := make([][]string, nPaths)
	modeOf := map[string]string{}
	for i := 0; i < nKeys; i++ {
		key := fmt.Sprintf("key-%d", i)
		path := (i / 2) % nPaths
		byPath[path] = append(byPath[path], key)
		modeOf[key] = []string{wire.ModeRead, wire.ModeWrite}[i%2]
	}

	// grant + release.
	var reKey string
	var reTok uint64
	for _, key := range byPath[pathGrant] {
		m := modeOf[key]
		tok := mustAcquire(other, key, m)
		if m == wire.ModeWrite && reKey == "" {
			reKey, reTok = key, tok
		}
		mustRelease(other, key, m)
	}

	// tryacquire on a busy lock.
	for _, key := range byPath[pathTry] {
		m := modeOf[key]
		mustAcquire(holder, key, blocker(m))
		if _, err := acquire(other, key, m, 0); !errors.Is(err, ErrTimeout) {
			t.Fatalf("tryacquire %s/%s: %v, want ErrTimeout", key, m, err)
		}
		mustRelease(holder, key, blocker(m))
	}

	// queued timeout: every waiter times out concurrently.
	for _, key := range byPath[pathTimeout] {
		mustAcquire(holder, key, blocker(modeOf[key]))
	}
	var wg sync.WaitGroup
	for _, key := range byPath[pathTimeout] {
		wg.Add(1)
		go func(key string) {
			defer wg.Done()
			if _, err := acquire(other, key, modeOf[key], time.Millisecond); !errors.Is(err, ErrTimeout) {
				t.Errorf("queued %s/%s: %v, want ErrTimeout", key, modeOf[key], err)
			}
		}(key)
	}
	wg.Wait()
	for _, key := range byPath[pathTimeout] {
		mustRelease(holder, key, blocker(modeOf[key]))
	}

	// drain cancellation, then the holders leave.
	var drained []chan acqResult
	for _, key := range byPath[pathDrain] {
		mustAcquire(holder, key, blocker(modeOf[key]))
		drained = append(drained, startAcquire(srv, other, key, modeOf[key]))
	}
	waitFor(t, 10*time.Second, func() bool { return queuedTotal(srv) == len(drained) })
	for _, sh := range srv.shards {
		sh.cancelAllWaiters(ErrDraining)
	}
	for _, res := range drained {
		if r := recvResult(t, res); !errors.Is(r.err, ErrDraining) {
			t.Fatalf("drained waiter: %v, want ErrDraining", r.err)
		}
	}
	for _, key := range byPath[pathDrain] {
		mustRelease(holder, key, blocker(modeOf[key]))
	}

	// lease expiry: the victim holds half of these keys and waits on the
	// other half (behind the holder); the promote path is armed with
	// victim waiters whose holder releases only after the expiry.
	expiry := byPath[pathExpiry]
	var revoked []chan acqResult
	for i, key := range expiry {
		if i%2 == 0 {
			mustAcquire(victim, key, modeOf[key])
			continue
		}
		mustAcquire(holder, key, blocker(modeOf[key]))
		revoked = append(revoked, startAcquire(srv, victim, key, modeOf[key]))
	}
	var promoted []chan acqResult
	for _, key := range byPath[pathExpiredPromote] {
		mustAcquire(holder, key, blocker(modeOf[key]))
		promoted = append(promoted, startAcquire(srv, victim, key, modeOf[key]))
	}
	waitFor(t, 10*time.Second, func() bool { return queuedTotal(srv) == len(revoked)+len(promoted) })
	// Mark the victim expired without revoking, as the sweeper does between
	// its scan and the revocation pass: the promote path must then refuse
	// it the grant and still reclaim the table.
	victim.mu.Lock()
	victim.expired = true
	victim.mu.Unlock()
	for _, key := range byPath[pathExpiredPromote] {
		mustRelease(holder, key, blocker(modeOf[key]))
	}
	for _, res := range promoted {
		if r := recvResult(t, res); !errors.Is(r.err, ErrRevoked) {
			t.Fatalf("expired session's promoted waiter: %v, want ErrRevoked", r.err)
		}
	}
	// The victim's other waiters are still queued: revoke them with its
	// holds, exactly as the lease sweeper would.
	srv.revokeSession(victim, "lease expired")
	for _, res := range revoked {
		if r := recvResult(t, res); !errors.Is(r.err, ErrRevoked) {
			t.Fatalf("revoked waiter: %v, want ErrRevoked", r.err)
		}
	}
	for i, key := range expiry {
		if i%2 == 1 {
			mustRelease(holder, key, blocker(modeOf[key]))
		}
	}

	// an expired session on fresh keys.
	for _, key := range byPath[pathExpiredFresh] {
		if _, err := acquire(victim, key, modeOf[key], time.Second); !errors.Is(err, ErrSessionExpired) {
			t.Fatalf("expired acquire %s: %v, want ErrSessionExpired", key, err)
		}
	}

	if locks, held, queued := liveTotals(srv); locks+held+queued != 0 {
		t.Fatalf("after every exit path: locks=%d held=%d queued=%d, want 0", locks, held, queued)
	}
	if tok := mustAcquire(other, reKey, wire.ModeWrite); tok <= reTok {
		t.Fatalf("reclaimed %s re-minted token %#x, not above %#x", reKey, tok, reTok)
	}
}
