// Package lockd implements rwlockd: a fault-tolerant named reader-writer
// lock service and its client. The failure model mirrors the simulator's
// (see DESIGN.md): a crash-stopped client is a session whose lease
// expires, a fail-slow client is one whose heartbeats arrive late, and
// recovery is reconnect-and-reacquire under a fresh session. Locks are
// sharded namespaces of grant tables, kept only while a lock is held or
// queued on; each shard counts its write passages so every grant carries
// a fencing token, and every queued waiter counts the grants that
// overtake it, so fairness is measured live.
package lockd

import (
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/lockd/durable"
	"repro/internal/lockd/wire"
)

// Config parameterizes a Server. Zero values select the defaults.
type Config struct {
	// Addr is the TCP listen address ("127.0.0.1:0" for an ephemeral
	// test port).
	Addr string
	// Shards is the number of lock-namespace partitions (default 8). No
	// durable state depends on it, so a data directory restarts under any
	// value.
	Shards int
	// DefaultTTL is the session lease granted when hello does not request
	// one; MinTTL/MaxTTL clamp requested TTLs (defaults 5s, 50ms, 60s).
	DefaultTTL, MinTTL, MaxTTL time.Duration
	// SweepInterval is the lease-expiry scan period (default 25ms).
	SweepInterval time.Duration
	// MaxQueue bounds each named lock's wait queue; an acquire beyond it
	// is shed with ErrShed instead of queued (default 128).
	MaxQueue int
	// MaxWait clamps the server-side acquire deadline (default 30s).
	MaxWait time.Duration
	// DataDir, when set, makes the server durable: service state (leases,
	// holds, ledger counters, response caches) is logged to a WAL plus
	// periodic snapshots under this directory, and a restart replays them,
	// bumps the server epoch, and fences every pre-crash hold. Empty means
	// in-memory only (epoch pinned at 1).
	DataDir string
	// Fsync selects the WAL sync policy for a durable server: "always",
	// "interval" (default; a background sync every 5ms), or "never".
	Fsync string
	// SnapshotEvery is the number of WAL records between snapshot
	// rotations (default 4096).
	SnapshotEvery int
	// Logf, when set, receives server event logs.
	Logf func(format string, args ...any)
}

func (c *Config) applyDefaults() {
	if c.Addr == "" {
		c.Addr = "127.0.0.1:0"
	}
	if c.Shards <= 0 {
		c.Shards = 8
	}
	if c.DefaultTTL <= 0 {
		c.DefaultTTL = 5 * time.Second
	}
	if c.MinTTL <= 0 {
		c.MinTTL = 50 * time.Millisecond
	}
	if c.MaxTTL <= 0 {
		c.MaxTTL = 60 * time.Second
	}
	if c.SweepInterval <= 0 {
		c.SweepInterval = 25 * time.Millisecond
	}
	if c.MaxQueue <= 0 {
		c.MaxQueue = 128
	}
	if c.MaxWait <= 0 {
		c.MaxWait = 30 * time.Second
	}
	if c.Logf == nil {
		c.Logf = func(string, ...any) {}
	}
}

// Server is the rwlockd service.
type Server struct {
	cfg      Config
	ln       net.Listener
	shards   []*shard
	sessions *sessionTable
	draining atomic.Bool
	closed   atomic.Bool

	// Durability. store is nil for an in-memory server. epoch is the
	// server epoch folded into every fencing token; it is 1 in-memory and
	// bumped-on-every-restart for a durable server. ready gates request
	// service: until recovery install completes, every request is answered
	// CodeRecovering. readyCh closes when ready flips. installGate, when
	// non-nil, stalls the install goroutine until it is closed (test hook
	// for observing the recovering state).
	store       *durable.Store
	recovery    *durable.RecoveryInfo
	epoch       atomic.Uint64
	ready       atomic.Bool
	readyCh     chan struct{}
	installGate chan struct{}
	installErr  atomic.Pointer[error]

	wg        sync.WaitGroup // conn handlers + sweeper
	sweepStop chan struct{}

	connMu sync.Mutex
	conns  map[net.Conn]struct{} //rwguard:connMu
}

// New opens the data directory (when durable), binds the listener, and
// builds the shard tables; call Serve to start accepting. For a durable
// server, the WAL replay already ran when New returns (RecoveryInfo has
// the summary) but the recovered state is installed — and the epoch
// bumped — by Serve; until then requests are answered CodeRecovering.
func New(cfg Config) (*Server, error) {
	cfg.applyDefaults()
	s := &Server{
		cfg:       cfg,
		sessions:  newSessionTable(),
		sweepStop: make(chan struct{}),
		readyCh:   make(chan struct{}),
		conns:     map[net.Conn]struct{}{},
	}
	if cfg.DataDir != "" {
		pol := durable.FsyncPolicy("")
		if cfg.Fsync != "" {
			var err error
			if pol, err = durable.ParseFsyncPolicy(cfg.Fsync); err != nil {
				return nil, err
			}
		}
		store, info, err := durable.Open(cfg.DataDir, durable.Options{
			Fsync:         pol,
			SnapshotEvery: cfg.SnapshotEvery,
		})
		if err != nil {
			return nil, err
		}
		s.store, s.recovery = store, info
	} else {
		s.epoch.Store(1)
		s.ready.Store(true)
		close(s.readyCh)
	}
	ln, err := net.Listen("tcp", cfg.Addr)
	if err != nil {
		if s.store != nil {
			s.store.Close() //nolint:errcheck // listener failure is the error that matters
		}
		return nil, fmt.Errorf("lockd: listen %s: %w", cfg.Addr, err)
	}
	s.ln = ln
	s.shards = make([]*shard, cfg.Shards)
	for i := range s.shards {
		s.shards[i] = newShard(s)
	}
	return s, nil
}

// RecoveryInfo returns the durable-recovery summary (nil for an in-memory
// server).
func (s *Server) RecoveryInfo() *durable.RecoveryInfo { return s.recovery }

// Epoch returns the server epoch. It is meaningful once Ready() closed
// (always, for an in-memory server).
func (s *Server) Epoch() uint64 { return s.epoch.Load() }

// Ready returns a channel that closes once the server is serving: for a
// durable server, after recovery install (epoch bump + state restore).
func (s *Server) Ready() <-chan struct{} { return s.readyCh }

// logAppend records one WAL record when the server is durable. An append
// failure (disk full, I/O error) is logged loudly and serving continues:
// availability wins, and safety survives the degradation — the next
// restart's epoch bump dominates any token whose grant record was lost.
func (s *Server) logAppend(rec *durable.Record) {
	if s.store == nil {
		return
	}
	if err := s.store.Append(rec); err != nil {
		s.cfg.Logf("WAL append failed (durability degraded): %v", err)
	}
}

// install finishes durable recovery: it durably bumps the epoch (fencing
// every replayed hold — the shadow apply clears them and counts them
// revoked+fenced), installs the post-bump state into the session table,
// restores the ledger totals into shard 0 (the durable state keeps one
// ledger, not one per shard, so a restart under another shard count is
// safe), and flips ready. It runs once, from Serve.
func (s *Server) install() {
	if gate := s.installGate; gate != nil {
		<-gate
	}
	epoch, err := s.store.BumpEpoch()
	if err != nil {
		err = fmt.Errorf("lockd: recovery epoch bump: %w", err)
		s.installErr.Store(&err)
		s.cfg.Logf("%v", err)
		s.Close() //nolint:errcheck // the install error is the one reported
		return
	}
	st := s.store.State()
	s.sessions.restore(st)
	s.shards[0].restore(st.Counters)
	s.epoch.Store(epoch)
	s.ready.Store(true)
	close(s.readyCh)
	s.cfg.Logf("recovery complete: %d sessions restored, serving epoch %d", len(st.Sessions), epoch)
}

// Addr returns the bound listen address.
func (s *Server) Addr() net.Addr { return s.ln.Addr() }

// shardFor maps a key to its shard.
func (s *Server) shardFor(key string) *shard {
	h := fnv.New32a()
	h.Write([]byte(key))
	return s.shards[h.Sum32()%uint32(len(s.shards))]
}

// Serve runs the lease sweeper and the accept loop until Close. For a
// durable server it also kicks off recovery install; until that finishes,
// connections are accepted but every request is answered CodeRecovering.
// It returns nil on a clean shutdown, or the install error if recovery
// failed.
func (s *Server) Serve() error {
	if s.store != nil && !s.ready.Load() {
		// Outside the WaitGroup: a gated install must not deadlock Close.
		go s.install()
	}
	s.wg.Add(1)
	go s.sweepLoop()
	for {
		c, err := s.ln.Accept()
		if err != nil {
			if s.closed.Load() {
				if ep := s.installErr.Load(); ep != nil {
					return *ep
				}
				return nil
			}
			return fmt.Errorf("lockd: accept: %w", err)
		}
		s.connMu.Lock()
		s.conns[c] = struct{}{}
		s.connMu.Unlock()
		s.wg.Add(1)
		go s.handleConn(c)
	}
}

// sweepLoop periodically expires sessions whose lease lapsed, revoking
// their holds and cancelling their queued waiters. The interval is
// jittered ±25% per tick: after a restart every restored lease shares
// roughly the same deadline, and a fixed-phase sweeper would revoke them
// all in one burst — the jitter (and the per-session deadlines themselves)
// smears that revocation storm across sweeps.
func (s *Server) sweepLoop() {
	defer s.wg.Done()
	select {
	case <-s.sweepStop:
		return
	case <-s.readyCh:
		// No sweeping before recovery install: the table is empty until
		// restore, and restored leases must get their full remaining TTL.
	}
	for {
		d := time.Duration((0.75 + 0.5*rand.Float64()) * float64(s.cfg.SweepInterval))
		timer := time.NewTimer(d)
		select {
		case <-s.sweepStop:
			timer.Stop()
			return
		case now := <-timer.C:
			for _, sess := range s.sessions.expire(now) {
				s.revokeSession(sess, "lease expired")
			}
		}
	}
}

// revokeSession tears down an expired session: queued waiters get
// ErrRevoked, holds are released and their queues promoted. The expire
// record is logged first, so a crash mid-revocation replays as a
// completed expiry rather than a half-revoked session.
func (s *Server) revokeSession(sess *session, why string) {
	s.logAppend(&durable.Record{Type: durable.RecExpire, Session: sess.id})
	holds, waiters := sess.snapshotForRevoke()
	for _, w := range waiters {
		s.shardFor(w.ls.key).cancelWaiter(w, ErrRevoked)
	}
	for _, h := range holds {
		s.shardFor(h.key).revokeHold(sess, h.key, h.mode)
	}
	if len(holds) > 0 || len(waiters) > 0 {
		s.cfg.Logf("session %s: %s; revoked %d holds, %d waiters",
			sess.id, why, len(holds), len(waiters))
	}
}

// clampTTL applies the configured lease bounds to a requested TTL.
func (s *Server) clampTTL(ms int64) time.Duration {
	ttl := s.cfg.DefaultTTL
	if ms > 0 {
		ttl = time.Duration(ms) * time.Millisecond
	}
	if ttl < s.cfg.MinTTL {
		ttl = s.cfg.MinTTL
	}
	if ttl > s.cfg.MaxTTL {
		ttl = s.cfg.MaxTTL
	}
	return ttl
}

// connWriter serializes response writes on a connection. Write errors are
// swallowed: the read loop notices a dead peer, and an undelivered
// response is exactly what the at-most-once retransmit machinery exists
// for.
type connWriter struct {
	mu  sync.Mutex
	c   net.Conn
	buf []byte //rwguard:mu
}

func (w *connWriter) send(resp *wire.Response) {
	w.mu.Lock()
	defer w.mu.Unlock()
	buf, err := wire.Append(w.buf[:0], resp)
	if err != nil {
		return
	}
	w.buf = buf[:0]
	// Bound the write so a wedged peer cannot pin response goroutines
	// forever; on timeout the conn is killed and the client reconnects.
	w.c.SetWriteDeadline(time.Now().Add(10 * time.Second))
	if _, err := w.c.Write(buf); err != nil {
		w.c.Close()
	}
}

// handleConn runs one connection: hello, then a request loop. Fast
// operations are handled inline; blocking acquires get their own
// goroutine so heartbeats keep flowing on the same connection.
func (s *Server) handleConn(c net.Conn) {
	defer s.wg.Done()
	defer func() {
		s.connMu.Lock()
		delete(s.conns, c)
		s.connMu.Unlock()
		c.Close()
	}()

	w := &connWriter{c: c}
	sc := wire.NewScanner(c)
	var sess *session
	for sc.Scan() {
		req, err := wire.DecodeRequest(sc.Bytes())
		if err != nil {
			w.send(&wire.Response{Code: wire.CodeBadRequest, Err: err.Error()})
			return
		}
		if !s.ready.Load() {
			// Recovery install still running: answer rather than hang, so
			// the client backs off and retries instead of timing out.
			w.send(&wire.Response{Seq: req.Seq, Code: wire.CodeRecovering, Err: "server recovering"})
			continue
		}
		now := time.Now()
		if sess == nil {
			if req.Op != wire.OpHello {
				w.send(&wire.Response{Seq: req.Seq, Code: wire.CodeBadRequest, Err: "first request must be hello"})
				return
			}
			if req.Session != "" {
				if prev := s.sessions.lookup(req.Session); prev != nil {
					if ok, logRenew := prev.renew(now); ok {
						sess = prev
						if logRenew {
							s.logAppend(&durable.Record{Type: durable.RecRenew,
								Session: sess.id, Expiry: sess.expiryUnixNano()})
						}
						w.send(&wire.Response{Seq: req.Seq, OK: true, Session: sess.id,
							TTLMS: sess.ttl.Milliseconds(), Resumed: true,
							MaxSeq: sess.seqHighWater(), Epoch: s.epoch.Load()})
						continue
					}
				}
				// Unknown or expired session: fall through to a fresh one;
				// Resumed stays false so the client knows its old state
				// (and seq numbering) is gone.
			}
			ttl := s.clampTTL(req.TTLMS)
			sess = s.sessions.create(ttl, now)
			s.logAppend(&durable.Record{Type: durable.RecHello, Session: sess.id,
				TTLMS: ttl.Milliseconds(), Expiry: sess.expiryUnixNano()})
			w.send(&wire.Response{Seq: req.Seq, OK: true, Session: sess.id,
				TTLMS: ttl.Milliseconds(), Epoch: s.epoch.Load()})
			continue
		}
		ok, logRenew := sess.renew(now)
		if !ok {
			// The lease lapsed: every hold is gone; the client must
			// reconnect under a fresh session and reacquire.
			w.send(&wire.Response{Seq: req.Seq, Code: wire.CodeExpired, Err: "session lease expired"})
			continue
		}
		if logRenew {
			s.logAppend(&durable.Record{Type: durable.RecRenew,
				Session: sess.id, Expiry: sess.expiryUnixNano()})
		}
		cached, drop, process := sess.begin(req.Seq)
		if cached != nil {
			w.send(cached)
			continue
		}
		if drop || !process {
			continue
		}
		if req.Op == wire.OpBye {
			s.finishBye(sess, req.Seq, w)
			return
		}
		if req.Op == wire.OpAcquire && req.WaitMS > 0 {
			s.wg.Add(1)
			go func(req wire.Request) {
				defer s.wg.Done()
				s.dispatch(sess, &req, w)
			}(*req)
			continue
		}
		s.dispatch(sess, req, w)
	}
	// Connection gone without bye: the session (and its holds) lives on
	// until the lease expires — a killed client never wedges a lock, and
	// a merely-partitioned one can still lose its holds only via TTL.
}

// dispatch executes one deduplicated request and sends+caches the
// response.
func (s *Server) dispatch(sess *session, req *wire.Request, w *connWriter) {
	var resp *wire.Response
	switch req.Op {
	case wire.OpHeartbeat:
		resp = &wire.Response{Seq: req.Seq, OK: true}
	case wire.OpStats:
		st := s.Stats()
		resp = &wire.Response{Seq: req.Seq, OK: true, Stats: &st}
	case wire.OpAcquire:
		resp = s.doAcquire(sess, req)
	case wire.OpRelease:
		resp = s.doRelease(sess, req)
	case wire.OpHello:
		resp = &wire.Response{Seq: req.Seq, Code: wire.CodeBadRequest, Err: "duplicate hello"}
	default:
		resp = &wire.Response{Seq: req.Seq, Code: wire.CodeBadRequest, Err: fmt.Sprintf("unknown op %q", req.Op)}
	}
	sess.finish(req.Seq, resp)
	// Only acquire/release responses are made durable: they carry effects
	// (grants, fencing tokens) that at-most-once must preserve across a
	// restart. Heartbeats and stats are idempotent, and logging them would
	// swamp the WAL.
	if req.Op == wire.OpAcquire || req.Op == wire.OpRelease {
		if b, err := json.Marshal(resp); err == nil {
			s.logAppend(&durable.Record{Type: durable.RecResp,
				Session: sess.id, Seq: req.Seq, Resp: b})
		}
	}
	w.send(resp)
}

func validKeyMode(req *wire.Request) error {
	if req.Key == "" {
		return errors.New("empty key")
	}
	if req.Mode != wire.ModeRead && req.Mode != wire.ModeWrite {
		return fmt.Errorf("bad mode %q", req.Mode)
	}
	return nil
}

func (s *Server) doAcquire(sess *session, req *wire.Request) *wire.Response {
	if err := validKeyMode(req); err != nil {
		return &wire.Response{Seq: req.Seq, Code: wire.CodeBadRequest, Err: err.Error()}
	}
	wait := time.Duration(req.WaitMS) * time.Millisecond
	if wait > s.cfg.MaxWait {
		wait = s.cfg.MaxWait
	}
	tok, err := s.shardFor(req.Key).acquire(sess, req.Key, req.Mode, wait)
	if err != nil {
		return &wire.Response{Seq: req.Seq, Code: errCode(err), Err: err.Error()}
	}
	return &wire.Response{Seq: req.Seq, OK: true, Passage: tok}
}

func (s *Server) doRelease(sess *session, req *wire.Request) *wire.Response {
	if err := validKeyMode(req); err != nil {
		return &wire.Response{Seq: req.Seq, Code: wire.CodeBadRequest, Err: err.Error()}
	}
	// Fencing check: a release quoting a token from an earlier epoch refers
	// to a hold that did not survive the restart — it was fenced during
	// recovery. Tell the client so, in a typed way, so it surrenders the
	// hold instead of treating the release as an ordinary failure.
	if req.Passage != 0 && durable.TokenEpoch(req.Passage) < s.epoch.Load() {
		err := fmt.Errorf("%w: token epoch %d, server epoch %d",
			ErrEpochFenced, durable.TokenEpoch(req.Passage), s.epoch.Load())
		return &wire.Response{Seq: req.Seq, Code: errCode(err), Err: err.Error()}
	}
	if err := s.shardFor(req.Key).release(sess, req.Key, req.Mode); err != nil {
		return &wire.Response{Seq: req.Seq, Code: errCode(err), Err: err.Error()}
	}
	return &wire.Response{Seq: req.Seq, OK: true}
}

// finishBye releases everything the session owns, removes it, and
// acknowledges; the caller closes the connection.
func (s *Server) finishBye(sess *session, seq uint64, w *connWriter) {
	holds, waiters := sess.snapshotForRevoke()
	for _, wt := range waiters {
		s.shardFor(wt.ls.key).cancelWaiter(wt, ErrRevoked)
	}
	for _, h := range holds {
		// A clean goodbye is a release, not a revocation.
		if err := s.shardFor(h.key).release(sess, h.key, h.mode); err != nil {
			s.cfg.Logf("bye: release %q/%s: %v", h.key, h.mode, err)
		}
	}
	s.sessions.remove(sess)
	s.logAppend(&durable.Record{Type: durable.RecBye, Session: sess.id})
	w.send(&wire.Response{Seq: seq, OK: true})
}

// Stats snapshots server state.
func (s *Server) Stats() wire.Stats {
	st := wire.Stats{
		Draining: s.draining.Load(),
		Sessions: s.sessions.count(),
		Epoch:    s.epoch.Load(),
	}
	for _, sh := range s.shards {
		st.Shards = append(st.Shards, sh.snapshotStats())
	}
	return st
}

// holdCount totals outstanding holds across shards.
func (s *Server) holdCount() int {
	n := 0
	for _, sh := range s.shards {
		n += sh.holdCount()
	}
	return n
}

// Drain performs a graceful shutdown of the lock namespaces: new acquires
// fail with ErrDraining, queued waiters are cancelled with ErrDraining,
// and holders get until the deadline to release. The lease sweeper keeps
// running, so holds of already-dead clients still expire during the
// drain. It returns the holds still outstanding at the deadline — the
// leaked holds; an empty result is a clean drain.
func (s *Server) Drain(timeout time.Duration) []HoldInfo {
	s.draining.Store(true)
	for _, sh := range s.shards {
		sh.cancelAllWaiters(ErrDraining)
	}
	deadline := time.Now().Add(timeout)
	for {
		if s.holdCount() == 0 {
			return nil
		}
		if !time.Now().Before(deadline) {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	var leaked []HoldInfo
	for _, sh := range s.shards {
		leaked = append(leaked, sh.leakedHolds()...)
	}
	return leaked
}

// Close stops the accept loop and the sweeper, closes every connection,
// and waits for all handler goroutines. A durable store gets a tidy
// shutdown: final WAL sync plus a snapshot, so the next open replays from
// a compact state.
func (s *Server) Close() error {
	if !s.closed.CompareAndSwap(false, true) {
		return nil
	}
	err := s.ln.Close()
	close(s.sweepStop)
	s.connMu.Lock()
	for c := range s.conns {
		c.Close()
	}
	s.connMu.Unlock()
	s.wg.Wait()
	if s.store != nil {
		if cerr := s.store.Close(); err == nil {
			err = cerr
		}
	}
	return err
}

// Crash simulates kill -9 for recovery tests: the listener, connections,
// and sweeper stop immediately — no drain, no final WAL sync, no
// snapshot. Whatever the WAL already absorbed (every acknowledged
// operation: appends happen before responses are sent) is what the next
// open replays, which is exactly what a real SIGKILL leaves behind.
func (s *Server) Crash() {
	if !s.closed.CompareAndSwap(false, true) {
		return
	}
	s.ln.Close() //nolint:errcheck // crash semantics
	close(s.sweepStop)
	if s.store != nil {
		// Stop the store first so in-flight handlers cannot slip appends
		// in after the "crash" instant.
		s.store.Crash()
	}
	s.connMu.Lock()
	for c := range s.conns {
		c.Close()
	}
	s.connMu.Unlock()
	// Unblock queued acquires so their handler goroutines exit without
	// waiting out their deadlines; the store is already down, so none of
	// this teardown reaches the WAL (as with a real kill -9).
	for _, sh := range s.shards {
		sh.cancelAllWaiters(ErrDisconnected)
	}
	s.wg.Wait()
}
