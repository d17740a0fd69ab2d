package main

import (
	"context"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/lockd"
	"repro/internal/lockd/durable"
	"repro/internal/lockd/wire"
)

// server is one in-process rwlockd with the goroutine that serves it.
type server struct {
	srv  *lockd.Server
	done chan error
}

// startServer builds a server and returns once it is ready to serve.
func startServer(cfg lockd.Config) (*server, error) {
	srv, err := lockd.New(cfg)
	if err != nil {
		return nil, err
	}
	s := &server{srv: srv, done: make(chan error, 1)}
	go func() { s.done <- srv.Serve() }()
	select {
	case <-srv.Ready():
		return s, nil
	case err := <-s.done:
		return nil, fmt.Errorf("serve: %w", err)
	}
}

// stop closes the server and waits for Serve to return.
func (s *server) stop() {
	s.srv.Close() //nolint:errcheck // teardown of a benchmark instance
	<-s.done
}

// crash kills the server as kill -9 would and waits for Serve to return.
func (s *server) crash() {
	s.srv.Crash()
	<-s.done
}

// grants totals the read and write grants of a stats snapshot.
func grants(st wire.Stats) uint64 {
	var n uint64
	for _, sh := range st.Shards {
		n += sh.ReadGrants + sh.WriteGrants
	}
	return n
}

// ledger is the fencing gate of the service workloads: per key, every
// write token must be strictly greater than the previous one, and every
// write token must carry the serving epoch. Tokens are observed between
// the grant and the release, so observation order is grant order.
type ledger struct {
	epoch uint64
	mu    sync.Mutex
	last  map[string]uint64
	// acquired counts successful acquires, compared with the server's
	// grant counters.
	acquired atomic.Int64
}

func newLedger(epoch uint64) *ledger { return &ledger{epoch: epoch, last: map[string]uint64{}} }

func (l *ledger) observe(key, mode string, tok uint64) error {
	l.acquired.Add(1)
	if mode != lockd.ModeWrite {
		return nil
	}
	if got := durable.TokenEpoch(tok); got != l.epoch {
		return fmt.Errorf("%w: write token %#x on %s minted in epoch %d, serving epoch %d", errGate, tok, key, got, l.epoch)
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if prev, ok := l.last[key]; ok && tok <= prev {
		return fmt.Errorf("%w: write token %#x on %s does not rise above %#x", errGate, tok, key, prev)
	}
	l.last[key] = tok
	return nil
}

// countingConn wraps a client's connection. It counts the bytes and
// calls in each direction and remembers, for the last request written,
// when its write started and ended and when the next read returned data:
// the round trip through the kernel and the server.
type countingConn struct {
	net.Conn
	writes, wbytes, rbytes atomic.Int64
	wStart, wEnd, rDone    atomic.Int64 // unix ns
	capture                *lineCapture
	// calls counts traced calls begun on this connection and busy those
	// in flight; together they tell a call that had the connection to
	// itself.
	calls atomic.Int64
	busy  atomic.Int32
}

func (c *countingConn) Write(b []byte) (int, error) {
	c.capture.add(b)
	c.wStart.Store(time.Now().UnixNano())
	n, err := c.Conn.Write(b)
	c.wEnd.Store(time.Now().UnixNano())
	c.writes.Add(1)
	c.wbytes.Add(int64(n))
	return n, err
}

func (c *countingConn) Read(b []byte) (int, error) {
	n, err := c.Conn.Read(b)
	if n > 0 {
		c.rDone.Store(time.Now().UnixNano())
		c.rbytes.Add(int64(n))
	}
	return n, err
}

// lastCall returns the write start, write end and answering read of the
// last request; ok is false when no read has answered it yet.
func (c *countingConn) lastCall() (ws, we, rd time.Time, ok bool) {
	s, e, r := c.wStart.Load(), c.wEnd.Load(), c.rDone.Load()
	return time.Unix(0, s), time.Unix(0, e), time.Unix(0, r), r >= e && e >= s && s > 0
}

// lineCapture keeps the first request lines a client writes, so wire
// decoding can be timed on real traffic after the run.
type lineCapture struct {
	mu    sync.Mutex
	lines [][]byte
}

const maxCapturedLines = 4096

func (lc *lineCapture) add(b []byte) {
	if lc == nil {
		return
	}
	lc.mu.Lock()
	defer lc.mu.Unlock()
	if len(lc.lines) < maxCapturedLines {
		lc.lines = append(lc.lines, append([]byte(nil), b...))
	}
}

// decodeNS returns the mean time wire.DecodeRequest takes per captured
// line, over several passes.
func (lc *lineCapture) decodeNS() (float64, error) {
	lc.mu.Lock()
	defer lc.mu.Unlock()
	if len(lc.lines) == 0 {
		return 0, nil
	}
	const passes = 20
	start := time.Now()
	for p := 0; p < passes; p++ {
		for _, l := range lc.lines {
			if _, err := wire.DecodeRequest(l[:len(l)-1]); err != nil {
				return 0, fmt.Errorf("decode captured request: %w", err)
			}
		}
	}
	return float64(time.Since(start)) / float64(passes*len(lc.lines)), nil
}

// svcClients are the sessions of one service phase with, when traced,
// their counting connections.
type svcClients struct {
	cl    []*lockd.Client
	conns []*countingConn
}

// dial opens n sessions. capture, when non-nil, wraps every connection
// in a countingConn sharing it.
func dial(addr string, n int, capture *lineCapture, opts lockd.Options) (*svcClients, error) {
	sc := &svcClients{}
	for i := 0; i < n; i++ {
		o := opts
		if capture != nil {
			o.Dialer = func(addr string) (net.Conn, error) {
				conn, err := net.Dial("tcp", addr)
				if err != nil {
					return nil, err
				}
				cc := &countingConn{Conn: conn, capture: capture}
				sc.conns = append(sc.conns, cc)
				return cc, nil
			}
		}
		c, err := lockd.Dial(context.Background(), addr, o)
		if err != nil {
			sc.close()
			return nil, err
		}
		sc.cl = append(sc.cl, c)
	}
	return sc, nil
}

func (sc *svcClients) close() {
	for _, c := range sc.cl {
		c.Close()
	}
}

func (sc *svcClients) sum(f func(*countingConn) int64) float64 {
	var n int64
	for _, c := range sc.conns {
		n += f(c)
	}
	return float64(n)
}

// callSamples are the per-call timings of a traced service phase.
type callSamples struct {
	mu                      sync.Mutex
	acq, rel, rtt, overhead []float64
}

func (cs *callSamples) add(name string, d, rtt float64) {
	cs.mu.Lock()
	defer cs.mu.Unlock()
	if name == "lockd.Acquire" {
		cs.acq = append(cs.acq, d)
	} else {
		cs.rel = append(cs.rel, d)
	}
	cs.rtt = append(cs.rtt, rtt)
	cs.overhead = append(cs.overhead, d-rtt)
}

// pair runs one Acquire and Release of key in mode on client c and
// checks the grant against the ledger. With a tracer it records the call
// spans, the wire spans inside them, and the call timings.
func pair(sc *svcClients, c int, key, mode string, lg *ledger, tr *tracer, cs *callSamples, op int64) error {
	ctx := context.Background()
	cl := sc.cl[c]
	m := sc.begin(c, tr)
	h, err := cl.Acquire(ctx, key, mode, time.Second)
	sc.end(c, m, "lockd.Acquire", tr, cs, op)
	if err != nil {
		return err
	}
	if err := lg.observe(key, mode, h.Passage); err != nil {
		h.Release(ctx) //nolint:errcheck // the gate failure is what is reported
		return err
	}
	m = sc.begin(c, tr)
	err = h.Release(ctx)
	sc.end(c, m, "lockd.Release", tr, cs, op)
	return err
}

// callMark is the state of a connection when a traced call began.
type callMark struct {
	start time.Time
	gen   int64
	busy  bool
}

func (sc *svcClients) begin(c int, tr *tracer) callMark {
	if tr == nil {
		return callMark{}
	}
	cc := sc.conns[c]
	m := callMark{gen: cc.calls.Add(1), busy: cc.busy.Add(1) > 1}
	m.start = time.Now()
	return m
}

// end records a traced call that had its connection to itself: no other
// call was in flight on it at any time during the call, so the last
// request written and the read that answered it are this call's.
func (sc *svcClients) end(c int, m callMark, name string, tr *tracer, cs *callSamples, op int64) {
	if tr == nil {
		return
	}
	end := time.Now()
	cc := sc.conns[c]
	cc.busy.Add(-1)
	if m.busy || cc.calls.Load() != m.gen {
		return // overlapped another call on this connection
	}
	ws, we, rd, ok := cc.lastCall()
	if !ok || ws.Before(m.start) || rd.After(end) {
		return // a heartbeat interleaved
	}
	tr.record(name, "", op, m.start, end)
	tr.record("wire.Write", name, op, ws, we)
	tr.record("wire.wait", name, op, we, rd)
	cs.add(name, float64(end.Sub(m.start)), float64(rd.Sub(ws)))
}

// statsSampler polls Server.Stats during a traced phase for the deepest
// total queue it sees.
type statsSampler struct {
	stop     chan struct{}
	done     chan struct{}
	queueMax int
}

func sampleStats(srv *lockd.Server, tr *tracer) *statsSampler {
	s := &statsSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		tick := time.NewTicker(20 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-s.stop:
				return
			case <-tick.C:
			}
			t0 := time.Now()
			st := srv.Stats()
			tr.record("lockd.Stats", "", -1, t0, time.Now())
			q := 0
			for _, sh := range st.Shards {
				q += sh.Queued
			}
			if q > s.queueMax {
				s.queueMax = q
			}
		}
	}()
	return s
}

// end stops the sampler and returns the deepest queue seen.
func (s *statsSampler) end() int {
	close(s.stop)
	<-s.done
	return s.queueMax
}

// svcLayers fills the per-layer metrics both service workloads share
// from a traced phase of ops operations.
func svcLayers(layers map[string]float64, sc *svcClients, cs *callSamples, tr *tracer, capture *lineCapture,
	before, after wire.Stats, queueMax int, ops float64) error {
	layers["lockd.acquire_ms_p50"] = ms(percentile(cs.acq, 50))
	layers["lockd.release_ms_p50"] = ms(percentile(cs.rel, 50))
	layers["lockd.client_overhead_ms_p50"] = ms(percentile(cs.overhead, 50))
	layers["wire.rtt_ms_p50"] = ms(percentile(cs.rtt, 50))
	layers["wire.bytes_per_op"] = (sc.sum(func(c *countingConn) int64 { return c.wbytes.Load() }) +
		sc.sum(func(c *countingConn) int64 { return c.rbytes.Load() })) / ops
	layers["wire.writes_per_op"] = sc.sum(func(c *countingConn) int64 { return c.writes.Load() }) / ops
	dec, err := capture.decodeNS()
	if err != nil {
		return err
	}
	layers["wire.decode_us_per_msg"] = dec / 1e3
	layers["lockd.queued_max"] = float64(queueMax)
	bypass := 0
	for _, sh := range after.Shards {
		bypass = max(bypass, sh.MaxWriterBypass)
	}
	layers["lockd.max_writer_bypass"] = float64(bypass)
	layers["lockd.grants_per_op"] = float64(grants(after)-grants(before)) / ops
	// Self times are over the calls that had their connection to
	// themselves, the only ones whose wire time is known.
	clean := float64(tr.count("lockd.Acquire"))
	perOp := func(name string) float64 { return ms(tr.selfNS(name)) / clean }
	layers["self.lockd_acquire_ms_per_op"] = perOp("lockd.Acquire")
	layers["self.lockd_release_ms_per_op"] = perOp("lockd.Release")
	layers["self.wire_write_ms_per_op"] = perOp("wire.Write")
	layers["self.wire_wait_ms_per_op"] = perOp("wire.wait")
	if n := tr.count("lockd.Stats"); n > 0 {
		layers["self.lockd_stats_ms_per_call"] = ms(tr.selfNS("lockd.Stats")) / float64(n)
	}
	return nil
}

// checkGrants is the grant-counter gate: over a phase, the server's grant
// counters must rise by exactly the acquires the clients saw succeed.
func checkGrants(before, after wire.Stats, acquired int64) error {
	if got := grants(after) - grants(before); got != uint64(acquired) {
		return fmt.Errorf("%w: server counted %d grants, clients saw %d", errGate, got, acquired)
	}
	return nil
}

// Workload svc-mixed-mem: an in-memory server, 2 closed-loop clients, 90%
// read and 10% write Acquire+Release pairs over 1024 zipf-skewed keys.
const (
	mixedKeys    = 1024
	mixedClients = 2
	mixedWriteP  = 0.10
	mixedStream  = 1 << 16 // ops generated per client, replayed cyclically
	// mixedSetupReps is how many times the workload starts a server,
	// dials its clients and touches every key to time set-up.
	mixedSetupReps = 30
)

type keyOp struct{ key, mode string }

// genMixed draws each client's operation stream from seed.
func genMixed(seed int64) [][]keyOp {
	rnd := rand.New(rand.NewSource(seed))
	zipf := rand.NewZipf(rnd, 1.1, 1, mixedKeys-1)
	out := make([][]keyOp, mixedClients)
	for c := range out {
		out[c] = make([]keyOp, mixedStream)
		for i := range out[c] {
			mode := lockd.ModeRead
			if rnd.Float64() < mixedWriteP {
				mode = lockd.ModeWrite
			}
			out[c][i] = keyOp{fmt.Sprintf("k%04d", zipf.Uint64()), mode}
		}
	}
	return out
}

type memInstance struct {
	s  *server
	sc *svcClients
	lg *ledger
}

func (m *memInstance) close() {
	if m.sc != nil {
		m.sc.close()
	}
	m.s.stop()
}

func runMixedMem(e *env) (*report, error) {
	streams := genMixed(e.seed)
	inst, setupS, err := setupMedian(e, mixedSetupReps, nil, func() (*memInstance, error) {
		s, err := startServer(lockd.Config{})
		if err != nil {
			return nil, err
		}
		m := &memInstance{s: s, lg: newLedger(1)}
		if m.sc, err = dial(s.srv.Addr().String(), mixedClients, nil, lockd.Options{}); err != nil {
			m.close()
			return nil, err
		}
		if err := checkEpoch(s.srv, m.sc, 1); err != nil {
			m.close()
			return nil, err
		}
		// Touch every key once, so lazily created lock state exists
		// before timing.
		for k := 0; k < mixedKeys; k++ {
			if err := pair(m.sc, k%mixedClients, fmt.Sprintf("k%04d", k), lockd.ModeRead, m.lg, nil, nil, 0); err != nil {
				m.close()
				return nil, err
			}
		}
		return m, nil
	}, (*memInstance).close)
	if err != nil {
		return nil, err
	}
	defer func() { inst.close() }()
	rep := &report{setupS: setupS, layers: map[string]float64{}}
	for _, traced := range e.phases() {
		var (
			tr      *tracer
			cs      *callSamples
			capture *lineCapture
			sampler *statsSampler
		)
		sc := inst.sc
		if traced {
			tr, cs, capture = newTracer(), &callSamples{}, &lineCapture{}
			if sc, err = dial(inst.s.srv.Addr().String(), mixedClients, capture, lockd.Options{}); err != nil {
				return nil, err
			}
			defer sc.close()
			sampler = sampleStats(inst.s.srv, tr)
		}
		acq0 := inst.lg.acquired.Load()
		before := inst.s.srv.Stats()
		ph := closedLoop(mixedClients, e.phaseDur(), func(c, i int) error {
			op := streams[c][i%mixedStream]
			return pair(sc, c, op.key, op.mode, inst.lg, tr, cs, int64(c)<<32|int64(i))
		})
		after := inst.s.srv.Stats()
		if err := checkGrants(before, after, inst.lg.acquired.Load()-acq0); err != nil {
			fmt.Fprintln(e.log, "perfbench:", err)
			rep.failed++
		}
		if !traced {
			rep.untraced = ph
			continue
		}
		rep.traced = ph
		if err := svcLayers(rep.layers, sc, cs, tr, capture, before, after, sampler.end(), float64(len(ph.lat))); err != nil {
			return nil, err
		}
		if err := tr.write(e.tracePath("svc-mixed-mem")); err != nil {
			return nil, err
		}
	}
	return rep, nil
}

// checkEpoch is the epoch gate: the server and every session must report
// the expected epoch.
func checkEpoch(srv *lockd.Server, sc *svcClients, want uint64) error {
	if got := srv.Epoch(); got != want {
		return fmt.Errorf("%w: server epoch %d, want %d", errGate, got, want)
	}
	for _, c := range sc.cl {
		if got := c.Epoch(); got != want {
			return fmt.Errorf("%w: session epoch %d, want %d", errGate, got, want)
		}
	}
	return nil
}

// Workload svc-write-durable: a durable server at the default fsync
// policy and snapshot cadence, recovered from a seeded data directory,
// then driven by 2 closed-loop clients with write Acquire+Release pairs,
// each on a key no operation has locked before: client c's operation i
// locks "d<c>-<i>".
const (
	durClients = 2
	// seedOps is the length of the scripted run that seeds the data
	// directory; seedHolds locks stay held when it crashes. The seeding
	// server takes no snapshot, so a restart replays the whole run.
	seedOps   = 6000
	seedKeys  = 256
	seedHolds = 4
	// recoveryRecordsWant is the number of WAL records a restart of the
	// seeded directory replays, as recorded when the benchmark was added.
	recoveryRecordsWant = 24010
	// durSetupReps is how many times the workload recovers a copy of the
	// seeded directory to time set-up.
	durSetupReps = 20
)

// seedDataDir runs the seeding script against a fresh durable server in
// dir and crashes it, leaving a data directory for restart recovery. It
// returns the epoch the crashed server was serving.
func seedDataDir(dir string, seed int64) (uint64, error) {
	s, err := startServer(lockd.Config{DataDir: dir, SnapshotEvery: math.MaxInt})
	if err != nil {
		return 0, err
	}
	epoch := s.srv.Epoch()
	// A long lease and no heartbeat keep lease renewals, which depend on
	// wall-clock time, out of the log: the record count is fixed.
	sc, err := dial(s.srv.Addr().String(), 1, nil, lockd.Options{TTL: time.Minute, HeartbeatEvery: time.Hour})
	if err != nil {
		s.crash()
		return 0, err
	}
	defer sc.cl[0].Abandon()
	lg := newLedger(epoch)
	rnd := rand.New(rand.NewSource(seed))
	modes := make([]string, seedOps)
	for i := range modes {
		modes[i] = lockd.ModeRead
		if i%2 == 0 {
			modes[i] = lockd.ModeWrite
		}
	}
	rnd.Shuffle(len(modes), func(i, j int) { modes[i], modes[j] = modes[j], modes[i] })
	for i, mode := range modes {
		key := fmt.Sprintf("s%03d", rnd.Intn(seedKeys))
		if err := pair(sc, 0, key, mode, lg, nil, nil, int64(i)); err != nil {
			s.crash()
			return 0, fmt.Errorf("seeding: %w", err)
		}
	}
	for i := 0; i < seedHolds; i++ {
		if _, err := sc.cl[0].Acquire(context.Background(), fmt.Sprintf("h%d", i), lockd.ModeWrite, time.Second); err != nil {
			s.crash()
			return 0, fmt.Errorf("seeding: %w", err)
		}
	}
	s.crash()
	return epoch, nil
}

// copyDir copies the regular files of src into a new directory dst.
func copyDir(src, dst string) error {
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	ents, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, ent := range ents {
		if !ent.Type().IsRegular() {
			continue
		}
		if err := copyFile(filepath.Join(src, ent.Name()), filepath.Join(dst, ent.Name())); err != nil {
			return err
		}
	}
	return nil
}

func copyFile(src, dst string) error {
	in, err := os.Open(src)
	if err != nil {
		return err
	}
	defer in.Close()
	out, err := os.Create(dst)
	if err != nil {
		return err
	}
	if _, err := io.Copy(out, in); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}

// snapshotWatcher counts snapshot rotations in a data directory by
// polling the snapshot file's identity; every rotation replaces the file.
type snapshotWatcher struct {
	stop, done chan struct{}
	rotations  int
}

func watchSnapshots(dir string) *snapshotWatcher {
	w := &snapshotWatcher{stop: make(chan struct{}), done: make(chan struct{})}
	path := filepath.Join(dir, "snapshot.json")
	go func() {
		defer close(w.done)
		prev, _ := os.Stat(path)
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-w.stop:
				return
			case <-tick.C:
			}
			fi, err := os.Stat(path)
			if err != nil {
				continue
			}
			if prev == nil || !os.SameFile(prev, fi) {
				w.rotations++
			}
			prev = fi
		}
	}()
	return w
}

func (w *snapshotWatcher) end() int {
	close(w.stop)
	<-w.done
	return w.rotations
}

func runWriteDurable(e *env) (*report, error) {
	seedDir := filepath.Join(e.workdir, "seeded")
	epoch0, err := seedDataDir(seedDir, e.seed)
	if err != nil {
		return nil, err
	}
	var (
		rep      int
		dataDir  string
		replayed []int
	)
	s, setupS, err := setupMedian(e, durSetupReps, func() error {
		rep++
		dataDir = filepath.Join(e.workdir, fmt.Sprintf("data%d", rep))
		return copyDir(seedDir, dataDir)
	}, func() (*server, error) {
		s, err := startServer(lockd.Config{DataDir: dataDir})
		if err == nil {
			replayed = append(replayed, s.srv.RecoveryInfo().Replayed)
		}
		return s, err
	}, func(s *server) {
		s.stop()
		os.RemoveAll(dataDir) //nolint:errcheck // scratch copy, removed with the run directory anyway
	})
	if err != nil {
		return nil, err
	}
	defer s.stop()
	out := &report{setupS: setupS, layers: map[string]float64{}}
	for _, n := range replayed {
		if n != recoveryRecordsWant {
			fmt.Fprintf(e.log, "perfbench: %v: recovery replayed %v records, want %d\n", errGate, replayed, recoveryRecordsWant)
			out.failed++
			break
		}
	}
	if got := s.srv.Epoch(); got != epoch0+1 {
		fmt.Fprintf(e.log, "perfbench: %v: recovered epoch %d, pre-crash epoch %d\n", errGate, got, epoch0)
		out.failed++
	}
	out.layers["durable.recovery_records"] = float64(replayed[len(replayed)-1])
	out.layers["durable.recovery_us_per_record"] = setupS * 1e6 / float64(replayed[len(replayed)-1])

	lg := newLedger(epoch0 + 1)
	for _, traced := range e.phases() {
		var (
			tr      *tracer
			cs      *callSamples
			capture *lineCapture
			snaps   *snapshotWatcher
		)
		if traced {
			tr, cs, capture = newTracer(), &callSamples{}, &lineCapture{}
		}
		sc, err := dial(s.srv.Addr().String(), durClients, capture, lockd.Options{})
		if err != nil {
			return nil, err
		}
		defer sc.close()
		if err := checkEpoch(s.srv, sc, epoch0+1); err != nil {
			fmt.Fprintln(e.log, "perfbench:", err)
			out.failed++
		}
		if traced {
			snaps = watchSnapshots(dataDir)
		}
		acq0 := lg.acquired.Load()
		before := s.srv.Stats()
		io0 := readProcIO()
		ph := closedLoop(durClients, e.phaseDur(), func(c, i int) error {
			key := fmt.Sprintf("d%d-%d", c, i)
			return pair(sc, c, key, lockd.ModeWrite, lg, tr, cs, int64(i))
		})
		io1 := readProcIO()
		after := s.srv.Stats()
		if err := checkGrants(before, after, lg.acquired.Load()-acq0); err != nil {
			fmt.Fprintln(e.log, "perfbench:", err)
			out.failed++
		}
		n := float64(len(ph.lat))
		if !traced {
			out.untraced = ph
			continue
		}
		out.traced = ph
		if err := svcLayers(out.layers, sc, cs, tr, capture, before, after, 0, n); err != nil {
			return nil, err
		}
		socketBytes := sc.sum(func(c *countingConn) int64 { return c.wbytes.Load() + c.rbytes.Load() })
		// Every request the clients write gets one response write from
		// the server: the socket writes are twice the client's.
		socketWrites := 2 * sc.sum(func(c *countingConn) int64 { return c.writes.Load() })
		out.layers["durable.storage_bytes_per_op"] = (io1.wchar - io0.wchar - socketBytes) / n
		out.layers["durable.write_syscalls_per_op"] = (io1.syscw - io0.syscw - socketWrites) / n
		out.layers["durable.snapshots_per_kop"] = float64(snaps.end()) * 1000 / n
		if err := tr.write(e.tracePath("svc-write-durable")); err != nil {
			return nil, err
		}
	}
	return out, nil
}
