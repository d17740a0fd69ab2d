// Command rwload is the load generator for rwlockd: it fans out many
// concurrent simulated clients across a choice of workload mixes, with
// client-side retry (exponential backoff + jitter), reconnect-on-failure,
// and an optional seeded chaos transport and crash injection. It reports
// throughput, latency percentiles, per-shard stats (live grant tables,
// grants, and worst reader/writer bypass counted per queued waiter), and a
// write-passage ledger: every server-side write grant must be either
// client-observed (a unique fencing token) or lease-revoked. Duplicated
// or lost passages are a hard failure (exit 1).
//
// Mixes:
//
//	read-heavy  5% writes, uniform keys
//	write-heavy 30% writes, uniform keys
//	bursty      10% writes, workers alternate on/off phases
//	skewed      10% writes, half the traffic hammers one hot key
//
// With -server-bin, rwload also supervises the server under test: it
// spawns rwlockd itself, kill -9s it at -server-crash-rate while the load
// runs, restarts it against the same data directory, and requires the
// scraped server epochs to be strictly increasing across restarts. The
// ledger must still reconcile to zero lost and zero duplicated write
// passages — server crashes included.
//
// Usage:
//
//	rwload -addr 127.0.0.1:7911 [-clients 64] [-keys 16] [-mix read-heavy]
//	       [-dur 5s] [-wait 500ms] [-hold 0] [-ttl 1s] [-seed 1]
//	       [-crash-rate 0] [-max-backoff 250ms] [-chaos-seed 0] [-drop 0]
//	       [-dup 0] [-delay 0] [-max-delay 20ms] [-disconnect 0]
//	       [-server-bin ./rwlockd] [-server-flags "-addr ... -data-dir ..."]
//	       [-server-crash-rate 0]
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/cliutil"
	"repro/internal/lockd"
	"repro/internal/lockd/wire"
)

type mixSpec struct {
	writeFrac float64
	bursty    bool
	skewed    bool
}

var mixes = map[string]mixSpec{
	"read-heavy":  {writeFrac: 0.05},
	"write-heavy": {writeFrac: 0.30},
	"bursty":      {writeFrac: 0.10, bursty: true},
	"skewed":      {writeFrac: 0.10, skewed: true},
}

type config struct {
	addr    string
	clients int
	keys    int
	mix     string
	dur     time.Duration
	wait    time.Duration
	hold    time.Duration
	ttl     time.Duration
	seed    int64

	crashRate  float64
	maxBackoff time.Duration
	chaos      lockd.ChaosConfig

	// Server supervision (-server-bin spawns rwlockd; -server-crash-rate
	// kill -9s it at that mean rate per second while the load runs).
	serverBin       string
	serverFlags     string
	serverCrashRate float64
}

// counters aggregates worker outcomes; latencies are per-op acquire
// latencies for successful grants.
type counters struct {
	mu         sync.Mutex
	reads      uint64
	writes     uint64
	timeouts   uint64
	sheds      uint64
	revoked    uint64
	fenced     uint64
	recovering uint64
	reconnects uint64
	crashes    uint64
	draining   bool
	latencies  []time.Duration

	// Backoff accounting, kept separate from op latencies: time a worker
	// spent deliberately sleeping between retries is not service time.
	backoffEvents uint64
	backoffTotal  time.Duration

	// epochMax is the highest server epoch any worker's hello observed.
	epochMax uint64
}

func (s *counters) grant(mode string, d time.Duration) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if mode == lockd.ModeWrite {
		s.writes++
	} else {
		s.reads++
	}
	s.latencies = append(s.latencies, d)
}

func (s *counters) bump(f func(*counters)) {
	s.mu.Lock()
	defer s.mu.Unlock()
	f(s)
}

func (s *counters) observeEpoch(e uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if e > s.epochMax {
		s.epochMax = e
	}
}

func percentile(sorted []time.Duration, p float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := int(p * float64(len(sorted)-1))
	return sorted[i]
}

func main() {
	cfg := config{}
	flag.StringVar(&cfg.addr, "addr", "127.0.0.1:7911", "rwlockd address")
	flag.IntVar(&cfg.clients, "clients", 64, "concurrent simulated clients")
	flag.IntVar(&cfg.keys, "keys", 16, "distinct lock keys")
	flag.StringVar(&cfg.mix, "mix", "read-heavy", "workload mix: read-heavy, write-heavy, bursty, skewed")
	flag.DurationVar(&cfg.dur, "dur", 5*time.Second, "run duration")
	flag.DurationVar(&cfg.wait, "wait", 500*time.Millisecond, "server-side acquire wait budget")
	flag.DurationVar(&cfg.hold, "hold", 0, "time to sit on each granted lock")
	flag.DurationVar(&cfg.ttl, "ttl", time.Second, "session lease TTL")
	flag.Int64Var(&cfg.seed, "seed", 1, "workload randomness seed")
	flag.Float64Var(&cfg.crashRate, "crash-rate", 0, "probability a client abandons (kill -9) after a grant")
	flag.DurationVar(&cfg.maxBackoff, "max-backoff", 250*time.Millisecond, "cap on the exponential retry/reconnect backoff")
	flag.StringVar(&cfg.serverBin, "server-bin", "", "rwlockd binary to spawn and supervise (empty: connect to an external server)")
	flag.StringVar(&cfg.serverFlags, "server-flags", "", "flags for the supervised server (space-separated; should pin -addr and -data-dir)")
	flag.Float64Var(&cfg.serverCrashRate, "server-crash-rate", 0, "mean kill -9s per second against the supervised server while the load runs")
	flag.Int64Var(&cfg.chaos.Seed, "chaos-seed", 0, "chaos transport seed")
	flag.Float64Var(&cfg.chaos.Drop, "drop", 0, "chaos: per-message drop probability")
	flag.Float64Var(&cfg.chaos.Dup, "dup", 0, "chaos: per-message duplicate probability")
	flag.Float64Var(&cfg.chaos.Delay, "delay", 0, "chaos: per-message delay probability")
	flag.DurationVar(&cfg.chaos.MaxDelay, "max-delay", 20*time.Millisecond, "chaos: max injected delay")
	flag.Float64Var(&cfg.chaos.Disconnect, "disconnect", 0, "chaos: per-message disconnect probability")
	flag.Parse()
	cliutil.NoArgs(flag.CommandLine)

	code, err := run(cfg, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "rwload:", err)
		if code == 0 {
			code = 1
		}
	}
	os.Exit(code)
}

func run(cfg config, out io.Writer) (int, error) {
	mix, ok := mixes[cfg.mix]
	if !ok {
		return 2, fmt.Errorf("unknown mix %q (want read-heavy, write-heavy, bursty, or skewed)", cfg.mix)
	}
	if cfg.clients <= 0 || cfg.keys <= 0 {
		return 2, fmt.Errorf("-clients and -keys must be positive")
	}
	if cfg.serverCrashRate > 0 && cfg.serverBin == "" {
		return 2, fmt.Errorf("-server-crash-rate needs -server-bin (rwload must own the process it kills)")
	}

	var led lockd.Ledger
	cnt := &counters{}
	deadline := time.Now().Add(cfg.dur)

	var sup *supervisor
	if cfg.serverBin != "" {
		sup = newSupervisor(cfg.serverBin, strings.Fields(cfg.serverFlags), out)
		if err := sup.start(); err != nil {
			return 1, err
		}
		defer sup.shutdown()
		if cfg.serverCrashRate > 0 {
			go sup.crashLoop(cfg.serverCrashRate, deadline, rand.New(rand.NewSource(cfg.seed^0x5eed)))
		}
	}

	// Baseline the server's grant counters before any load: a durable
	// server restarted on a reused -data-dir carries cumulative totals
	// from previous runs, and the ledger below must reconcile only the
	// passages granted during this run.
	var baseGrants, baseRevokedW uint64
	if base := serverStats(cfg, 0); base != nil {
		for _, sh := range base.Shards {
			baseGrants += sh.WriteGrants
			baseRevokedW += sh.RevokedWrite
		}
	} else {
		return 1, fmt.Errorf("server unreachable for ledger baseline")
	}

	var wg sync.WaitGroup
	start := time.Now()
	for i := 0; i < cfg.clients; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			runWorker(id, cfg, mix, deadline, &led, cnt)
		}(i)
	}
	wg.Wait()
	elapsed := time.Since(start)

	cnt.mu.Lock()
	reads, writes := cnt.reads, cnt.writes
	timeouts, sheds, revoked := cnt.timeouts, cnt.sheds, cnt.revoked
	fenced, recovering := cnt.fenced, cnt.recovering
	reconnects, crashes := cnt.reconnects, cnt.crashes
	backoffEvents, backoffTotal := cnt.backoffEvents, cnt.backoffTotal
	epochMax := cnt.epochMax
	draining := cnt.draining
	lats := append([]time.Duration(nil), cnt.latencies...)
	cnt.mu.Unlock()
	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })

	ops := reads + writes
	fmt.Fprintf(out, "rwload: mix=%s clients=%d keys=%d dur=%v addr=%s\n",
		cfg.mix, cfg.clients, cfg.keys, cfg.dur, cfg.addr)
	fmt.Fprintf(out, "rwload: ops=%d (reads=%d writes=%d) throughput=%.1f ops/s\n",
		ops, reads, writes, float64(ops)/elapsed.Seconds())
	fmt.Fprintf(out, "rwload: errors: timeouts=%d sheds=%d revoked=%d fenced=%d recovering=%d reconnects=%d crashes=%d draining=%v\n",
		timeouts, sheds, revoked, fenced, recovering, reconnects, crashes, draining)
	fmt.Fprintf(out, "rwload: latency: p50=%v p90=%v p99=%v max=%v\n",
		percentile(lats, 0.50), percentile(lats, 0.90), percentile(lats, 0.99), percentile(lats, 1.0))
	fmt.Fprintf(out, "rwload: backoff: events=%d total=%v (%.1f%% of %d client-seconds)\n",
		backoffEvents, backoffTotal.Round(time.Millisecond),
		100*backoffTotal.Seconds()/(elapsed.Seconds()*float64(cfg.clients)), cfg.clients)

	if sup != nil {
		serverCrashes, epochs, monotonic := sup.summary()
		fmt.Fprintf(out, "rwload: server: crashes=%d epochs=%v monotonic=%v client-epoch-max=%d\n",
			serverCrashes, epochs, monotonic, epochMax)
		if !monotonic {
			fmt.Fprintf(out, "rwload: EPOCH VIOLATION: server epochs did not strictly increase across restarts\n")
			return 1, nil
		}
	}

	if dups := led.Counts().Dups; dups > 0 {
		fmt.Fprintf(out, "rwload: LEDGER VIOLATION: %d duplicated write passages\n", dups)
		return 1, nil
	}

	// Reconcile the passage ledger against the server over a clean
	// connection. Give in-flight lease revocations time to settle first.
	// If the server is already gone (drained away under us), the
	// client-side dup check above is the best we can do.
	st := serverStats(cfg, 2*cfg.ttl)
	if st == nil {
		if !draining {
			return 1, fmt.Errorf("server unreachable for final ledger reconciliation")
		}
		fmt.Fprintf(out, "rwload: server drained away; ledger dup-check only (dup=0)\n")
		return 0, nil
	}
	var grants, revokedW uint64
	var maxRB, maxWB int
	for _, sh := range st.Shards {
		grants += sh.WriteGrants
		revokedW += sh.RevokedWrite
		if sh.MaxReaderBypass > maxRB {
			maxRB = sh.MaxReaderBypass
		}
		if sh.MaxWriterBypass > maxWB {
			maxWB = sh.MaxWriterBypass
		}
	}
	grants -= baseGrants
	revokedW -= baseRevokedW
	lost := led.Lost(grants, revokedW)
	fmt.Fprintf(out, "rwload: ledger: unique-write-passages=%d dup=0 server-grants=%d revoked-write=%d lost=%d\n",
		led.Counts().Unique, grants, revokedW, lost)
	fmt.Fprintf(out, "rwload: fairness: max-reader-bypass=%d max-writer-bypass=%d shards=%d\n",
		maxRB, maxWB, len(st.Shards))
	for i, sh := range st.Shards {
		if sh.ReadGrants == 0 && sh.WriteGrants == 0 {
			continue
		}
		fmt.Fprintf(out, "rwload:   shard %d: live-locks=%d read-grants=%d write-grants=%d sheds=%d timeouts=%d revoked=%d max-bypass=r%d/w%d\n",
			i, sh.Locks, sh.ReadGrants, sh.WriteGrants, sh.Sheds, sh.Timeouts, sh.Revoked, sh.MaxReaderBypass, sh.MaxWriterBypass)
	}
	if lost > 0 {
		fmt.Fprintf(out, "rwload: LEDGER VIOLATION: %d lost write passages\n", lost)
		return 1, nil
	}
	if ops == 0 {
		return 1, fmt.Errorf("no passages completed")
	}
	return 0, nil
}

// runWorker is one simulated client: dial, run passages until the
// deadline, retry with exponential backoff + jitter on contention, and
// reconnect (a fresh session) on connection or lease loss.
func runWorker(id int, cfg config, mix mixSpec, deadline time.Time, led *lockd.Ledger, cnt *counters) {
	rng := rand.New(rand.NewSource(cfg.seed + int64(id)))
	opts := lockd.Options{TTL: cfg.ttl}
	if cfg.chaos.Enabled() {
		opts.Dialer = lockd.ChaosDialer(cfg.chaos, nil)
		opts.RetransmitAfter = 30 * time.Millisecond
	}

	var c *lockd.Client
	defer func() {
		if c != nil {
			c.Close()
		}
	}()
	backoff := 5 * time.Millisecond
	maxBackoff := cfg.maxBackoff
	if maxBackoff <= 0 {
		maxBackoff = 250 * time.Millisecond
	}
	// sleepBackoff sleeps one jittered backoff step and accounts the time
	// separately from op latencies (the report's time-in-backoff line).
	sleepBackoff := func() {
		d := jitter(rng, backoff)
		cnt.bump(func(s *counters) { s.backoffEvents++; s.backoffTotal += d })
		time.Sleep(d)
		backoff = nextBackoff(backoff, maxBackoff)
	}

	for time.Now().Before(deadline) {
		if mix.bursty {
			// Workers alternate 100ms-on / 100ms-off phases, offset by id,
			// so load arrives in synchronized waves.
			phase := (time.Now().UnixMilli()/100 + int64(id)) % 2
			if phase == 1 {
				time.Sleep(5 * time.Millisecond)
				continue
			}
		}
		if c == nil {
			ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
			nc, err := lockd.Dial(ctx, cfg.addr, opts)
			cancel()
			if err != nil {
				if errors.Is(err, lockd.ErrRecovering) {
					cnt.bump(func(s *counters) { s.recovering++ })
				}
				sleepBackoff()
				continue
			}
			c = nc
			cnt.observeEpoch(c.Epoch())
			backoff = 5 * time.Millisecond
		}

		key := fmt.Sprintf("k%02d", rng.Intn(cfg.keys))
		if mix.skewed && rng.Float64() < 0.5 {
			key = "k00" // hot key
		}
		mode := lockd.ModeRead
		if rng.Float64() < mix.writeFrac {
			mode = lockd.ModeWrite
		}

		ctx, cancel := context.WithTimeout(context.Background(), cfg.wait+3*time.Second)
		t0 := time.Now()
		h, err := c.Acquire(ctx, key, mode, cfg.wait)
		if err == nil {
			cnt.grant(mode, time.Since(t0))
			if mode == lockd.ModeWrite {
				led.ObserveWrite(key, h.Passage)
			}
			if cfg.hold > 0 {
				time.Sleep(cfg.hold)
			}
			if cfg.crashRate > 0 && rng.Float64() < cfg.crashRate {
				// Simulated kill -9: no release, no goodbye. The lease
				// sweeper must clean this hold up.
				c.Abandon()
				c = nil
				cnt.bump(func(s *counters) { s.crashes++ })
			} else if rerr := h.Release(ctx); rerr != nil && errors.Is(rerr, lockd.ErrEpochFenced) {
				// The server restarted between grant and release: the hold
				// was fenced out, so surrender it — nothing to release.
				// (Other release failures are cleaned up by lease expiry.)
				cnt.bump(func(s *counters) { s.fenced++ })
			}
			cancel()
			backoff = 5 * time.Millisecond
			continue
		}
		cancel()

		switch {
		case errors.Is(err, lockd.ErrDraining):
			cnt.bump(func(s *counters) { s.draining = true })
			return
		case errors.Is(err, lockd.ErrRecovering):
			cnt.bump(func(s *counters) { s.recovering++ })
			sleepBackoff()
		case errors.Is(err, lockd.ErrDisconnected), errors.Is(err, lockd.ErrSessionExpired):
			c.Abandon()
			c = nil
			cnt.bump(func(s *counters) { s.reconnects++ })
			sleepBackoff()
		case errors.Is(err, lockd.ErrTimeout):
			cnt.bump(func(s *counters) { s.timeouts++ })
			sleepBackoff()
		case errors.Is(err, lockd.ErrShed):
			cnt.bump(func(s *counters) { s.sheds++ })
			sleepBackoff()
		case errors.Is(err, lockd.ErrRevoked):
			cnt.bump(func(s *counters) { s.revoked++ })
		default:
			// Unknown failure: drop the connection and start over.
			c.Abandon()
			c = nil
			cnt.bump(func(s *counters) { s.reconnects++ })
			sleepBackoff()
		}
	}
}

func nextBackoff(cur, max time.Duration) time.Duration {
	cur *= 2
	if cur > max {
		return max
	}
	return cur
}

// jitter returns a uniformly random duration in [d/2, d), decorrelating
// retry storms across workers.
func jitter(rng *rand.Rand, d time.Duration) time.Duration {
	if d <= 1 {
		return d
	}
	return d/2 + time.Duration(rng.Int63n(int64(d/2)))
}

// finalStats fetches a server snapshot over a clean (chaos-free)
// connection, after letting in-flight lease revocations settle. It
// retries for a few seconds — a supervised server may still be replaying
// its WAL from the last kill -9. Returns nil when the server stays
// unreachable.
func serverStats(cfg config, settle time.Duration) *wire.Stats {
	time.Sleep(settle)
	deadline := time.Now().Add(10 * time.Second)
	for {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		c, err := lockd.Dial(ctx, cfg.addr, lockd.Options{})
		if err == nil {
			st, serr := c.Stats(ctx)
			c.Close()
			cancel()
			if serr == nil {
				return st
			}
		} else {
			cancel()
		}
		if !time.Now().Before(deadline) {
			return nil
		}
		time.Sleep(200 * time.Millisecond)
	}
}
