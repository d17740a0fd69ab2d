// Command rwlockd is the long-running reader-writer lock service: sharded
// named RW-lock namespaces over TCP with session leases, deadline-bounded
// acquires, bounded wait queues, and graceful drain.
//
// Failure model (the service-side mirror of the simulator's, see
// DESIGN.md): a client that stops heartbeating — killed, partitioned, or
// wedged — has its session lease expire, which revokes all its holds and
// queued waiters; a kill -9'd client can therefore never wedge a lock.
// On SIGTERM (or SIGINT) the server drains: new acquires are refused,
// queued waiters are cancelled, holders get -drain-timeout to finish, and
// any hold still outstanding at the deadline is reported as leaked with a
// nonzero exit. A second signal aborts immediately.
//
// With -data-dir the server is durable: service state is written to a WAL
// plus periodic snapshots under the directory, and a restart — including
// after kill -9 — replays them, bumps the server epoch (fencing every
// pre-crash hold: their tokens are strictly dominated by every token the
// new epoch mints, so nothing is ever double-granted), re-arms lease
// sweeping from the persisted deadlines, and answers "recovering" until
// the replayed state is installed.
//
// Usage:
//
//	rwlockd [-addr 127.0.0.1:7911] [-shards 8] [-ttl 5s] [-min-ttl 50ms]
//	        [-max-ttl 60s] [-max-queue 128] [-max-wait 30s]
//	        [-sweep-interval 25ms] [-drain-timeout 10s] [-quiet]
//	        [-data-dir DIR] [-fsync interval] [-snapshot-every 4096]
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/cliutil"
	"repro/internal/lockd"
)

func main() {
	sig := make(chan os.Signal, 2)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	os.Exit(run(os.Args[1:], sig, nil, os.Stdout, os.Stderr))
}

// run is the testable body of main: it parses args, serves until a signal
// arrives on sig, drains, and returns the process exit code (0 clean
// drain, 1 leaked holds or serve error, 2 flag errors). onReady, when
// non-nil, receives the bound address once the server is listening.
func run(args []string, sig <-chan os.Signal, onReady func(addr string), out, errOut io.Writer) int {
	fs := flag.NewFlagSet("rwlockd", flag.ContinueOnError)
	fs.SetOutput(errOut)
	addr := fs.String("addr", "127.0.0.1:7911", "TCP listen address")
	shards := fs.Int("shards", 8, "lock namespace shard count (a -data-dir restarts under any value)")
	ttl := fs.Duration("ttl", 5*time.Second, "default session lease TTL")
	minTTL := fs.Duration("min-ttl", 50*time.Millisecond, "smallest grantable lease TTL")
	maxTTL := fs.Duration("max-ttl", 60*time.Second, "largest grantable lease TTL")
	maxQueue := fs.Int("max-queue", 128, "bounded wait queue per named lock (beyond it acquires are shed)")
	maxWait := fs.Duration("max-wait", 30*time.Second, "cap on a single acquire's server-side wait")
	sweep := fs.Duration("sweep-interval", 25*time.Millisecond, "lease-expiry scan period")
	drainTimeout := fs.Duration("drain-timeout", 10*time.Second, "grace period for holders on SIGTERM before holds count as leaked")
	quiet := fs.Bool("quiet", false, "suppress per-event logs (revocations)")
	dataDir := fs.String("data-dir", "", "durability directory (WAL + snapshots); empty runs in-memory")
	fsyncPolicy := fs.String("fsync", "interval", "WAL sync policy: always, interval, or never")
	snapshotEvery := fs.Int("snapshot-every", 4096, "WAL records between snapshot rotations")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	cliutil.NoArgs(fs)

	logf := func(format string, args ...any) {
		fmt.Fprintf(errOut, "rwlockd: "+format+"\n", args...)
	}
	cfg := lockd.Config{
		Addr:          *addr,
		Shards:        *shards,
		DefaultTTL:    *ttl,
		MinTTL:        *minTTL,
		MaxTTL:        *maxTTL,
		MaxQueue:      *maxQueue,
		MaxWait:       *maxWait,
		SweepInterval: *sweep,
		DataDir:       *dataDir,
		Fsync:         *fsyncPolicy,
		SnapshotEvery: *snapshotEvery,
	}
	if !*quiet {
		cfg.Logf = logf
	}
	srv, err := lockd.New(cfg)
	if err != nil {
		fmt.Fprintln(errOut, "rwlockd:", err)
		return 1
	}
	fmt.Fprintf(out, "rwlockd: listening on %s (shards=%d default-ttl=%v max-queue=%d)\n",
		srv.Addr(), *shards, *ttl, *maxQueue)
	if info := srv.RecoveryInfo(); info != nil {
		fmt.Fprintf(out, "rwlockd: recovery: snapshot=%v replayed=%d records, %d sessions, %d holds\n",
			info.SnapshotLoaded, info.Replayed, info.Sessions, info.Holds)
		if info.TornBytes > 0 {
			fmt.Fprintf(errOut, "rwlockd: recovery: truncated %d torn WAL bytes (%v)\n",
				info.TornBytes, info.TornReason)
		}
	}

	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve() }()

	// The ready gate closes once recovery install (epoch bump + state
	// restore) finishes — immediately, for an in-memory server. Announce
	// the serving epoch before reporting ready so supervisors that scrape
	// the line see the post-bump value.
	select {
	case <-srv.Ready():
		fmt.Fprintf(out, "rwlockd: serving epoch %d\n", srv.Epoch())
	case err := <-serveErr:
		if err != nil {
			fmt.Fprintln(errOut, "rwlockd:", err)
			return 1
		}
		return 0
	}
	if onReady != nil {
		onReady(srv.Addr().String())
	}

	select {
	case err := <-serveErr:
		if err != nil {
			fmt.Fprintln(errOut, "rwlockd:", err)
			return 1
		}
		return 0
	case s := <-sig:
		fmt.Fprintf(out, "rwlockd: %v: draining (refusing new acquires, holders have %v)\n", s, *drainTimeout)
	}

	// A second signal aborts without waiting for the drain.
	done := make(chan struct{})
	defer close(done)
	go func() {
		select {
		case <-sig:
			fmt.Fprintln(errOut, "rwlockd: second signal, aborting")
			os.Exit(130)
		case <-done:
		}
	}()

	leaked := srv.Drain(*drainTimeout)
	srv.Close()
	if err := <-serveErr; err != nil {
		fmt.Fprintln(errOut, "rwlockd:", err)
		return 1
	}
	if len(leaked) > 0 {
		fmt.Fprintf(errOut, "rwlockd: drain deadline passed with %d leaked holds:\n", len(leaked))
		for _, h := range leaked {
			fmt.Fprintf(errOut, "rwlockd:   %s/%s held by session %s\n", h.Key, h.Mode, h.Session)
		}
		return 1
	}
	fmt.Fprintln(out, "rwlockd: drain complete, 0 leaked holds")
	return 0
}
