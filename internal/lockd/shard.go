package lockd

import (
	"fmt"
	"hash/fnv"
	"sync"
	"time"

	"repro/internal/lockd/durable"
	"repro/internal/lockd/wire"
)

// waiter is one queued acquire.
type waiter struct {
	sess *session
	ls   *lockState
	mode string
	// ch delivers the grant (or a typed cancellation error); buffered so
	// the shard never blocks delivering under its mutex.
	ch chan grantResult
	// delivered flips once a result was sent.
	delivered bool //rwguard:shard.mu
	// bypass counts the grants made to other waiters of ls while this
	// one stayed queued: its overtakes during this wait.
	bypass int //rwguard:shard.mu
}

type grantResult struct {
	passage uint64
	err     error
}

// lockState is one named lock's grant table. It lives only while the
// lock is held or queued on (see reclaimLocked): nothing in it has to
// outlive a passage.
type lockState struct {
	key string
	// wordIdx is the key's passage counter in the shard's words (assigned
	// by key hash; keys may share a word, which preserves per-key token
	// uniqueness). It is recorded in WAL grant records so replay can
	// restore the counter.
	wordIdx int
	readers map[*session]struct{} //rwguard:shard.mu
	writer  *session              //rwguard:shard.mu
	queue   []*waiter             //rwguard:shard.mu
}

//rwguard:holds shard.mu
func (ls *lockState) holders() int {
	n := len(ls.readers)
	if ls.writer != nil {
		n++
	}
	return n
}

// shardCounters aggregates a shard's lifetime statistics (under shard.mu).
// The ledger-relevant subset (grants, releases, revocations, fencing) is
// restored from durable state on recovery, so it is cumulative over the
// life of a data directory; sheds, timeouts and the bypass maxima are
// volatile and reset on restart.
type shardCounters struct {
	readGrants   uint64
	writeGrants  uint64
	releases     uint64
	revoked      uint64
	revokedWrite uint64
	fenced       uint64
	fencedWrite  uint64
	sheds        uint64
	timeouts     uint64
	// maxReaderBypass/maxWriterBypass are the worst overtake counts of
	// the waiters that already left a queue (see waiter.bypass).
	maxReaderBypass int
	maxWriterBypass int
}

// shard is one lock-namespace partition: a map of the live named grant
// tables plus the passage counters keys hash onto, all serialized by one
// mutex.
type shard struct {
	srv *Server
	idx int

	mu    sync.Mutex
	locks map[string]*lockState //rwguard:mu
	stats shardCounters         //rwguard:mu
	words []uint64              //rwguard:mu
}

func newShard(srv *Server, idx, nWords int) *shard {
	return &shard{
		srv:   srv,
		idx:   idx,
		locks: map[string]*lockState{},
		words: make([]uint64, nWords),
	}
}

// restore installs recovered durable state: the per-word passage counters
// (so post-restart counters continue above every replayed grant) and the
// cumulative ledger counters.
func (sh *shard) restore(ss *durable.ShardState) {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	copy(sh.words, ss.Words)
	c := ss.Counters
	sh.stats.readGrants = c.ReadGrants
	sh.stats.writeGrants = c.WriteGrants
	sh.stats.releases = c.Releases
	sh.stats.revoked = c.Revoked
	sh.stats.revokedWrite = c.RevokedWrite
	sh.stats.fenced = c.Fenced
	sh.stats.fencedWrite = c.FencedWrite
}

// logAppend forwards one WAL record to the server's durable store.
func (sh *shard) logAppend(rec *durable.Record) { sh.srv.logAppend(rec) }

// lockStateLocked returns (creating if needed) the grant table for key.
//
//rwguard:holds mu
func (sh *shard) lockStateLocked(key string) *lockState {
	ls := sh.locks[key]
	if ls == nil {
		h := fnv.New32a()
		h.Write([]byte(key))
		wordIdx := int(h.Sum32() % uint32(len(sh.words)))
		ls = &lockState{
			key:     key,
			wordIdx: wordIdx,
			readers: map[*session]struct{}{},
		}
		sh.locks[key] = ls
	}
	return ls
}

// grantableLocked reports whether a fresh request could be granted now.
// Strict FIFO: any queued waiter blocks newcomers, so a stream of readers
// cannot starve a queued writer.
//
//rwguard:holds shard.mu
func grantableLocked(ls *lockState, mode string) bool {
	if len(ls.queue) > 0 {
		return false
	}
	if mode == wire.ModeWrite {
		return ls.writer == nil && len(ls.readers) == 0
	}
	return ls.writer == nil
}

// grantLocked installs sess as a holder and returns the passage token,
// folded with the server epoch (tokens from before a restart are strictly
// dominated). Write grants advance the key's fencing counter and are
// WAL-logged before the caller can send the response, so a token a client
// observed always corresponds to a logged grant (per the fsync policy).
//
//rwguard:holds mu
func (sh *shard) grantLocked(ls *lockState, sess *session, mode string) uint64 {
	var tok uint64
	if mode == wire.ModeWrite {
		ls.writer = sess
		sh.stats.writeGrants++
		sh.words[ls.wordIdx]++
		tok = durable.MakeToken(sh.srv.epoch.Load(), sh.words[ls.wordIdx])
	} else {
		ls.readers[sess] = struct{}{}
		sh.stats.readGrants++
		tok = durable.MakeToken(sh.srv.epoch.Load(), sh.words[ls.wordIdx])
	}
	sh.logAppend(&durable.Record{Type: durable.RecGrant, Session: sess.id,
		Key: ls.key, Mode: mode, Shard: sh.idx, Word: ls.wordIdx, Token: tok})
	return tok
}

// acquire is the full acquire path: instant grant, tryacquire failure,
// shed, or queue-and-wait with a server-side deadline.
func (sh *shard) acquire(sess *session, key, mode string, wait time.Duration) (uint64, error) {
	sh.mu.Lock()
	if sh.srv.draining.Load() {
		sh.mu.Unlock()
		return 0, ErrDraining
	}
	ls := sh.lockStateLocked(key)
	if grantableLocked(ls, mode) {
		if !sess.addHold(holdKey{key, mode}) {
			// The only exit that can leave a table empty: every later one
			// finds it held or queued on.
			sh.reclaimLocked(ls)
			sh.mu.Unlock()
			if sess.isExpired() {
				return 0, ErrSessionExpired
			}
			return 0, fmt.Errorf("%w: session already holds %q/%s", ErrBadRequest, key, mode)
		}
		tok := sh.grantLocked(ls, sess, mode)
		sh.mu.Unlock()
		return tok, nil
	}
	if sess.holdsKey(holdKey{key, mode}) {
		sh.mu.Unlock()
		return 0, fmt.Errorf("%w: session already holds %q/%s", ErrBadRequest, key, mode)
	}
	if wait <= 0 {
		sh.stats.timeouts++
		sh.mu.Unlock()
		return 0, fmt.Errorf("%w: %q is busy", ErrTimeout, key)
	}
	if len(ls.queue) >= sh.srv.cfg.MaxQueue {
		sh.stats.sheds++
		sh.mu.Unlock()
		return 0, fmt.Errorf("%w: %q has %d waiters", ErrShed, key, sh.srv.cfg.MaxQueue)
	}
	w := &waiter{sess: sess, ls: ls, mode: mode, ch: make(chan grantResult, 1)}
	if !sess.addWaiter(w) {
		sh.mu.Unlock()
		return 0, ErrSessionExpired
	}
	ls.queue = append(ls.queue, w)
	sh.mu.Unlock()

	timer := time.NewTimer(wait)
	defer timer.Stop()
	select {
	case g := <-w.ch:
		return g.passage, g.err
	case <-timer.C:
		if sh.cancelWaiter(w, nil) {
			sh.mu.Lock()
			sh.stats.timeouts++
			sh.mu.Unlock()
			return 0, fmt.Errorf("%w: waited %v for %q", ErrTimeout, wait, key)
		}
		// The grant (or a revocation) raced the deadline; honor whatever
		// was delivered — the deadline is a bound on queueing, not a
		// guarantee the grant is unused.
		g := <-w.ch
		return g.passage, g.err
	}
}

// cancelWaiter removes w from its queue if no result was delivered yet,
// reporting whether it did. A non-nil err is delivered to the waiter
// (revocation, drain); a nil err means the caller handles the outcome
// (deadline timeout).
func (sh *shard) cancelWaiter(w *waiter, err error) bool {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if w.delivered {
		return false
	}
	w.delivered = true
	q := w.ls.queue
	for i, qw := range q {
		if qw == w {
			w.ls.queue = append(q[:i], q[i+1:]...)
			break
		}
	}
	w.sess.removeWaiter(w)
	sh.foldBypassLocked(w)
	if err != nil {
		w.ch <- grantResult{err: err}
	}
	// Removing a waiter can unblock the queue behind it (e.g. a timed-out
	// head writer with readers holding). The table needs no reclaim: a
	// queue only forms behind a holder, and cancelling never removes one.
	sh.promoteLocked(w.ls)
	return true
}

// foldBypassLocked records a departing waiter's overtake count in the
// shard's maxima.
//
//rwguard:holds mu
func (sh *shard) foldBypassLocked(w *waiter) {
	if w.mode == wire.ModeWrite {
		sh.stats.maxWriterBypass = max(sh.stats.maxWriterBypass, w.bypass)
	} else {
		sh.stats.maxReaderBypass = max(sh.stats.maxReaderBypass, w.bypass)
	}
}

// reclaimLocked drops ls from the shard once nobody holds or waits on it,
// so an idle key costs no memory. Fencing is unaffected: a re-created
// table hashes onto the same shard word, whose counter only rises.
//
//rwguard:holds mu
func (sh *shard) reclaimLocked(ls *lockState) {
	if ls.holders() == 0 && len(ls.queue) == 0 {
		delete(sh.locks, ls.key)
	}
}

// promoteLocked grants queued waiters in FIFO order as far as the lock
// state admits.
//
//rwguard:holds mu
func (sh *shard) promoteLocked(ls *lockState) {
	for len(ls.queue) > 0 {
		w := ls.queue[0]
		if w.mode == wire.ModeWrite {
			if ls.writer != nil || len(ls.readers) > 0 {
				return
			}
		} else if ls.writer != nil {
			return
		}
		ls.queue = ls.queue[1:]
		w.delivered = true
		w.sess.removeWaiter(w)
		sh.foldBypassLocked(w)
		if !w.sess.addHold(holdKey{ls.key, w.mode}) {
			// The session expired (or double-holds) while queued: it can
			// no longer receive the grant.
			w.ch <- grantResult{err: ErrRevoked}
			continue
		}
		tok := sh.grantLocked(ls, w.sess, w.mode)
		// Every waiter still queued was just overtaken.
		for _, qw := range ls.queue {
			qw.bypass++
		}
		w.ch <- grantResult{passage: tok}
	}
}

// release removes sess's hold on key/mode and promotes the queue.
func (sh *shard) release(sess *session, key, mode string) error {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	ls := sh.locks[key]
	if ls == nil {
		return fmt.Errorf("%w: release of unknown lock %q", ErrBadRequest, key)
	}
	if mode == wire.ModeWrite {
		if ls.writer != sess {
			return fmt.Errorf("%w: session does not hold %q/%s", ErrBadRequest, key, mode)
		}
		ls.writer = nil
	} else {
		if _, ok := ls.readers[sess]; !ok {
			return fmt.Errorf("%w: session does not hold %q/%s", ErrBadRequest, key, mode)
		}
		delete(ls.readers, sess)
	}
	sess.removeHold(holdKey{key, mode})
	sh.stats.releases++
	sh.logAppend(&durable.Record{Type: durable.RecRelease, Session: sess.id,
		Key: key, Mode: mode, Shard: sh.idx})
	sh.promoteLocked(ls)
	sh.reclaimLocked(ls)
	return nil
}

// revokeHold tears down one hold of an expired session (lease expiry).
func (sh *shard) revokeHold(sess *session, key, mode string) {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	ls := sh.locks[key]
	if ls == nil {
		return
	}
	switch {
	case mode == wire.ModeWrite && ls.writer == sess:
		ls.writer = nil
	case mode == wire.ModeRead:
		if _, ok := ls.readers[sess]; !ok {
			return
		}
		delete(ls.readers, sess)
	default:
		return
	}
	sess.removeHold(holdKey{key, mode})
	sh.stats.revoked++
	if mode == wire.ModeWrite {
		sh.stats.revokedWrite++
	}
	sh.promoteLocked(ls)
	sh.reclaimLocked(ls)
}

// cancelAllWaiters cancels every queued waiter with err (drain).
func (sh *shard) cancelAllWaiters(err error) {
	sh.mu.Lock()
	var all []*waiter
	for _, ls := range sh.locks {
		all = append(all, ls.queue...)
	}
	sh.mu.Unlock()
	for _, w := range all {
		sh.cancelWaiter(w, err)
	}
}

// holdCount returns the number of outstanding holds in the shard.
func (sh *shard) holdCount() int {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	n := 0
	for _, ls := range sh.locks {
		n += ls.holders()
	}
	return n
}

// HoldInfo describes one outstanding hold (drain leak reporting).
type HoldInfo struct {
	Key     string
	Mode    string
	Session string
}

// leakedHolds lists the shard's outstanding holds.
func (sh *shard) leakedHolds() []HoldInfo {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	var out []HoldInfo
	for _, ls := range sh.locks {
		if ls.writer != nil {
			out = append(out, HoldInfo{Key: ls.key, Mode: wire.ModeWrite, Session: ls.writer.id})
		}
		for r := range ls.readers {
			out = append(out, HoldInfo{Key: ls.key, Mode: wire.ModeRead, Session: r.id})
		}
	}
	return out
}

// snapshotStats renders the shard's counters and fairness readings. The
// bypass maxima cover every wait, completed or still open: the departed
// waiters' maxima combined with the open waiters' running counts.
func (sh *shard) snapshotStats() wire.ShardStats {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	st := wire.ShardStats{
		Locks:           len(sh.locks),
		ReadGrants:      sh.stats.readGrants,
		WriteGrants:     sh.stats.writeGrants,
		Releases:        sh.stats.releases,
		Revoked:         sh.stats.revoked,
		RevokedWrite:    sh.stats.revokedWrite,
		Fenced:          sh.stats.fenced,
		FencedWrite:     sh.stats.fencedWrite,
		Sheds:           sh.stats.sheds,
		Timeouts:        sh.stats.timeouts,
		MaxReaderBypass: sh.stats.maxReaderBypass,
		MaxWriterBypass: sh.stats.maxWriterBypass,
	}
	for _, ls := range sh.locks {
		st.Held += ls.holders()
		st.Queued += len(ls.queue)
		for _, w := range ls.queue {
			if w.mode == wire.ModeWrite {
				st.MaxWriterBypass = max(st.MaxWriterBypass, w.bypass)
			} else {
				st.MaxReaderBypass = max(st.MaxReaderBypass, w.bypass)
			}
		}
	}
	return st
}
