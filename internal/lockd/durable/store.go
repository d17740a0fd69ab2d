package durable

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
)

// Options parameterizes a Store. Zero values select the defaults.
type Options struct {
	// Fsync is the WAL sync policy (default FsyncInterval).
	Fsync FsyncPolicy
	// SnapshotEvery is the number of appended records between snapshots
	// (default 4096). Each snapshot rotates (truncates) the WAL.
	SnapshotEvery int
}

func (o *Options) applyDefaults() {
	if o.Fsync == "" {
		o.Fsync = FsyncInterval
	}
	if o.SnapshotEvery <= 0 {
		o.SnapshotEvery = 4096
	}
}

// RecoveryInfo summarizes what Open found, for the server's recovery log.
type RecoveryInfo struct {
	// SnapshotLoaded reports whether a snapshot file existed.
	SnapshotLoaded bool
	// Replayed is the number of WAL records applied on top of the
	// snapshot (records at or below the snapshot's LastLSN are skipped).
	Replayed int
	// TornBytes is the size of the WAL tail dropped by torn-tail
	// truncation; TornReason is the typed cause (a *ShortError for an
	// ordinary torn write, a *CorruptError for a CRC/decode failure).
	TornBytes  int64
	TornReason error
	// Epoch is the recovered (pre-bump) epoch; Sessions/Holds count the
	// recovered state before fencing.
	Epoch    uint64
	Sessions int
	Holds    int
}

// Store is the durable side of one rwlockd data directory: the WAL, the
// snapshot, and a shadow State kept current by applying every appended
// record. Safe for concurrent use.
type Store struct {
	dir  string
	opts Options

	mu        sync.Mutex
	wal       *wal   //rwguard:mu
	st        *State //rwguard:mu
	lsn       uint64 //rwguard:mu
	sinceSnap int    //rwguard:mu
	closed    bool   //rwguard:mu
}

func (s *Store) snapPath() string { return filepath.Join(s.dir, "snapshot.json") }
func (s *Store) walPath() string  { return filepath.Join(s.dir, "wal.log") }

// Open opens (creating if needed) the data directory, loads the snapshot,
// and replays the WAL on top, truncating a torn tail. It returns the
// store positioned for appends plus a recovery summary. Typed failures:
// *MismatchError for a snapshot or a WAL of another format version
// (either is left as it is), *CorruptError for an unreadable snapshot or
// a WAL that is not a WAL at all (torn or bit-flipped WAL tails are
// truncated, not fatal).
func Open(dir string, opts Options) (*Store, *RecoveryInfo, error) {
	opts.applyDefaults()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, fmt.Errorf("durable: data dir: %w", err)
	}
	s := &Store{dir: dir, opts: opts}

	st, lastLSN, err := loadSnapshot(s.snapPath())
	if err != nil {
		return nil, nil, err
	}
	info := &RecoveryInfo{SnapshotLoaded: st != nil}
	if st == nil {
		st = NewState()
	}

	lsn := lastLSN
	torn, tornReason, err := replayWAL(s.walPath(), func(rec *Record) {
		if rec.LSN <= lastLSN {
			return // already folded into the snapshot
		}
		st.Apply(rec)
		lsn = max(lsn, rec.LSN)
		info.Replayed++
	})
	if err != nil {
		return nil, nil, err
	}
	info.TornBytes, info.TornReason = torn, tornReason
	s.lsn = lsn
	s.st = st
	info.Epoch = st.Epoch
	info.Sessions = len(st.Sessions)
	info.Holds = st.HoldCount()

	w, err := openWAL(s.walPath(), opts.Fsync)
	if err != nil {
		return nil, nil, err
	}
	s.wal = w
	return s, info, nil
}

// State returns a deep copy of the shadow state.
func (s *Store) State() *State {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.st.Clone()
}

// Append assigns the next LSN to rec, writes it to the WAL (syncing per
// policy), folds it into the shadow, and snapshots when the rotation
// threshold is reached. The record is durable per the fsync policy when
// Append returns; callers send responses only after that return, so a
// response the client observed always corresponds to a logged operation.
func (s *Store) Append(rec *Record) error {
	return s.append(rec, false)
}

func (s *Store) append(rec *Record, sync bool) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return fmt.Errorf("durable: store closed")
	}
	s.lsn++
	rec.LSN = s.lsn
	if err := s.wal.append(rec, sync); err != nil {
		return err
	}
	s.st.Apply(rec)
	s.sinceSnap++
	if s.sinceSnap >= s.opts.SnapshotEvery {
		if err := s.snapshotLocked(); err != nil {
			// A failed rotation is not fatal to the append — the record
			// is in the WAL; the log just keeps growing until a rotation
			// succeeds.
			return nil
		}
	}
	return nil
}

// BumpEpoch appends an epoch record for epoch+1 with an unconditional
// fsync (the bump is the no-double-grant linchpin: it must be durable
// before the first post-restart grant) and returns the new epoch. The
// shadow apply fences every restored hold.
func (s *Store) BumpEpoch() (uint64, error) {
	s.mu.Lock()
	next := s.st.Epoch + 1
	s.mu.Unlock()
	if err := s.append(&Record{Type: RecEpoch, Epoch: next}, true); err != nil {
		return 0, err
	}
	return next, nil
}

// Snapshot forces a snapshot + WAL rotation (tests and tidy shutdown).
func (s *Store) Snapshot() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return fmt.Errorf("durable: store closed")
	}
	return s.snapshotLocked()
}

// snapshotLocked writes the shadow to the snapshot file and truncates the
// WAL. Crash windows are covered in both orders: before the rename the
// old snapshot + full WAL replay to the same state; after the rename but
// before the truncate, replay skips the WAL records the snapshot already
// folded in (LSN <= LastLSN).
//
//rwguard:holds mu
func (s *Store) snapshotLocked() error {
	if err := writeSnapshot(s.snapPath(), s.lsn, s.st); err != nil {
		return err
	}
	if err := s.wal.reset(); err != nil {
		return err
	}
	s.sinceSnap = 0
	return nil
}

// Close shuts the store down tidily: final WAL sync, then a snapshot so
// the next open replays from a compact state.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	err := s.snapshotLocked()
	if cerr := s.wal.close(true); err == nil {
		err = cerr
	}
	return err
}

// Crash simulates kill -9 for tests: the store stops accepting appends
// and the WAL file is closed without any final sync or snapshot. Data
// already written by appends survives (they are unbuffered write calls),
// which is exactly what a real kill -9 leaves behind.
func (s *Store) Crash() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return
	}
	s.closed = true
	s.wal.close(false) //nolint:errcheck // crash semantics: outcome deliberately ignored
}
