package durable

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"os"
	"sync"
	"time"
)

// FsyncPolicy selects when WAL appends reach stable storage.
type FsyncPolicy string

const (
	// FsyncAlways syncs after every append: no committed grant can be
	// lost to a power failure, at one fsync per operation.
	FsyncAlways FsyncPolicy = "always"
	// FsyncInterval syncs on a background timer (the default): a power
	// failure can lose the last interval of records, which is safe — the
	// epoch bump keeps lost grants' tokens dominated — but costs one
	// fsync per interval instead of per operation. A plain kill -9 loses
	// nothing under any policy: appends are unbuffered write syscalls,
	// and the page cache survives process death.
	FsyncInterval FsyncPolicy = "interval"
	// FsyncNever leaves syncing to the OS entirely.
	FsyncNever FsyncPolicy = "never"
)

// ParseFsyncPolicy validates a policy string (flag plumbing).
func ParseFsyncPolicy(s string) (FsyncPolicy, error) {
	switch FsyncPolicy(s) {
	case FsyncAlways, FsyncInterval, FsyncNever:
		return FsyncPolicy(s), nil
	}
	return "", fmt.Errorf("durable: unknown fsync policy %q (want always, interval, or never)", s)
}

// walMagic opens every WAL file: walMagicName, the format version byte
// (walVersion), then a newline. A file with another version byte is
// rejected with a *MismatchError; a file that does not start with the
// name is rejected as corrupt rather than misparsed as frames.
const (
	walMagicName = "rwlockd-wal"
	walVersion   = 5
	walMagic     = walMagicName + string(rune(walVersion)) + "\n"
)

// wal is the append side of the log: one file, direct (unbuffered)
// writes, fsync per policy.
type wal struct {
	mu       sync.Mutex
	f        *os.File //rwguard:mu
	policy   FsyncPolicy
	buf      []byte //rwguard:mu
	stop     chan struct{}
	syncDone chan struct{}
	syncErr  error //rwguard:mu sticky first background-sync failure
}

// syncInterval is the background sync period under FsyncInterval.
const syncInterval = 5 * time.Millisecond

// openWAL opens (creating if needed) the log at path for appending. A
// fresh or truncated-to-empty file gets the magic header.
func openWAL(path string, policy FsyncPolicy) (*wal, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("durable: open WAL: %w", err)
	}
	fi, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("durable: stat WAL: %w", err)
	}
	w := &wal{f: f, policy: policy, stop: make(chan struct{}), syncDone: make(chan struct{})}
	if fi.Size() == 0 {
		if _, err := f.WriteString(walMagic); err != nil {
			f.Close()
			return nil, fmt.Errorf("durable: write WAL header: %w", err)
		}
		if err := f.Sync(); err != nil {
			f.Close()
			return nil, fmt.Errorf("durable: sync WAL header: %w", err)
		}
	}
	if policy == FsyncInterval {
		go w.syncLoop()
	} else {
		close(w.syncDone)
	}
	return w, nil
}

func (w *wal) syncLoop() {
	defer close(w.syncDone)
	t := time.NewTicker(syncInterval)
	defer t.Stop()
	for {
		select {
		case <-w.stop:
			return
		case <-t.C:
			w.mu.Lock()
			if w.syncErr == nil {
				w.syncErr = w.f.Sync()
			}
			w.mu.Unlock()
		}
	}
}

// append frames rec and writes it in one write call, syncing per policy.
// sync forces a sync regardless of policy (epoch bumps use it: the epoch
// record is the safety linchpin and is never allowed to be lost).
func (w *wal) append(rec *Record, sync bool) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.syncErr != nil {
		return fmt.Errorf("durable: WAL sync failed earlier: %w", w.syncErr)
	}
	buf, err := AppendFrame(w.buf[:0], rec)
	if err != nil {
		return err
	}
	w.buf = buf[:0]
	if _, err := w.f.Write(buf); err != nil {
		return fmt.Errorf("durable: WAL append: %w", err)
	}
	if sync || w.policy == FsyncAlways {
		if err := w.f.Sync(); err != nil {
			return fmt.Errorf("durable: WAL sync: %w", err)
		}
	}
	return nil
}

// reset truncates the log to empty (post-snapshot rotation) and rewrites
// the magic header.
func (w *wal) reset() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if err := w.f.Truncate(0); err != nil {
		return fmt.Errorf("durable: WAL truncate: %w", err)
	}
	if _, err := w.f.Seek(0, 0); err != nil {
		return fmt.Errorf("durable: WAL seek: %w", err)
	}
	if _, err := w.f.WriteString(walMagic); err != nil {
		return fmt.Errorf("durable: WAL header: %w", err)
	}
	return w.f.Sync()
}

// close stops the sync loop; final is true for a tidy shutdown (one last
// sync) and false for a simulated crash (no flush beyond what already
// reached the file).
func (w *wal) close(final bool) error {
	select {
	case <-w.stop:
	default:
		close(w.stop)
	}
	<-w.syncDone
	w.mu.Lock()
	defer w.mu.Unlock()
	var err error
	if final {
		err = w.f.Sync()
	}
	if cerr := w.f.Close(); err == nil {
		err = cerr
	}
	return err
}

// replayWAL reads the log at path frame by frame, calling apply on each
// decoded record (see ReadLog for what apply may keep), and applies
// torn-tail truncation: the file is cut back to its longest valid prefix.
// It returns the truncated byte count and the typed reason when bytes
// were dropped. A missing file is an empty log. A file too short to hold
// the magic is a torn first write (truncated to empty); a file written
// by another WAL version is a typed *MismatchError and is left as it is;
// a file with the wrong magic is corrupt — refusing to serve beats
// silently ignoring a log that was probably damaged wholesale.
func replayWAL(path string, apply func(*Record)) (torn int64, tornReason error, err error) {
	f, err := os.Open(path)
	if err != nil {
		if os.IsNotExist(err) {
			return 0, nil, nil
		}
		return 0, nil, fmt.Errorf("durable: read WAL: %w", err)
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return 0, nil, fmt.Errorf("durable: stat WAL: %w", err)
	}
	r := bufio.NewReaderSize(f, 64<<10)
	magic := make([]byte, len(walMagic))
	if k, err := io.ReadFull(r, magic); err != nil {
		if !errors.Is(err, io.ErrUnexpectedEOF) && !errors.Is(err, io.EOF) {
			return 0, nil, fmt.Errorf("durable: read WAL: %w", err)
		}
		if err := os.Truncate(path, 0); err != nil {
			return 0, nil, fmt.Errorf("durable: truncate torn WAL header: %w", err)
		}
		return int64(k), &ShortError{Offset: 0, Need: len(walMagic), Have: k}, nil
	}
	if string(magic) != walMagic {
		name := len(walMagicName)
		if string(magic[:name]) == walMagicName && magic[name+1] == '\n' {
			return 0, nil, &MismatchError{Path: path, Field: "version",
				Want: fmt.Sprint(walVersion), Got: fmt.Sprint(magic[name])}
		}
		return 0, nil, &CorruptError{Offset: 0, Reason: "magic",
			Err: fmt.Errorf("%s is not an rwlockd WAL", path)}
	}
	valid, scanErr := ReadLog(r, apply)
	if scanErr != nil {
		var se *ShortError
		var ce *CorruptError
		if !errors.As(scanErr, &se) && !errors.As(scanErr, &ce) {
			return 0, nil, fmt.Errorf("durable: read WAL: %w", scanErr)
		}
		torn = fi.Size() - int64(len(walMagic)) - valid
		if err := os.Truncate(path, int64(len(walMagic))+valid); err != nil {
			return 0, nil, fmt.Errorf("durable: truncate torn WAL tail: %w", err)
		}
	}
	return torn, scanErr, nil
}
