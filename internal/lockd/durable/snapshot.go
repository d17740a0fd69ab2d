package durable

import (
	"encoding/json"
	"fmt"
	"os"

	"repro/internal/checkpoint"
)

// SnapshotVersion is the snapshot file format version; a file written by
// a different version is rejected with a *MismatchError.
const SnapshotVersion = 5

// MismatchError reports a snapshot or WAL written in another format
// version than the server opening it reads. Nothing stored depends on the
// server's configuration (the shard count included), so the version is
// the only field a data directory can mismatch on.
type MismatchError struct {
	Path  string
	Field string // always "version"
	Want  string
	Got   string
}

func (e *MismatchError) Error() string {
	return fmt.Sprintf("durable: %s was written in another format: %s is %s, this server needs %s (wipe the data directory or run the server version that wrote it)",
		e.Path, e.Field, e.Got, e.Want)
}

// snapshotFile is the on-disk snapshot schema.
type snapshotFile struct {
	Version int `json:"version"`
	// LastLSN is the log sequence number of the last record folded into
	// State; replay skips WAL records at or below it, which is what makes
	// the snapshot-then-truncate rotation crash-safe in both orders.
	LastLSN uint64 `json:"last_lsn"`
	State   *State `json:"state"`
}

// writeSnapshot persists st atomically via the checkpoint temp-file+
// rename primitive: a crash mid-snapshot leaves the previous snapshot
// intact, never a torn file.
func writeSnapshot(path string, lastLSN uint64, st *State) error {
	buf, err := json.Marshal(&snapshotFile{Version: SnapshotVersion, LastLSN: lastLSN, State: st})
	if err != nil {
		return fmt.Errorf("durable: marshal snapshot: %w", err)
	}
	buf = append(buf, '\n')
	if err := checkpoint.WriteAtomic(path, buf); err != nil {
		return fmt.Errorf("durable: snapshot: %w", err)
	}
	return nil
}

// loadSnapshot reads the snapshot at path. A missing file yields a nil
// state (fresh directory); an unparsable file, or one whose state holds a
// null session, is a typed *CorruptError; a version mismatch is a typed
// *MismatchError.
func loadSnapshot(path string) (*State, uint64, error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, 0, nil
		}
		return nil, 0, &CorruptError{Reason: "payload", Err: err}
	}
	var f snapshotFile
	if err := json.Unmarshal(buf, &f); err != nil {
		return nil, 0, &CorruptError{Reason: "payload", Err: fmt.Errorf("snapshot %s: %w", path, err)}
	}
	if f.Version != SnapshotVersion {
		return nil, 0, &MismatchError{Path: path, Field: "version",
			Want: fmt.Sprint(SnapshotVersion), Got: fmt.Sprint(f.Version)}
	}
	if f.State == nil {
		f.State = NewState()
	}
	if f.State.Sessions == nil {
		f.State.Sessions = map[string]*SessionState{}
	}
	for id, sess := range f.State.Sessions {
		if sess == nil {
			return nil, 0, &CorruptError{Reason: "payload",
				Err: fmt.Errorf("snapshot %s: session %q is null", path, id)}
		}
	}
	return f.State, f.LastLSN, nil
}
