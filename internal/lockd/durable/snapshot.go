package durable

import (
	"encoding/json"
	"fmt"
	"os"

	"repro/internal/checkpoint"
)

// SnapshotVersion is the snapshot file format version; a file written by
// a different version is rejected with a *MismatchError.
const SnapshotVersion = 4

// MismatchError reports a snapshot or WAL written for a different
// configuration than the server opening it: a format-version bump, or a
// changed shard geometry (resharding a data directory would scramble the
// key->shard mapping, so it must be an explicit migration, never a
// silent restart).
type MismatchError struct {
	Path  string
	Field string // "version" or "fingerprint"
	Want  string
	Got   string
}

func (e *MismatchError) Error() string {
	return fmt.Sprintf("durable: %s was written for a different configuration: %s is %s, this server needs %s (wipe the data directory or restore the old configuration)",
		e.Path, e.Field, e.Got, e.Want)
}

// snapshotFile is the on-disk snapshot schema.
type snapshotFile struct {
	Version int `json:"version"`
	// Fingerprint pins the shard geometry (checkpoint.Fingerprint over
	// the shard count) so a snapshot can never be replayed into a server
	// with a different key->shard mapping.
	Fingerprint string `json:"fingerprint"`
	// LastLSN is the log sequence number of the last record folded into
	// State; replay skips WAL records at or below it, which is what makes
	// the snapshot-then-truncate rotation crash-safe in both orders.
	LastLSN uint64 `json:"last_lsn"`
	State   *State `json:"state"`
}

// GeometryFingerprint condenses the parts of the server configuration
// that determine the durable state's shape. It reuses the checkpoint
// fingerprint machinery (length-prefixed SHA-256) so the hygiene is
// shared: everything that shapes the state, nothing execution-dependent.
func GeometryFingerprint(shards int) string {
	return checkpoint.Fingerprint("lockd-durable", fmt.Sprint(shards))
}

// writeSnapshot persists st atomically via the checkpoint temp-file+
// rename primitive: a crash mid-snapshot leaves the previous snapshot
// intact, never a torn file.
func writeSnapshot(path, fingerprint string, lastLSN uint64, st *State) error {
	buf, err := json.Marshal(&snapshotFile{
		Version: SnapshotVersion, Fingerprint: fingerprint, LastLSN: lastLSN, State: st,
	})
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
// state (fresh directory); an unparsable file is a typed *CorruptError;
// a version or geometry mismatch is a typed *MismatchError. A loaded
// state has at least the given number of shards (at least one, as Open
// passes it), even if the file's state is null.
func loadSnapshot(path, fingerprint string, shards int) (*State, uint64, error) {
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
	if f.Fingerprint != fingerprint {
		return nil, 0, &MismatchError{Path: path, Field: "fingerprint",
			Want: fingerprint, Got: f.Fingerprint}
	}
	if f.State == nil {
		f.State = &State{}
	}
	if f.State.Sessions == nil {
		f.State.Sessions = map[string]*SessionState{}
	}
	for len(f.State.Shards) < shards {
		f.State.Shards = append(f.State.Shards, &ShardState{})
	}
	return f.State, f.LastLSN, nil
}
