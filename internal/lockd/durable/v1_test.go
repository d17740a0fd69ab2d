package durable_test

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/lockd"
	"repro/internal/lockd/durable"
)

// TestV1DataDirRejected opens copies of the data directories of older
// formats: testdata/v1, a WAL and a snapshot of the version-1 (JSON
// record) format with records of every kind; testdata/v2, the binary
// format of version 2 with its ten record kinds (enqueue and dequeue
// among them, and a queued entry in the snapshot); testdata/v3, the
// eight record kinds of version 3, whose grants carry a counter word and
// a token, and a snapshot with 8×512 counter words; and testdata/v4, the
// eight record kinds of version 4, whose grants and releases name a
// shard, and a snapshot with one set of ledger counters per shard behind
// a shard-count fingerprint. Each file, alone and together, must be
// refused with a typed *MismatchError on the version — not truncated as a
// torn log, not replayed — by durable.Open and by lockd.New, and left
// byte-identical.
func TestV1DataDirRejected(t *testing.T) {
	for _, version := range []string{"v1", "v2", "v3", "v4"} {
		t.Run(version, func(t *testing.T) {
			files := map[string][]byte{}
			for _, name := range []string{"wal.log", "snapshot.json"} {
				b, err := os.ReadFile(filepath.Join("testdata", version, name))
				if err != nil {
					t.Fatal(err)
				}
				files[name] = b
			}
			for _, set := range [][]string{{"wal.log"}, {"snapshot.json"}, {"wal.log", "snapshot.json"}} {
				checkRefused(t, files, set, "*MismatchError on the version", func(err error) bool {
					var me *durable.MismatchError
					return errors.As(err, &me) && me.Field == "version"
				})
			}
		})
	}
}

// TestSnapshotNullSessionRejected: a snapshot of the current version
// whose sessions map holds a null entry is refused with a typed
// *CorruptError by durable.Open and lockd.New, not a nil dereference, and
// left byte-identical. A null state, by contrast, is an empty one.
func TestSnapshotNullSessionRejected(t *testing.T) {
	null := fmt.Sprintf(`{"version":%d,"last_lsn":3,"state":{"epoch":1,"sessions":{"a":{"ttl_ms":100,"expiry":1},"s":null},"counters":{}}}`+"\n",
		durable.SnapshotVersion)
	checkRefused(t, map[string][]byte{"snapshot.json": []byte(null)}, []string{"snapshot.json"},
		`*CorruptError with Reason "payload"`, func(err error) bool {
			var ce *durable.CorruptError
			return errors.As(err, &ce) && ce.Reason == "payload"
		})

	dir := t.TempDir()
	empty := fmt.Sprintf(`{"version":%d,"last_lsn":0,"state":null}`, durable.SnapshotVersion)
	if err := os.WriteFile(filepath.Join(dir, "snapshot.json"), []byte(empty), 0o644); err != nil {
		t.Fatal(err)
	}
	s, info, err := durable.Open(dir, durable.Options{Fsync: durable.FsyncNever})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if !info.SnapshotLoaded || info.Sessions != 0 {
		t.Fatalf("a null state loaded as %+v, want an empty state", info)
	}
	if err := s.Append(&durable.Record{Type: durable.RecGrant, Session: "gone", Key: "k", Mode: "w"}); err != nil {
		t.Fatal(err)
	}
	if c := s.State().Counters; c.WriteGrants != 1 || c.Revoked != 1 {
		t.Fatalf("ledger after a ghost grant on a null state: %+v", c)
	}
}

// checkRefused writes the named files of set into fresh directories and
// requires durable.Open and lockd.New each to fail with an error that
// satisfies want, leaving the directory's files as they were.
func checkRefused(t *testing.T, files map[string][]byte, set []string, what string, want func(error) bool) {
	t.Helper()
	for _, open := range []struct {
		name string
		fn   func(dir string) error
	}{
		{"durable.Open", func(dir string) error {
			s, _, err := durable.Open(dir, durable.Options{})
			if err == nil {
				s.Close()
			}
			return err
		}},
		{"lockd.New", func(dir string) error {
			s, err := lockd.New(lockd.Config{DataDir: dir})
			if err == nil {
				s.Close()
			}
			return err
		}},
	} {
		dir := t.TempDir()
		for _, name := range set {
			if err := os.WriteFile(filepath.Join(dir, name), files[name], 0o644); err != nil {
				t.Fatal(err)
			}
		}
		if err := open.fn(dir); !want(err) {
			t.Errorf("%s with %v: want %s, got %T %v", open.name, set, what, err, err)
		}
		ents, rerr := os.ReadDir(dir)
		if rerr != nil {
			t.Fatal(rerr)
		}
		if len(ents) != len(set) {
			t.Errorf("%s with %v: directory holds %d files afterwards, want %d", open.name, set, len(ents), len(set))
		}
		for _, name := range set {
			if b, err := os.ReadFile(filepath.Join(dir, name)); err != nil || !bytes.Equal(b, files[name]) {
				t.Errorf("%s with %v: %s changed (%v)", open.name, set, name, err)
			}
		}
	}
}
