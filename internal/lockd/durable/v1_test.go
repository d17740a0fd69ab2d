package durable_test

import (
	"bytes"
	"errors"
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
// among them, and a queued entry in the snapshot); and testdata/v3, the
// eight record kinds of version 3, whose grants carry a counter word and
// a token, and a snapshot with 8×512 counter words. Each file, alone and
// together, must be refused with a typed *MismatchError on the version —
// not truncated as a torn log, not replayed — by durable.Open and by
// lockd.New, and left byte-identical.
func TestV1DataDirRejected(t *testing.T) {
	for _, version := range []string{"v1", "v2", "v3"} {
		t.Run(version, func(t *testing.T) { checkRejected(t, filepath.Join("testdata", version)) })
	}
}

func checkRejected(t *testing.T, fixture string) {
	files := map[string][]byte{}
	for _, name := range []string{"wal.log", "snapshot.json"} {
		b, err := os.ReadFile(filepath.Join(fixture, name))
		if err != nil {
			t.Fatal(err)
		}
		files[name] = b
	}
	for _, set := range [][]string{{"wal.log"}, {"snapshot.json"}, {"wal.log", "snapshot.json"}} {
		for _, open := range []struct {
			name string
			fn   func(dir string) error
		}{
			{"durable.Open", func(dir string) error {
				s, _, err := durable.Open(dir, durable.Options{Shards: 8})
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
			err := open.fn(dir)
			var me *durable.MismatchError
			if !errors.As(err, &me) || me.Field != "version" {
				t.Errorf("%s with %v: want *MismatchError on the version, got %T %v", open.name, set, err, err)
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
}
