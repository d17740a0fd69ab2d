package checkpoint

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

func TestFingerprintDistinguishesParts(t *testing.T) {
	if Fingerprint("ab", "c") == Fingerprint("a", "bc") {
		t.Error("concatenation-ambiguous parts produced the same fingerprint")
	}
	if Fingerprint("x") == Fingerprint("x", "") {
		t.Error("trailing empty part produced the same fingerprint")
	}
	if Fingerprint("x", "y") != Fingerprint("x", "y") {
		t.Error("identical parts produced different fingerprints")
	}
}

func TestRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ck.json")
	fp := Fingerprint("sweep", "alg", "scenario")

	s, err := Open(path, false)
	if err != nil {
		t.Fatal(err)
	}
	sec, err := s.Section("crash/FLog", fp, 5)
	if err != nil {
		t.Fatal(err)
	}
	if err := sec.Record(0, []byte(`{"x":1}`)); err != nil {
		t.Fatal(err)
	}
	if err := sec.Record(3, []byte(`{"x":4}`)); err != nil {
		t.Fatal(err)
	}
	if err := sec.Flush(); err != nil {
		t.Fatal(err)
	}

	r, err := Open(path, true)
	if err != nil {
		t.Fatal(err)
	}
	rsec, err := r.Section("crash/FLog", fp, 5)
	if err != nil {
		t.Fatal(err)
	}
	if got := rsec.Done(); got != 2 {
		t.Fatalf("Done() = %d, want 2", got)
	}
	if p, ok := rsec.Restore(0); !ok || string(p) != `{"x":1}` {
		t.Errorf("Restore(0) = %q, %v", p, ok)
	}
	if p, ok := rsec.Restore(3); !ok || string(p) != `{"x":4}` {
		t.Errorf("Restore(3) = %q, %v", p, ok)
	}
	if _, ok := rsec.Restore(1); ok {
		t.Error("Restore(1) reported a row that was never recorded")
	}
}

func TestSectionCallCounterDisambiguates(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ck.json")
	s, err := Open(path, false)
	if err != nil {
		t.Fatal(err)
	}
	// Two sweeps with the same name but different configurations — e.g.
	// E15's stall sweep running the same algorithm on two scenarios.
	a, err := s.Section("stall/AFLog", Fingerprint("sc1"), 3)
	if err != nil {
		t.Fatal(err)
	}
	b, err := s.Section("stall/AFLog", Fingerprint("sc2"), 7)
	if err != nil {
		t.Fatal(err)
	}
	if a.Name() == b.Name() {
		t.Fatalf("both sections bound to slot %q", a.Name())
	}
	if err := a.Record(1, []byte(`1`)); err != nil {
		t.Fatal(err)
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}

	// A resumed process asks in the same order and must see the same slots.
	r, err := Open(path, true)
	if err != nil {
		t.Fatal(err)
	}
	ra, err := r.Section("stall/AFLog", Fingerprint("sc1"), 3)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := ra.Restore(1); !ok {
		t.Error("first slot lost its recorded row across a round trip")
	}
	if _, err := r.Section("stall/AFLog", Fingerprint("sc2"), 7); err != nil {
		t.Errorf("second slot rejected on resume: %v", err)
	}
}

func TestResumeMissingFile(t *testing.T) {
	_, err := Open(filepath.Join(t.TempDir(), "absent.json"), true)
	if !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("Open(resume) on a missing file: %v, want os.ErrNotExist", err)
	}
}

func TestFingerprintMismatchRejected(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ck.json")
	s, _ := Open(path, false)
	if _, err := s.Section("crash/FLog", Fingerprint("seeds=1,2"), 4); err != nil {
		t.Fatal(err)
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}

	r, err := Open(path, true)
	if err != nil {
		t.Fatal(err)
	}
	// Changed seed set → different fingerprint → typed rejection.
	_, err = r.Section("crash/FLog", Fingerprint("seeds=1,2,3"), 4)
	var mm *MismatchError
	if !errors.As(err, &mm) {
		t.Fatalf("changed fingerprint: %v, want *MismatchError", err)
	}
	if mm.Field != "fingerprint" {
		t.Errorf("Field = %q, want fingerprint", mm.Field)
	}
	if !strings.Contains(mm.Error(), "-resume") {
		t.Errorf("error message should tell the user how to start over: %q", mm.Error())
	}
}

func TestTotalMismatchRejected(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ck.json")
	s, _ := Open(path, false)
	fp := Fingerprint("cfg")
	if _, err := s.Section("stall", fp, 4); err != nil {
		t.Fatal(err)
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	r, err := Open(path, true)
	if err != nil {
		t.Fatal(err)
	}
	_, err = r.Section("stall", fp, 9)
	var mm *MismatchError
	if !errors.As(err, &mm) || mm.Field != "rows" {
		t.Fatalf("changed total: %v, want *MismatchError{Field: rows}", err)
	}
}

func TestVersionMismatchRejected(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ck.json")
	if err := os.WriteFile(path, []byte(`{"version":99,"sections":{}}`), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := Open(path, true)
	var mm *MismatchError
	if !errors.As(err, &mm) || mm.Field != "version" {
		t.Fatalf("future-version file: %v, want *MismatchError{Field: version}", err)
	}
}

func TestCorruptFileRejected(t *testing.T) {
	for name, content := range map[string]string{
		"truncated":    `{"version":1,"sections":{"a#1":{"fingerpr`,
		"garbage":      "not json at all\n",
		"null-section": `{"version":1,"sections":{"a#1":null}}`,
	} {
		t.Run(name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "ck.json")
			if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
				t.Fatal(err)
			}
			_, err := Open(path, true)
			var ce *CorruptError
			if !errors.As(err, &ce) {
				t.Fatalf("Open = %v, want *CorruptError", err)
			}
		})
	}
}

func TestFlushIsAtomic(t *testing.T) {
	// A flush over an existing checkpoint must not leave a torn file:
	// the temp file lives in the same directory and is renamed over the
	// target, so the directory never holds a partially written ck.json.
	dir := t.TempDir()
	path := filepath.Join(dir, "ck.json")
	s, _ := Open(path, false)
	fp := Fingerprint("cfg")
	sec, err := s.Section("a", fp, 100)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		if err := sec.Record(i, []byte(`{"i":1}`)); err != nil {
			t.Fatal(err)
		}
		if i%10 == 0 {
			if err := s.Flush(); err != nil {
				t.Fatal(err)
			}
			// Every observable state of the file parses.
			if _, err := Open(path, true); err != nil {
				t.Fatalf("after flush %d: %v", i, err)
			}
		}
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Name() != "ck.json" {
		t.Errorf("directory left with stray files: %v", entries)
	}
}

func TestRecordValidation(t *testing.T) {
	s, _ := Open(filepath.Join(t.TempDir(), "ck.json"), false)
	sec, err := s.Section("a", Fingerprint("cfg"), 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := sec.Record(2, []byte(`1`)); err == nil {
		t.Error("out-of-range index accepted")
	}
	if err := sec.Record(-1, []byte(`1`)); err == nil {
		t.Error("negative index accepted")
	}
	if err := sec.Record(0, []byte(`{"truncated`)); err == nil {
		t.Error("invalid JSON payload accepted")
	}
}

func TestConcurrentRecord(t *testing.T) {
	// Workers record into one section concurrently; run under -race in CI.
	s, _ := Open(filepath.Join(t.TempDir(), "ck.json"), false)
	const n = 200
	sec, err := s.Section("a", Fingerprint("cfg"), n)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := w; i < n; i += 8 {
				if err := sec.Record(i, []byte(`{"i":1}`)); err != nil {
					t.Error(err)
					return
				}
				if i%16 == 0 {
					if err := sec.Flush(); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	if got := sec.Done(); got != n {
		t.Fatalf("Done() = %d, want %d", got, n)
	}
}

// TestFlushMatchesMarshal pins the file Flush writes to what json.Marshal
// writes for the same store, byte for byte, including json.Marshal's
// escaping of <, > and & (and U+2028/U+2029) in keys and payloads, both
// for rows recorded in this run and for rows loaded from a resumed file,
// and across sections cached from an earlier flush. Restore must give
// the same bytes before and after the round trip.
func TestFlushMatchesMarshal(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ck.json")
	marshal := func(s *Store) []byte {
		t.Helper()
		b, err := json.Marshal(&fileFormat{Version: Version, Sections: s.sections})
		if err != nil {
			t.Fatal(err)
		}
		return append(b, '\n')
	}
	check := func(s *Store, when string) {
		t.Helper()
		if err := s.Flush(); err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if want := marshal(s); !bytes.Equal(got, want) {
			t.Fatalf("%s: Flush wrote\n%s\njson.Marshal writes\n%s", when, got, want)
		}
	}
	payloads := []string{
		`{"a":1}`,
		`{ "html": "<b>&amp;</b>", "n": [1, 2 ,3] }`,
		"{\"sep\":\"  \",\"x\":\"a>b\"}",
		`"plain"`,
		`[{"k":"<"},{"k":"&"}]`,
	}
	s, err := Open(path, false)
	if err != nil {
		t.Fatal(err)
	}
	check(s, "empty store")
	a, _ := s.Section("crash/<F&Log>", Fingerprint("a"), 40)
	b, _ := s.Section("b", Fingerprint("b"), 40)
	check(s, "empty sections")
	for i := 0; i < 25; i++ {
		sec := a
		if i%3 == 0 {
			sec = b
		}
		if err := sec.Record(i, []byte(payloads[i%len(payloads)])); err != nil {
			t.Fatal(err)
		}
		if i%4 == 0 {
			check(s, fmt.Sprintf("after row %d", i))
		}
	}
	check(s, "all rows")

	r, err := Open(path, true)
	if err != nil {
		t.Fatal(err)
	}
	ra, _ := r.Section("crash/<F&Log>", Fingerprint("a"), 40)
	rb, err := r.Section("b", Fingerprint("b"), 40)
	if err != nil {
		t.Fatal(err)
	}
	check(r, "resumed")
	// Restore gives the same bytes before and after the file round trip.
	for i := 0; i < 25; i++ {
		sec, rsec := a, ra
		if i%3 == 0 {
			sec, rsec = b, rb
		}
		p, _ := sec.Restore(i)
		q, _ := rsec.Restore(i)
		if !bytes.Equal(p, q) {
			t.Fatalf("row %d: Restore %s before the round trip, %s after", i, p, q)
		}
	}
	for i := 25; i < 40; i++ {
		if err := ra.Record(i, []byte(payloads[i%len(payloads)])); err != nil {
			t.Fatal(err)
		}
	}
	if err := ra.Record(1, []byte(`{"rerecorded":"<x>"}`)); err != nil {
		t.Fatal(err)
	}
	check(r, "resumed and extended")
}
