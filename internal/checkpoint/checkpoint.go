// Package checkpoint makes long-running sweeps crash-safe: it persists
// completed result slots to a versioned on-disk store so an interrupted or
// killed sweep restarts where it stopped instead of from zero.
//
// A Store holds one section per sweep invocation. Each section records the
// sweep's row count, a fingerprint of its configuration (algorithm name,
// scenario, victim/seed/grid sets — everything that determines the results,
// and nothing that doesn't, so the fingerprint is worker-count-independent)
// and the encoded payload of every completed row. On resume, a section
// whose stored fingerprint does not match the current configuration is
// rejected with a typed *MismatchError — a stale checkpoint (changed
// scenario, changed seed set, changed algorithm implementation) must never
// be silently merged into fresh results. An unreadable or truncated file is
// rejected with a typed *CorruptError.
//
// Writes are atomic: Flush writes the whole store to a temp file in the
// destination directory and renames it over the target, so a crash during
// a flush leaves either the previous checkpoint or the new one, never a
// torn file.
//
// Within one process, sections are identified by a human-readable name plus
// a per-name call counter: the k-th Section call for a name binds to slot
// "name#k". Sweeps run in deterministic order inside the cmd binaries, so a
// resumed process asks for the same slots in the same order and each slot's
// fingerprint check compares like with like.
package checkpoint

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
	"sync"
)

// Version is the checkpoint file format version. Files written by a
// different version are rejected with a *MismatchError rather than
// reinterpreted.
const Version = 1

// Fingerprint condenses the parts that determine a sweep's results into a
// fixed-length key. Callers pass every input that shapes the result slots
// (sweep kind, algorithm name, scenario, victims, seeds, reference step
// counts) and nothing execution-dependent (worker counts, timestamps).
func Fingerprint(parts ...string) string {
	h := sha256.New()
	for _, p := range parts {
		// Length-prefix each part so ("ab","c") and ("a","bc") differ.
		fmt.Fprintf(h, "%d:%s", len(p), p)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// MismatchError reports a checkpoint that exists but was written for a
// different configuration (or format version) than the one resuming.
type MismatchError struct {
	// Path is the checkpoint file.
	Path string
	// Section is the section slot in conflict ("" for file-level
	// mismatches such as the format version).
	Section string
	// Field names the mismatched property: "version", "fingerprint" or
	// "rows".
	Field string
	// Want and Got are the expected (current-run) and stored values.
	Want, Got string
}

func (e *MismatchError) Error() string {
	where := e.Path
	if e.Section != "" {
		where += " section " + e.Section
	}
	return fmt.Sprintf("checkpoint: %s was written for a different configuration: %s is %s, current run needs %s (delete the file or rerun without -resume to start over)",
		where, e.Field, e.Got, e.Want)
}

// CorruptError reports a checkpoint file that could not be parsed —
// truncated by a crash mid-rename-window, hand-edited, or not a checkpoint
// at all.
type CorruptError struct {
	Path string
	Err  error
}

func (e *CorruptError) Error() string {
	return fmt.Sprintf("checkpoint: %s is unreadable: %v (delete the file or rerun without -resume to start over)", e.Path, e.Err)
}

func (e *CorruptError) Unwrap() error { return e.Err }

// fileFormat is the on-disk JSON schema.
type fileFormat struct {
	Version  int                       `json:"version"`
	Sections map[string]*sectionFormat `json:"sections"`
}

type sectionFormat struct {
	Fingerprint string                     `json:"fingerprint"`
	Total       int                        `json:"total"`
	Done        map[string]json.RawMessage `json:"done"`

	// What Flush writes, kept from Record on so that a flush assembles
	// bytes instead of re-marshalling every row: keys holds Done's keys
	// in the order json.Marshal sorts them, and cached the section's
	// whole encoding, nil once a row was recorded after it was built.
	keys   []string
	cached []byte
}

// marshalForm returns payload as json.Marshal writes a json.RawMessage:
// compact, with <, >, &, U+2028 and U+2029 escaped.
func marshalForm(payload []byte) ([]byte, error) {
	var compact bytes.Buffer
	if err := json.Compact(&compact, payload); err != nil {
		return nil, err
	}
	if !bytes.ContainsAny(compact.Bytes(), "<>&\u2028\u2029") {
		return compact.Bytes(), nil
	}
	var escaped bytes.Buffer
	json.HTMLEscape(&escaped, compact.Bytes())
	return escaped.Bytes(), nil
}

// put stores enc, a payload in marshalForm, as row key's result.
func (sec *sectionFormat) put(key string, enc []byte) {
	if _, ok := sec.Done[key]; !ok {
		i := sort.SearchStrings(sec.keys, key)
		sec.keys = slices.Insert(sec.keys, i, key)
	}
	sec.Done[key] = enc
	sec.cached = nil
}

// encode returns the section's JSON encoding, byte-identical to
// json.Marshal's.
func (sec *sectionFormat) encode() []byte {
	if sec.cached != nil {
		return sec.cached
	}
	b := append([]byte(`{"fingerprint":`), quote(sec.Fingerprint)...)
	b = append(b, `,"total":`...)
	b = strconv.AppendInt(b, int64(sec.Total), 10)
	b = append(b, `,"done":{`...)
	for i, k := range sec.keys {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(append(append(b, quote(k)...), ':'), sec.Done[k]...)
	}
	sec.cached = append(b, "}}"...)
	return sec.cached
}

// quote returns s as a JSON string, escaped as json.Marshal escapes it.
func quote(s string) []byte {
	b, _ := json.Marshal(s) // a string always marshals
	return b
}

// Store is an on-disk collection of per-sweep checkpoints. It is safe for
// concurrent use by the sweep workers recording into its sections.
type Store struct {
	path string

	mu       sync.Mutex
	sections map[string]*sectionFormat
	calls    map[string]int // per-name Section call counter
}

// Open opens the checkpoint store at path. With resume false it starts
// empty, ignoring any file already there (the first Flush overwrites it).
// With resume true it loads the existing file, returning an error wrapping
// os.ErrNotExist when there is nothing to resume, a *CorruptError when the
// file cannot be parsed, and a *MismatchError when it was written by a
// different format version.
func Open(path string, resume bool) (*Store, error) {
	s := &Store{path: path, sections: map[string]*sectionFormat{}, calls: map[string]int{}}
	if !resume {
		return s, nil
	}
	buf, err := os.ReadFile(path)
	if err != nil {
		if errors.Is(err, os.ErrNotExist) {
			return nil, fmt.Errorf("checkpoint: nothing to resume: %w", err)
		}
		return nil, &CorruptError{Path: path, Err: err}
	}
	var f fileFormat
	if err := json.Unmarshal(buf, &f); err != nil {
		return nil, &CorruptError{Path: path, Err: err}
	}
	if f.Version != Version {
		return nil, &MismatchError{Path: path, Field: "version",
			Want: strconv.Itoa(Version), Got: strconv.Itoa(f.Version)}
	}
	if f.Sections != nil {
		s.sections = f.Sections
	}
	// Rows keep the bytes the file holds: Flush wrote each one in
	// marshalForm already.
	for name, sec := range s.sections {
		if sec == nil {
			return nil, &CorruptError{Path: path, Err: fmt.Errorf("section %q is null", name)}
		}
		if sec.Done == nil {
			sec.Done = map[string]json.RawMessage{}
		}
		for k := range sec.Done {
			sec.keys = append(sec.keys, k)
		}
		sort.Strings(sec.keys)
	}
	return s, nil
}

// Path returns the store's file path.
func (s *Store) Path() string { return s.path }

// Section binds the next call slot for name to a checkpoint section with
// the given fingerprint and row count. A fresh slot starts empty; a slot
// restored from a resumed file must carry the same fingerprint and total or
// the call fails with a *MismatchError — resuming under a changed
// configuration is an error, never a silent merge.
func (s *Store) Section(name, fingerprint string, total int) (*Section, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.calls[name]++
	key := fmt.Sprintf("%s#%d", name, s.calls[name])
	sec, ok := s.sections[key]
	if !ok {
		sec = &sectionFormat{Fingerprint: fingerprint, Total: total, Done: map[string]json.RawMessage{}}
		s.sections[key] = sec
		return &Section{store: s, key: key, sec: sec}, nil
	}
	if sec.Fingerprint != fingerprint {
		return nil, &MismatchError{Path: s.path, Section: key, Field: "fingerprint",
			Want: fingerprint, Got: sec.Fingerprint}
	}
	if sec.Total != total {
		return nil, &MismatchError{Path: s.path, Section: key, Field: "rows",
			Want: strconv.Itoa(total), Got: strconv.Itoa(sec.Total)}
	}
	return &Section{store: s, key: key, sec: sec}, nil
}

// WriteAtomic writes data to path atomically: marshal into a temp file in
// the destination directory, fsync it, and rename it over the target, so a
// crash mid-write leaves either the previous file or the new one, never a
// torn hybrid. It is the write primitive under Store.Flush and is exported
// for other crash-safe writers (the lockd durable snapshot store reuses
// it).
func WriteAtomic(path string, data []byte) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		return fmt.Errorf("write %s: %w", tmp.Name(), err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return fmt.Errorf("sync %s: %w", tmp.Name(), err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("close %s: %w", tmp.Name(), err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return fmt.Errorf("rename: %w", err)
	}
	return nil
}

// Flush atomically persists the whole store: write to a temp file in the
// destination directory, fsync, rename over the target. The file holds
// exactly what json.Marshal writes for a fileFormat, plus a newline:
// compact on purpose, since row payloads are stored verbatim and an
// indenting marshal would reformat them, breaking the byte-for-byte
// Record/Restore round trip the resume determinism contract rests on.
// Only sections with rows recorded since the last flush are re-encoded.
func (s *Store) Flush() error {
	s.mu.Lock()
	names := make([]string, 0, len(s.sections))
	for name := range s.sections {
		names = append(names, name)
	}
	sort.Strings(names)
	buf := append([]byte(`{"version":`), strconv.Itoa(Version)...)
	buf = append(buf, `,"sections":{`...)
	for i, name := range names {
		if i > 0 {
			buf = append(buf, ',')
		}
		buf = append(append(append(buf, quote(name)...), ':'), s.sections[name].encode()...)
	}
	s.mu.Unlock()
	buf = append(buf, "}}\n"...)
	if err := WriteAtomic(s.path, buf); err != nil {
		return fmt.Errorf("checkpoint: %w", err)
	}
	return nil
}

// Section is one sweep's slot view of a Store. It satisfies the sweep
// engine's sink contract (see internal/parwork.Sink): Restore hands back
// payloads recorded by a previous run, Record stores newly completed rows,
// Flush persists the whole store. Safe for concurrent use.
type Section struct {
	store *Store
	key   string
	sec   *sectionFormat
}

// Name returns the section's slot key within the store.
func (c *Section) Name() string { return c.key }

// Done returns the number of recorded rows.
func (c *Section) Done() int {
	c.store.mu.Lock()
	defer c.store.mu.Unlock()
	return len(c.sec.Done)
}

// Restore returns the payload recorded for row i, if any.
func (c *Section) Restore(i int) ([]byte, bool) {
	c.store.mu.Lock()
	defer c.store.mu.Unlock()
	p, ok := c.sec.Done[strconv.Itoa(i)]
	return p, ok
}

// Record stores the payload of newly completed row i. The payload must be
// valid JSON; it is stored as json.Marshal writes it (compact, with <, >
// and & escaped) so that Restore returns the same bytes before and after
// a file round trip.
func (c *Section) Record(i int, payload []byte) error {
	if i < 0 || i >= c.sec.Total {
		return fmt.Errorf("checkpoint: row %d out of range [0,%d)", i, c.sec.Total)
	}
	enc, err := marshalForm(payload)
	if err != nil {
		return fmt.Errorf("checkpoint: row %d payload is not valid JSON: %w", i, err)
	}
	c.store.mu.Lock()
	defer c.store.mu.Unlock()
	c.sec.put(strconv.Itoa(i), enc)
	return nil
}

// Flush persists the owning store.
func (c *Section) Flush() error { return c.store.Flush() }
