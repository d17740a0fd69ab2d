package durable

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// everyTypeRecords returns one record of each of the eight kinds, with
// every field the server sets for that kind.
func everyTypeRecords() []*Record {
	return []*Record{
		{LSN: 1, Type: RecEpoch, Epoch: 1},
		{LSN: 2, Type: RecHello, Session: "3f9a0c21d4e5b687", TTLMS: 5000, Expiry: 1760000000123456789},
		{LSN: 3, Type: RecRenew, Session: "3f9a0c21d4e5b687", Expiry: 1760000001123456789},
		{LSN: 4, Type: RecGrant, Session: "3f9a0c21d4e5b687", Key: "k", Mode: "w"},
		{LSN: 5, Type: RecResp, Session: "3f9a0c21d4e5b687", Seq: 7, Resp: []byte(`{"seq":7,"ok":true,"passage":281474976710698}`)},
		{LSN: 6, Type: RecRelease, Session: "3f9a0c21d4e5b687", Key: "k", Mode: "w"},
		{LSN: 7, Type: RecBye, Session: "3f9a0c21d4e5b687"},
		{LSN: 8, Type: RecExpire, Session: "a"},
	}
}

// crashScript returns a seeded script of n records (n >= 8) that covers
// all eight record kinds: the first eight are one of each kind in a seeded
// order, the rest are drawn at random over a few sessions and keys.
// Records that name missing sessions are kept on purpose: Apply must
// account for them the same way on every path.
func crashScript(seed int64, n int) []*Record {
	rnd := rand.New(rand.NewSource(seed))
	sessions := []string{"a", "b7f3", "c0ffee00d00d1234"}
	keys := []string{"k", "key-2", "ключ", "<&>"}
	var epoch, seq uint64
	rec := func(t RecordType) *Record {
		r := &Record{Type: t, Session: sessions[rnd.Intn(len(sessions))]}
		switch t {
		case RecHello:
			r.TTLMS = 50 + rnd.Int63n(5000)
			r.Expiry = 1_760_000_000_000_000_000 + rnd.Int63n(1e12)
		case RecRenew:
			r.Expiry = 1_760_000_000_000_000_000 + rnd.Int63n(1e12)
		case RecBye, RecExpire:
		case RecGrant, RecRelease:
			r.Key = keys[rnd.Intn(len(keys))]
			r.Mode = []string{"r", "w"}[rnd.Intn(2)]
		case RecResp:
			seq += 1 + uint64(rnd.Intn(3))
			r.Seq = seq
			r.Resp = []byte(fmt.Sprintf(`{"seq":%d,"ok":true,"passage":%d}`, seq, rnd.Uint64()))
		case RecEpoch:
			epoch++
			r.Session, r.Epoch = "", epoch
		}
		return r
	}
	var out []*Record
	for _, i := range rnd.Perm(int(RecEpoch)) {
		out = append(out, rec(RecordType(i+1)))
	}
	// Weighted toward the kinds that build state, so later records find
	// sessions and holds to act on.
	kinds := []RecordType{RecHello, RecHello, RecGrant, RecGrant, RecGrant, RecResp, RecResp,
		RecRelease, RecRelease, RecRenew, RecBye, RecExpire, RecEpoch}
	for len(out) < n {
		out = append(out, rec(kinds[rnd.Intn(len(kinds))]))
	}
	return out
}

// TestCrashPointRecovery is the store-level crash-point oracle for the
// WAL. For each seed it writes a script through a Store, then, for every
// record boundary k and every byte offset inside record k+1, cuts a copy
// of the WAL there and opens it. The recovered state must deep-equal
// NewState after Apply of records 1..k — computed from the script, not
// from the codec — the next LSN must be k+1, and the torn bytes must be
// exactly the cut-off part with a typed reason. A probe record appended
// after recovery must survive a second crash, which fails unless the
// torn tail was truncated. Each frame is then corrupted behind a valid
// prefix: a bit flip (CRC), and bodies re-framed with a valid CRC but
// one byte too many or too few (payload); recovery must stop at k.
func TestCrashPointRecovery(t *testing.T) {
	const n = 40
	for _, seed := range []int64{1, 2} {
		checkCrashPoints(t, seed, crashScript(seed, n))
	}
}

func checkCrashPoints(t *testing.T, seed int64, script []*Record) {
	opts := Options{Fsync: FsyncNever}
	src := t.TempDir()
	s, _, err := Open(src, opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range script {
		mustAppend(t, s, r)
	}
	s.Crash()
	wal, err := os.ReadFile(filepath.Join(src, "wal.log"))
	if err != nil {
		t.Fatal(err)
	}

	// want[k] is the state after records 1..k; ends[k] is the byte offset
	// of the end of frame k, read from the frame headers alone. States are
	// compared as clones, the form Store.State returns, because Clone
	// turns a nil response cache into an empty one.
	want := []*State{NewState()}
	for _, r := range script {
		st := want[len(want)-1].Clone()
		st.Apply(r)
		want = append(want, st)
	}
	ends := []int{len(walMagic)}
	for off := len(walMagic); off < len(wal); {
		off += frameHeader + int(binary.LittleEndian.Uint32(wal[off:]))
		ends = append(ends, off)
	}
	if len(ends) != len(script)+1 || ends[len(script)] != len(wal) {
		t.Fatalf("seed %d: WAL holds %d frames ending at %d, want %d ending at %d",
			seed, len(ends)-1, ends[len(ends)-1], len(script), len(wal))
	}

	dir := t.TempDir()
	path := filepath.Join(dir, "wal.log")
	// recoverAt writes file as the WAL, opens it, and checks recovery of
	// records 1..k with the given torn byte count and reason.
	recoverAt := func(file []byte, k int, torn int64, reason func(error) bool, where string) {
		t.Helper()
		if err := os.WriteFile(path, file, 0o644); err != nil {
			t.Fatal(err)
		}
		s, info, err := Open(dir, opts)
		if err != nil {
			t.Fatalf("seed %d k %d %s: Open: %v", seed, k, where, err)
		}
		if got := s.State(); !reflect.DeepEqual(got, want[k].Clone()) || info.Replayed != k {
			s.Crash()
			t.Fatalf("seed %d k %d %s: replayed %d records; state\n got %+v\nwant %+v",
				seed, k, where, info.Replayed, dump(got), dump(want[k]))
		}
		if info.TornBytes != torn || !reason(info.TornReason) {
			s.Crash()
			t.Fatalf("seed %d k %d %s: torn %d bytes (%T %v), want %d",
				seed, k, where, info.TornBytes, info.TornReason, info.TornReason, torn)
		}
		probe := &Record{Type: RecHello, Session: "probe", TTLMS: 1, Expiry: int64(k)}
		mustAppend(t, s, probe)
		s.Crash()
		if probe.LSN != uint64(k+1) {
			t.Fatalf("seed %d k %d %s: next LSN %d, want %d", seed, k, where, probe.LSN, k+1)
		}
		s, info, err = Open(dir, opts)
		if err != nil {
			t.Fatalf("seed %d k %d %s: reopen: %v", seed, k, where, err)
		}
		st := want[k].Clone()
		st.Apply(probe)
		if got := s.State(); !reflect.DeepEqual(got, st.Clone()) || info.Replayed != k+1 || info.TornBytes != 0 {
			s.Crash()
			t.Fatalf("seed %d k %d %s: after a probe append and a second crash: replayed %d, torn %d; state\n got %+v\nwant %+v",
				seed, k, where, info.Replayed, info.TornBytes, dump(got), dump(st))
		}
		s.Crash()
	}
	isNil := func(err error) bool { return err == nil }
	isShort := func(err error) bool {
		var se *ShortError
		return errors.As(err, &se)
	}
	isCorrupt := func(reason string) func(error) bool {
		return func(err error) bool {
			var ce *CorruptError
			return errors.As(err, &ce) && ce.Reason == reason
		}
	}

	rnd := rand.New(rand.NewSource(seed))
	for k := 0; k <= len(script); k++ {
		recoverAt(wal[:ends[k]], k, 0, isNil, "offset 0")
		if k == len(script) {
			break
		}
		for off := 1; off < ends[k+1]-ends[k]; off++ {
			recoverAt(wal[:ends[k]+off], k, int64(off), isShort, fmt.Sprintf("offset %d", off))
		}
		tail := int64(len(wal) - ends[k])
		frame := wal[ends[k]:ends[k+1]]
		body := frame[frameHeader:]
		rest := wal[ends[k+1]:]
		splice := func(mid []byte) []byte {
			out := append(append([]byte(nil), wal[:ends[k]]...), mid...)
			return append(out, rest...)
		}

		bit := rnd.Intn(8 * len(frame[4:]))
		flipped := append([]byte(nil), frame...)
		flipped[4+bit/8] ^= 1 << (bit % 8)
		recoverAt(splice(flipped), k, tail, isCorrupt("crc"), fmt.Sprintf("offset %d (bit flip)", 4+bit/8))

		long := frameOf(append(append([]byte(nil), body...), 0))
		recoverAt(splice(long), k, tail+1, isCorrupt("payload"), fmt.Sprintf("offset %d (trailing byte)", len(frame)))
		short := frameOf(body[:len(body)-1])
		recoverAt(splice(short), k, tail-1, isCorrupt("payload"), fmt.Sprintf("offset %d (body cut short)", len(frame)-1))
	}
}

// dump renders a state with its sessions spelled out, for failure
// messages.
func dump(st *State) string {
	out := fmt.Sprintf("epoch %d ledger %+v", st.Epoch, st.Counters)
	for _, id := range st.SessionIDs() {
		out += fmt.Sprintf("\n  %s %+v", id, *st.Sessions[id])
	}
	return out
}
