package durable

import (
	"bytes"
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"
)

func TestTokenRoundTrip(t *testing.T) {
	cases := []struct{ epoch, counter uint64 }{
		{0, 0}, {1, 1}, {1, 0}, {7, 123456789}, {65535, counterMask},
	}
	for _, c := range cases {
		tok := MakeToken(c.epoch, c.counter)
		if TokenEpoch(tok) != c.epoch {
			t.Errorf("MakeToken(%d,%d): epoch %d", c.epoch, c.counter, TokenEpoch(tok))
		}
		if TokenCounter(tok) != c.counter {
			t.Errorf("MakeToken(%d,%d): counter %d", c.epoch, c.counter, TokenCounter(tok))
		}
	}
	// Epoch dominance: any token of epoch e+1 exceeds any token of epoch e.
	if MakeToken(2, 0) <= MakeToken(1, counterMask) {
		t.Fatal("epoch 2 token does not dominate epoch 1 max token")
	}
}

func TestFrameRoundTrip(t *testing.T) {
	recs := []*Record{
		{LSN: 1, Type: RecHello, Session: "s1", TTLMS: 500, Expiry: 12345},
		{LSN: 2, Type: RecGrant, Session: "s1", Key: "k", Mode: "w"},
		{LSN: 3, Type: RecResp, Session: "s1", Seq: 4, Resp: []byte(`{"seq":4,"ok":true}`)},
		{LSN: 4, Type: RecRelease, Session: "s1", Key: "k", Mode: "r", TTLMS: -300, Expiry: -1},
		{LSN: 5, Type: RecEpoch, Epoch: 2},
	}
	var buf []byte
	for _, r := range recs {
		var err error
		if buf, err = AppendFrame(buf, r); err != nil {
			t.Fatal(err)
		}
	}
	got, valid, err := readAll(buf)
	if err != nil {
		t.Fatalf("ReadLog: %v", err)
	}
	if valid != int64(len(buf)) {
		t.Fatalf("valid prefix %d, want %d", valid, len(buf))
	}
	if len(got) != len(recs) {
		t.Fatalf("decoded %d records, want %d", len(got), len(recs))
	}
	for i, r := range got {
		if !reflect.DeepEqual(r, recs[i]) {
			t.Errorf("record %d: got %+v want %+v", i, r, recs[i])
		}
	}
}

func TestReadLogTornTail(t *testing.T) {
	var buf []byte
	for i := 1; i <= 3; i++ {
		var err error
		if buf, err = AppendFrame(buf, &Record{LSN: uint64(i), Type: RecRenew, Session: "s"}); err != nil {
			t.Fatal(err)
		}
	}
	full := int64(len(buf))
	// Chop the log at every possible byte boundary: the valid prefix must
	// always be a whole number of frames and the tail error typed.
	for cut := 0; cut < len(buf); cut++ {
		recs, valid, err := readAll(buf[:cut])
		if valid > int64(cut) {
			t.Fatalf("cut %d: valid prefix %d past end", cut, valid)
		}
		if int64(cut) < full && err == nil && valid != int64(cut) {
			t.Fatalf("cut %d: clean scan ended at %d", cut, valid)
		}
		if err != nil {
			var se *ShortError
			if !errors.As(err, &se) {
				t.Fatalf("cut %d: want *ShortError, got %T %v", cut, err, err)
			}
		}
		for i, r := range recs {
			if r.LSN != uint64(i+1) {
				t.Fatalf("cut %d: record %d has LSN %d", cut, i, r.LSN)
			}
		}
	}
}

func TestReadLogBitFlip(t *testing.T) {
	var buf []byte
	var err error
	if buf, err = AppendFrame(buf, &Record{LSN: 1, Type: RecHello, Session: "s"}); err != nil {
		t.Fatal(err)
	}
	one := len(buf)
	if buf, err = AppendFrame(buf, &Record{LSN: 2, Type: RecBye, Session: "s"}); err != nil {
		t.Fatal(err)
	}
	// Flip one payload bit in the second frame: CRC must catch it, the
	// first frame must survive, and the error must be typed corruption.
	buf[one+frameHeader+2] ^= 0x40
	recs, valid, scanErr := readAll(buf)
	var ce *CorruptError
	if !errors.As(scanErr, &ce) || ce.Reason != "crc" {
		t.Fatalf("want *CorruptError(crc), got %T %v", scanErr, scanErr)
	}
	if len(recs) != 1 || valid != int64(one) {
		t.Fatalf("valid prefix: %d records / %d bytes, want 1 / %d", len(recs), valid, one)
	}
	// An implausible length field is corruption too, not a huge ShortError.
	binary.LittleEndian.PutUint32(buf[one:], MaxFrame+1)
	_, _, scanErr = readAll(buf)
	if !errors.As(scanErr, &ce) || ce.Reason != "length" {
		t.Fatalf("want *CorruptError(length), got %T %v", scanErr, scanErr)
	}
}

func TestApplyLifecycleAndLedger(t *testing.T) {
	st := NewState()
	st.Apply(&Record{Type: RecHello, Session: "a", TTLMS: 100, Expiry: 50})
	st.Apply(&Record{Type: RecHello, Session: "b", TTLMS: 100, Expiry: 60})
	st.Apply(&Record{Type: RecGrant, Session: "a", Key: "k", Mode: "w"})
	if len(st.Sessions) != 2 || st.Sessions["b"].Expiry != 60 {
		t.Fatalf("sessions after hello: %+v", st.Sessions)
	}
	if got := st.Counters.WriteGrants; got != 1 {
		t.Fatalf("write grants = %d, want 1", got)
	}
	if holds := st.HoldCount(); holds != 1 {
		t.Fatalf("holds=%d", holds)
	}

	// Release drains cleanly.
	st.Apply(&Record{Type: RecRelease, Session: "a", Key: "k", Mode: "w"})
	if h := st.HoldCount(); h != 0 {
		t.Fatalf("after release: holds=%d", h)
	}
	if st.Counters.Releases != 1 {
		t.Fatalf("releases = %d", st.Counters.Releases)
	}

	// A ghost grant (session already expired out of the log) still lands
	// in the ledger as an immediately revoked passage.
	st.Apply(&Record{Type: RecExpire, Session: "a"})
	st.Apply(&Record{Type: RecGrant, Session: "a", Key: "k2", Mode: "w"})
	c := st.Counters
	if c.WriteGrants != 2 || c.Revoked != 1 || c.RevokedWrite != 1 {
		t.Fatalf("ghost grant counters: %+v", c)
	}

	// Epoch bump fences the remaining holds.
	st.Apply(&Record{Type: RecGrant, Session: "b", Key: "k3", Mode: "r"})
	st.Apply(&Record{Type: RecEpoch, Epoch: 2})
	if st.Epoch != 2 {
		t.Fatalf("epoch = %d", st.Epoch)
	}
	if h := st.HoldCount(); h != 0 {
		t.Fatalf("after epoch bump: holds=%d", h)
	}
	if c := st.Counters; c.ReadGrants != 1 || c.Fenced != 1 || c.FencedWrite != 0 || c.Revoked != 2 {
		t.Fatalf("counters after the epoch bump: %+v", c)
	}
	// Sessions themselves survive the bump (leases persist; holds do not).
	if _, ok := st.Sessions["b"]; !ok {
		t.Fatal("session b did not survive the epoch bump")
	}
}

func TestApplyRespCacheCapAndMaxSeq(t *testing.T) {
	st := NewState()
	st.Apply(&Record{Type: RecHello, Session: "s"})
	for i := 1; i <= RespCacheCap+10; i++ {
		st.Apply(&Record{Type: RecResp, Session: "s", Seq: uint64(i), Resp: []byte(`{"ok":true}`)})
	}
	s := st.Sessions["s"]
	if len(s.Resps) != RespCacheCap {
		t.Fatalf("cache size %d, want %d", len(s.Resps), RespCacheCap)
	}
	if s.MaxSeq != uint64(RespCacheCap+10) {
		t.Fatalf("MaxSeq = %d", s.MaxSeq)
	}
	if s.Resps[0].Seq != 11 {
		t.Fatalf("oldest cached seq %d, want 11 (FIFO eviction)", s.Resps[0].Seq)
	}
}

func TestStoreReopenReplaysAndBumpsEpoch(t *testing.T) {
	dir := t.TempDir()
	opts := Options{Fsync: FsyncNever}
	s, info, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	if info.SnapshotLoaded || info.Replayed != 0 {
		t.Fatalf("fresh dir recovery: %+v", info)
	}
	if _, err := s.BumpEpoch(); err != nil {
		t.Fatal(err)
	}
	mustAppend(t, s, &Record{Type: RecHello, Session: "s", TTLMS: 1000, Expiry: time.Now().Add(time.Hour).UnixNano()})
	mustAppend(t, s, &Record{Type: RecGrant, Session: "s", Key: "k", Mode: "w"})
	s.Crash() // kill -9: no snapshot, no final sync

	s2, info2, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if info2.Replayed == 0 || info2.Sessions != 1 || info2.Holds != 1 {
		t.Fatalf("reopen recovery: %+v", info2)
	}
	if info2.Epoch != 1 {
		t.Fatalf("recovered epoch %d, want 1", info2.Epoch)
	}
	ep, err := s2.BumpEpoch()
	if err != nil {
		t.Fatal(err)
	}
	if ep != 2 {
		t.Fatalf("bumped epoch %d, want 2", ep)
	}
	st := s2.State()
	if h := st.HoldCount(); h != 0 {
		t.Fatalf("post-bump holds=%d", h)
	}
	want := Counters{WriteGrants: 1, Revoked: 1, RevokedWrite: 1, Fenced: 1, FencedWrite: 1}
	if st.Counters != want {
		t.Fatalf("restored ledger %+v, want %+v", st.Counters, want)
	}
}

func TestStoreSnapshotRotationAndTornTail(t *testing.T) {
	dir := t.TempDir()
	opts := Options{Fsync: FsyncNever, SnapshotEvery: 8}
	s, _, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	mustAppend(t, s, &Record{Type: RecHello, Session: "s"})
	for i := 0; i < 40; i++ {
		mustAppend(t, s, &Record{Type: RecRenew, Session: "s", Expiry: int64(i)})
	}
	// Rotation must have happened: the WAL holds fewer frames than were
	// appended.
	wal, err := os.ReadFile(filepath.Join(dir, "wal.log"))
	if err != nil {
		t.Fatal(err)
	}
	recs, _, scanErr := readAll(wal[len(walMagic):])
	if scanErr != nil {
		t.Fatal(scanErr)
	}
	if len(recs) >= 41 {
		t.Fatalf("WAL holds %d records; snapshot rotation never truncated it", len(recs))
	}
	s.Crash()

	// Tear the WAL tail mid-frame; reopen must truncate and still recover
	// the session.
	if len(wal) > 3 {
		if err := os.Truncate(filepath.Join(dir, "wal.log"), int64(len(wal)-3)); err != nil {
			t.Fatal(err)
		}
	}
	s2, info, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if info.Sessions != 1 {
		t.Fatalf("sessions after torn reopen = %d", info.Sessions)
	}
	if len(wal) > int(3+int64(len(walMagic))) && info.TornBytes == 0 {
		t.Fatalf("expected torn bytes, got %+v", info)
	}
}

func TestOpenRejectsForeignWAL(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "wal.log"), []byte("definitely not a WAL file......."), 0o644); err != nil {
		t.Fatal(err)
	}
	_, _, err := Open(dir, Options{})
	var ce *CorruptError
	if !errors.As(err, &ce) || ce.Reason != "magic" {
		t.Fatalf("want *CorruptError(magic), got %T %v", err, err)
	}
}

// readAll scans a log body with ReadLog, keeping a copy of every record.
func readAll(b []byte) ([]*Record, int64, error) {
	var recs []*Record
	valid, err := ReadLog(bytes.NewReader(b), func(r *Record) {
		cp := *r
		recs = append(recs, &cp)
	})
	return recs, valid, err
}

func mustAppend(t *testing.T, s *Store, rec *Record) {
	t.Helper()
	if err := s.Append(rec); err != nil {
		t.Fatal(err)
	}
}
