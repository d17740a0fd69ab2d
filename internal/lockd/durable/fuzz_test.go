package durable

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// FuzzDecodeFrame feeds arbitrary bytes to ReadLog and checks the first
// frame it decodes: any input must yield a record, a *ShortError, or a
// *CorruptError — never a panic and never an untyped failure — and a
// record must re-encode to exactly its frame's bytes. Every record
// decoded is then applied to a fresh State, which must not panic. Torn
// writes, truncated tails, and bit flips are all just byte strings here.
func FuzzDecodeFrame(f *testing.F) {
	good, _ := AppendFrame(nil, &Record{LSN: 1, Type: RecGrant, Session: "s", Key: "k", Mode: "w"})
	f.Add(good)
	f.Add(good[:len(good)-1])                         // torn tail
	f.Add([]byte{})                                   // empty
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0}) // absurd length
	flipped := append([]byte(nil), good...)
	flipped[frameHeader+1] ^= 0x01
	f.Add(flipped) // bit flip in payload
	for _, rec := range everyTypeRecords() {
		frame, _ := AppendFrame(nil, rec)
		f.Add(frame)
	}
	// Well-framed bodies the decoder must refuse: trailing bytes, a
	// non-minimal varint, an unknown type byte, a string running past
	// the body.
	body := good[frameHeader:]
	f.Add(frameOf(append(append([]byte(nil), body...), 0)))
	f.Add(frameOf(append([]byte{byte(RecGrant), 0x81, 0x00}, body[2:]...)))
	f.Add(frameOf(append([]byte{0xee}, body[1:]...)))
	f.Add(frameOf(body[:len(body)-1]))
	// The two type bytes past RecEpoch were resp and epoch in WAL
	// version 2; here they are unknown kinds.
	for typ := RecEpoch + 1; typ <= RecEpoch+2; typ++ {
		f.Add(frameOf(append([]byte{byte(typ)}, body[1:]...)))
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		recs, _, err := readAll(b)
		st := NewState()
		st.Apply(&Record{Type: RecHello, Session: "s"})
		for _, r := range recs {
			st.Apply(r)
		}
		if len(recs) == 0 {
			var se *ShortError
			var ce *CorruptError
			switch {
			case err == nil && len(b) > 0:
				t.Fatalf("clean scan of %d bytes delivered no record", len(b))
			case err != nil && !errors.As(err, &se) && !errors.As(err, &ce):
				t.Fatalf("untyped decode error %T: %v", err, err)
			}
			return
		}
		// One encoding per record: a cleanly decoded frame re-encodes to
		// exactly the bytes it was decoded from.
		rec := recs[0]
		n := frameHeader + int(binary.LittleEndian.Uint32(b[0:4]))
		re, rerr := AppendFrame(nil, rec)
		if rerr != nil {
			t.Fatalf("re-encode of decoded record failed: %v", rerr)
		}
		if !bytes.Equal(re, b[:n]) {
			t.Fatalf("round trip changed the frame:\n got %x\nwant %x", re, b[:n])
		}
		recs2, valid2, err2 := readAll(re)
		if err2 != nil || valid2 != int64(n) || len(recs2) != 1 || !reflect.DeepEqual(rec, recs2[0]) {
			t.Fatalf("re-decode: %d recs / %d bytes / %v; want %+v", len(recs2), valid2, err2, rec)
		}
	})
}

// FuzzReadLog checks the streaming log scan: the valid prefix must be
// exactly the re-encoding of the records it delivered, the tail error
// typed, and truncation-to-prefix idempotent (scanning the prefix again
// is clean) — the property torn-tail recovery relies on.
func FuzzReadLog(f *testing.F) {
	var log []byte
	for i := 1; i <= 3; i++ {
		log, _ = AppendFrame(log, &Record{LSN: uint64(i), Type: RecRenew, Session: "s", Expiry: int64(i)})
	}
	f.Add(log)
	f.Add(log[:len(log)-5])
	corrupt := append([]byte(nil), log...)
	corrupt[len(corrupt)/2] ^= 0x80
	f.Add(corrupt)
	var lenBomb [frameHeader]byte
	binary.LittleEndian.PutUint32(lenBomb[0:4], MaxFrame+1)
	f.Add(append(append([]byte(nil), log...), lenBomb[:]...))
	var all []byte
	for _, rec := range everyTypeRecords() {
		all, _ = AppendFrame(all, rec)
	}
	f.Add(all)
	f.Fuzz(func(t *testing.T, b []byte) {
		recs, valid, err := readAll(b)
		if valid < 0 || valid > int64(len(b)) {
			t.Fatalf("valid prefix %d out of range [0,%d]", valid, len(b))
		}
		if err != nil {
			var se *ShortError
			var ce *CorruptError
			if !errors.As(err, &se) && !errors.As(err, &ce) {
				t.Fatalf("untyped scan error %T: %v", err, err)
			}
		} else if valid != int64(len(b)) {
			t.Fatalf("clean scan stopped at %d of %d", valid, len(b))
		}
		var re []byte
		for _, r := range recs {
			re, _ = AppendFrame(re, r)
		}
		if !bytes.Equal(re, b[:valid]) {
			t.Fatalf("re-encoded records differ from the valid prefix (%d vs %d bytes)", len(re), valid)
		}
		recs2, valid2, err2 := readAll(b[:valid])
		if err2 != nil || valid2 != valid || len(recs2) != len(recs) {
			t.Fatalf("prefix rescan: %d recs / %d bytes / %v, want %d / %d / nil",
				len(recs2), valid2, err2, len(recs), valid)
		}
		// Applying any decoded sequence must never panic (apply is total).
		st := NewState()
		for _, r := range recs {
			st.Apply(r)
		}
	})
}

// FuzzWALFileReplay drives replayWAL through arbitrary file contents:
// every outcome is a typed fatal that leaves the file as it was (wrong
// magic, or a WAL of another version), or a truncate-to-valid-prefix
// recovery whose second replay is clean and torn-free. The WALs of the
// version-2, version-3 and version-4 fixtures are seeds: each must be
// refused as another version.
func FuzzWALFileReplay(f *testing.F) {
	var log []byte
	log = append(log, walMagic...)
	log, _ = AppendFrame(log, &Record{LSN: 1, Type: RecHello, Session: "s"})
	f.Add(log)
	f.Add(log[:len(log)-2])
	f.Add([]byte("not a wal"))
	v1 := append([]byte(walMagicName+"\x01\n"), log[len(walMagic):]...)
	f.Add(v1)
	for _, version := range []string{"v2", "v3", "v4"} {
		old, err := os.ReadFile(filepath.Join("testdata", version, "wal.log"))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(old)
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		path := t.TempDir() + "/wal.log"
		if err := os.WriteFile(path, b, 0o644); err != nil {
			t.Skip()
		}
		n := 0
		torn, tornReason, err := replayWAL(path, func(*Record) { n++ })
		name := len(walMagicName)
		if len(b) >= len(walMagic) && string(b[:name]) == walMagicName && b[name] != walVersion && b[name+1] == '\n' {
			var me *MismatchError
			if !errors.As(err, &me) {
				t.Fatalf("a WAL of version %d: want *MismatchError, got %T %v", b[name], err, err)
			}
		}
		if err != nil {
			var ce *CorruptError
			var me *MismatchError
			if !errors.As(err, &ce) && !errors.As(err, &me) {
				t.Fatalf("untyped replay error %T: %v", err, err)
			}
			if me != nil && me.Field != "version" {
				t.Fatalf("mismatch on %q, want version", me.Field)
			}
			if after, rerr := os.ReadFile(path); rerr != nil || !bytes.Equal(after, b) {
				t.Fatalf("a rejected WAL was modified (%v)", rerr)
			}
			return
		}
		if torn > 0 && tornReason == nil {
			t.Fatal("torn bytes without a typed reason")
		}
		n2 := 0
		torn2, _, err2 := replayWAL(path, func(*Record) { n2++ })
		if err2 != nil || torn2 != 0 || n2 != n {
			t.Fatalf("second replay not clean: %d recs torn=%d err=%v", n2, torn2, err2)
		}
	})
}

// frameOf frames body with a correct length and CRC, so only the body
// decoder can refuse it.
func frameOf(body []byte) []byte {
	var hdr [frameHeader]byte
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(body)))
	binary.LittleEndian.PutUint32(hdr[4:8], crc32.Checksum(body, crcTable))
	return append(hdr[:], body...)
}
