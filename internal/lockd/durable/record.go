// Package durable makes rwlockd's service state survive a server crash:
// a length-prefixed, CRC-framed append-only write-ahead log plus periodic
// snapshots of a shadow state, both under one data directory. On restart
// the Store replays snapshot+WAL (truncating a torn tail), and the server
// bumps a persisted epoch that is folded into every fencing token it
// mints — so tokens granted before a crash are strictly dominated by
// every post-restart token and a stale holder can be fenced out, never
// double-granted, even if the WAL lost its final records.
//
// The durable state is the service's bookkeeping, not the lock algorithms:
// session leases (with absolute expiry deadlines, so the lease sweeper
// re-arms after a restart), held lock entries, one set of ledger
// counters for the whole service, and the per-session at-most-once
// response caches. Fencing counters, queued waiters and the shard a key
// hashes to are not logged: the epoch bump alone keeps post-restart
// tokens above every earlier one and fences every replayed hold, and a
// queued waiter's connection never survives a restart, so no restart
// needs any of them. A data directory therefore restarts under any
// shard count.
// Everything here is real concurrency (files, mutexes) by design and is
// pinned outside the rwlint memdiscipline scope, like the rest of
// internal/lockd.
package durable

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
)

// RecordType enumerates WAL record kinds. Its value is the type byte
// that opens a record's encoded body.
type RecordType uint8

// WAL record kinds. Replay applies them in append order; apply is total —
// a record referencing state that no longer exists (a grant racing a
// lease expiry into the log, say) is accounted for but never panics.
const (
	// RecHello creates a session (id, ttl, absolute expiry).
	RecHello RecordType = iota + 1
	// RecRenew advances a session's absolute expiry deadline. Renewals
	// are coalesced by the server (one record per TTL/4 of advance), so
	// a replayed deadline is stale by at most a quarter lease.
	RecRenew
	// RecBye removes a session cleanly (its holds were released first).
	RecBye
	// RecExpire removes a session whose lease lapsed, revoking its holds.
	RecExpire
	// RecGrant installs a hold and counts the grant in the ledger.
	RecGrant
	// RecRelease removes a hold.
	RecRelease
	// RecResp caches a completed request's response for at-most-once
	// replay across a restart.
	RecResp
	// RecEpoch persists an epoch bump. Applying it fences every hold
	// (counted as revoked), which is exactly the restart semantics: holds
	// never cross an epoch boundary.
	RecEpoch
)

func (t RecordType) valid() bool { return t >= RecHello && t <= RecEpoch }

// Record is one WAL entry. Field usage depends on Type; unused fields
// stay zero.
type Record struct {
	// LSN is the record's log sequence number, strictly increasing over
	// the life of a data directory (it survives snapshot rotation).
	// Replay skips records at or below the snapshot's LastLSN.
	LSN  uint64
	Type RecordType

	Session string
	TTLMS   int64
	// Expiry is the session lease deadline in unix nanoseconds —
	// absolute on purpose, so a restarted sweeper re-arms from it.
	Expiry int64

	Key  string
	Mode string

	Seq uint64
	// Resp is the cached response, stored as opaque bytes.
	Resp json.RawMessage

	Epoch uint64
}

// CorruptError reports a WAL frame that could not be decoded: a CRC
// mismatch (bit flip), an implausible length, or undecodable payload.
// The frame codec returns it typed and never panics; Open's replay
// applies the torn-tail truncation policy on top.
type CorruptError struct {
	// Offset is the byte offset of the bad frame within the log.
	Offset int64
	// Reason is "magic", "length", "crc" or "payload".
	Reason string
	Err    error
}

func (e *CorruptError) Error() string {
	msg := fmt.Sprintf("durable: corrupt WAL frame at offset %d (%s)", e.Offset, e.Reason)
	if e.Err != nil {
		msg += ": " + e.Err.Error()
	}
	return msg
}

func (e *CorruptError) Unwrap() error { return e.Err }

// ShortError reports a frame whose header or payload extends past the end
// of the log — the signature of a torn final write, which replay truncates.
type ShortError struct {
	Offset     int64
	Need, Have int
}

func (e *ShortError) Error() string {
	return fmt.Sprintf("durable: torn WAL frame at offset %d: need %d bytes, have %d", e.Offset, e.Need, e.Have)
}

// Frame layout: 4-byte little-endian body length, 4-byte CRC-32C of the
// body, then the body. MaxFrame bounds a single body; a length field
// beyond it is treated as corruption (a bit flip in the length would
// otherwise send the reader chasing gigabytes).
//
// Body layout: the type byte, then the numbers LSN, TTLMS, Expiry, Seq
// and Epoch (uvarints, signed fields as zigzag varints), then
// Session, Key, Mode and Resp, each a uvarint length and its bytes.
// Every field is present in every record, so each record has exactly one
// encoding: the decoder rejects non-minimal varints and trailing bytes,
// and re-encoding a decoded body gives the same bytes.
const (
	frameHeader = 8
	MaxFrame    = 1 << 20
)

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// AppendFrame encodes rec and appends its frame to buf, returning the
// extended buffer. The body is encoded in place after a reserved header.
func AppendFrame(buf []byte, rec *Record) ([]byte, error) {
	if !rec.Type.valid() {
		return buf, fmt.Errorf("durable: unknown record type %d", uint8(rec.Type))
	}
	start := len(buf)
	buf = append(buf, make([]byte, frameHeader)...)
	buf = append(buf, byte(rec.Type))
	buf = binary.AppendUvarint(buf, rec.LSN)
	buf = binary.AppendVarint(buf, rec.TTLMS)
	buf = binary.AppendVarint(buf, rec.Expiry)
	buf = binary.AppendUvarint(buf, rec.Seq)
	buf = binary.AppendUvarint(buf, rec.Epoch)
	buf = appendBytes(buf, rec.Session)
	buf = appendBytes(buf, rec.Key)
	buf = appendBytes(buf, rec.Mode)
	buf = appendBytes(buf, rec.Resp)
	body := buf[start+frameHeader:]
	if len(body) > MaxFrame {
		return buf[:start], fmt.Errorf("durable: record exceeds %d bytes", MaxFrame)
	}
	binary.LittleEndian.PutUint32(buf[start:], uint32(len(body)))
	binary.LittleEndian.PutUint32(buf[start+4:], crc32.Checksum(body, crcTable))
	return buf, nil
}

func appendBytes[T ~string | ~[]byte](buf []byte, s T) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(s)))
	return append(buf, s...)
}

// errTrailing, errTruncated and errVarint are the body decoder's causes,
// wrapped in a *CorruptError with Reason "payload".
var (
	errTrailing  = errors.New("trailing bytes after record")
	errTruncated = errors.New("truncated field")
	errVarint    = errors.New("varint too long or not minimal")
)

// bodyReader decodes a record body field by field; the first failure
// sticks and later reads return zero values.
type bodyReader struct {
	b   []byte
	err error
}

func (r *bodyReader) uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.b)
	switch {
	case n == 0:
		r.err = errTruncated
		return 0
	case n < 0 || (n > 1 && r.b[n-1] == 0):
		r.err = errVarint
		return 0
	}
	r.b = r.b[n:]
	return v
}

func (r *bodyReader) varint() int64 {
	u := r.uvarint()
	return int64(u>>1) ^ -int64(u&1)
}

func (r *bodyReader) bytes() []byte {
	n := r.uvarint()
	if r.err != nil {
		return nil
	}
	if n > uint64(len(r.b)) {
		r.err = errTruncated
		return nil
	}
	out := r.b[:n]
	r.b = r.b[n:]
	return out
}

// decodeBody decodes one record body into rec, overwriting every field.
// The record owns its strings and Resp: nothing in it aliases body. A
// Session equal to rec's previous one reuses that string, which saves an
// allocation per record on replay, where most records name the session
// of the record before.
func decodeBody(body []byte, rec *Record) error {
	prev := rec.Session
	if len(body) == 0 {
		return errTruncated
	}
	t := RecordType(body[0])
	if !t.valid() {
		return fmt.Errorf("unknown record type %d", body[0])
	}
	r := bodyReader{b: body[1:]}
	*rec = Record{
		Type:   t,
		LSN:    r.uvarint(),
		TTLMS:  r.varint(),
		Expiry: r.varint(),
		Seq:    r.uvarint(),
		Epoch:  r.uvarint(),
	}
	if sess := r.bytes(); string(sess) == prev {
		rec.Session = prev
	} else {
		rec.Session = string(sess)
	}
	rec.Key = string(r.bytes())
	rec.Mode = string(r.bytes())
	if resp := r.bytes(); len(resp) > 0 {
		rec.Resp = append(json.RawMessage(nil), resp...)
	}
	if r.err != nil {
		return r.err
	}
	if len(r.b) > 0 {
		return errTrailing
	}
	return nil
}

// checkFrame verifies the CRC of a complete frame (header plus body) at
// offset off and decodes its body into rec.
func checkFrame(frame []byte, off int64, rec *Record) error {
	body := frame[frameHeader:]
	want := binary.LittleEndian.Uint32(frame[4:8])
	if got := crc32.Checksum(body, crcTable); got != want {
		return &CorruptError{Offset: off, Reason: "crc",
			Err: fmt.Errorf("checksum %08x, frame claims %08x", got, want)}
	}
	if err := decodeBody(body, rec); err != nil {
		return &CorruptError{Offset: off, Reason: "payload", Err: err}
	}
	return nil
}

// ReadLog decodes the frames of a log body (what follows the file magic)
// one at a time from r, calling apply on each. The *Record passed to
// apply is reused for the next frame, so apply must not keep it; the
// strings and Resp it holds are its own and may be kept. ReadLog returns
// the byte length of the valid prefix and the error that ended the scan:
// nil for a clean end, a *ShortError for a torn tail, a *CorruptError for
// a bit flip or garbage frame, or the reader's own I/O error. Replay
// truncates the log to the valid prefix on a *ShortError or
// *CorruptError — framing cannot resynchronize past a bad frame — but the
// typed error lets the caller log a CRC failure louder than an ordinary
// torn write.
func ReadLog(r io.Reader, apply func(*Record)) (int64, error) {
	var (
		off   int64
		frame = make([]byte, frameHeader, 256)
		rec   Record
	)
	for {
		k, err := io.ReadFull(r, frame[:frameHeader])
		if errors.Is(err, io.EOF) {
			return off, nil
		}
		if errors.Is(err, io.ErrUnexpectedEOF) {
			return off, &ShortError{Offset: off, Need: frameHeader, Have: k}
		}
		if err != nil {
			return off, err
		}
		length := binary.LittleEndian.Uint32(frame[0:4])
		if length > MaxFrame {
			return off, &CorruptError{Offset: off, Reason: "length",
				Err: fmt.Errorf("payload length %d exceeds %d", length, MaxFrame)}
		}
		n := int(length)
		if cap(frame) < frameHeader+n {
			frame = append(frame[:frameHeader], make([]byte, n)...)
		}
		frame = frame[:frameHeader+n]
		k, err = io.ReadFull(r, frame[frameHeader:])
		if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
			return off, &ShortError{Offset: off, Need: frameHeader + n, Have: frameHeader + k}
		}
		if err != nil {
			return off, err
		}
		if err := checkFrame(frame, off, &rec); err != nil {
			return off, err
		}
		apply(&rec)
		off += int64(frameHeader + n)
	}
}
