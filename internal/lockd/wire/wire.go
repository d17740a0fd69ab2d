// Package wire defines the rwlockd client/server protocol: newline-
// delimited JSON messages over a byte stream, one Request or Response per
// line. The framing is deliberately trivial — every message fits in one
// Write call, which is what lets the chaos transport (internal/lockd)
// drop, delay, duplicate, or reorder whole messages without having to
// understand a binary format.
//
// Reliability model: the transport between client and server is assumed
// lossy (the chaos layer makes it so on purpose). Every request carries a
// client-chosen sequence number; the server keeps, per session, a bounded
// cache of recent responses and answers a retransmitted seq from the cache
// instead of re-executing the operation. Acquire/release are therefore
// at-most-once: a retried acquire whose original response was lost returns
// the original grant (same passage token), never a second grant.
package wire

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
)

// Ops. The first request on a connection must be OpHello, which creates
// the connection's session and lease; every subsequent request implicitly
// renews the lease.
const (
	OpHello     = "hello"
	OpHeartbeat = "heartbeat"
	OpAcquire   = "acquire"
	OpRelease   = "release"
	OpStats     = "stats"
	OpBye       = "bye"
)

// Lock modes.
const (
	ModeRead  = "r"
	ModeWrite = "w"
)

// Error codes carried in Response.Code. internal/lockd maps each to a
// typed sentinel error on the client side.
const (
	CodeTimeout    = "timeout"     // deadline passed (or tryacquire found the lock busy)
	CodeShed       = "shed"        // bounded wait queue full, load shed
	CodeRevoked    = "revoked"     // session lease expired while waiting
	CodeDraining   = "draining"    // server is draining, no new acquires
	CodeExpired    = "expired"     // session lease already expired
	CodeBadRequest = "bad-request" // malformed or semantically invalid request
	// CodeRecovering: the server is replaying its WAL after a restart and
	// not yet serving; retry after a reconnect backoff.
	CodeRecovering = "recovering"
	// CodeEpochFenced: the request carried a fencing token minted under
	// an earlier server epoch. The hold it refers to did not survive the
	// restart — the client must surrender it and reacquire.
	CodeEpochFenced = "epoch-fenced"
)

// Request is one client->server message.
type Request struct {
	// Seq is the client-chosen sequence number, strictly increasing per
	// connection. Retransmits of the same logical request reuse the seq so
	// the server can deduplicate.
	Seq uint64 `json:"seq"`
	Op  string `json:"op"`
	// Key names the lock for acquire/release.
	Key string `json:"key,omitempty"`
	// Mode is ModeRead or ModeWrite for acquire/release.
	Mode string `json:"mode,omitempty"`
	// WaitMS bounds how long an acquire may block server-side before
	// failing with CodeTimeout. Zero means tryacquire: fail immediately
	// when the lock is not grantable.
	WaitMS int64 `json:"wait_ms,omitempty"`
	// TTLMS is the requested session lease TTL (hello only); the server
	// clamps it to its configured bounds and returns the granted value.
	TTLMS int64 `json:"ttl_ms,omitempty"`
	// Session, on hello, asks to resume an existing session after a
	// reconnect (its lease, holds, and response cache survive a server
	// restart via the WAL). If the session is unknown or expired the
	// server mints a fresh one; Response.Resumed says which happened.
	Session string `json:"session,omitempty"`
	// Passage, on release, is the hold's fencing token. A token minted
	// under an earlier server epoch is answered with CodeEpochFenced:
	// the hold was fenced out during restart recovery and the client
	// must surrender it. Zero skips the check (legacy clients).
	Passage uint64 `json:"passage,omitempty"`
}

// Response is one server->client message, matched to its request by Seq.
type Response struct {
	Seq uint64 `json:"seq"`
	OK  bool   `json:"ok"`
	// Code classifies a failure (OK == false); Err is the human-readable
	// detail.
	Code string `json:"code,omitempty"`
	Err  string `json:"err,omitempty"`
	// Session and TTLMS answer a hello. Resumed reports that the hello
	// re-attached to the requested existing session; MaxSeq is then the
	// highest request seq that session has ever begun — the client must
	// continue its numbering above it so a stale cached response can
	// never answer a fresh request.
	Session string `json:"session,omitempty"`
	TTLMS   int64  `json:"ttl_ms,omitempty"`
	Resumed bool   `json:"resumed,omitempty"`
	MaxSeq  uint64 `json:"max_seq,omitempty"`
	// Epoch is the server epoch (hello and stats responses). It bumps on
	// every restart; fencing tokens fold it into their high bits.
	Epoch uint64 `json:"server_epoch,omitempty"`
	// Passage is the fencing token of a granted acquire: the server epoch
	// in the high 16 bits over a count of the key's shard's write grants
	// in that epoch. For write grants it is unique and strictly
	// increasing per key, so duplicated or replayed grants are
	// detectable; for read grants it is the shard's write count at the
	// grant.
	Passage uint64 `json:"passage,omitempty"`
	// Stats answers an OpStats request.
	Stats *Stats `json:"stats,omitempty"`
}

// Stats is the server-state snapshot returned by OpStats.
type Stats struct {
	Draining bool `json:"draining"`
	Sessions int  `json:"sessions"`
	// Epoch is the server epoch (bumped on every restart of a durable
	// server; always 1 for an in-memory server).
	Epoch  uint64       `json:"epoch"`
	Shards []ShardStats `json:"shards"`
}

// ShardStats aggregates one shard's counters and fairness readings. The
// ledger counters (grants, releases, revocations, fencing) of a durable
// server are cumulative over its data directory, and a restart restores
// the totals of earlier epochs into shard 0 only: sum them across shards.
type ShardStats struct {
	Locks  int `json:"locks"`  // live grant tables (held or queued)
	Held   int `json:"held"`   // holds currently outstanding
	Queued int `json:"queued"` // waiters currently queued

	ReadGrants  uint64 `json:"read_grants"`
	WriteGrants uint64 `json:"write_grants"`
	Releases    uint64 `json:"releases"`
	// Revoked counts holds torn down by lease expiry or restart fencing;
	// RevokedWrite is the write-mode subset (the passage-ledger term in
	// rwload). Fenced/FencedWrite are the restart-fencing subset of
	// those: holds cleared because an epoch bump invalidated them.
	Revoked      uint64 `json:"revoked"`
	RevokedWrite uint64 `json:"revoked_write"`
	Fenced       uint64 `json:"fenced"`
	FencedWrite  uint64 `json:"fenced_write"`
	Sheds        uint64 `json:"sheds"`
	Timeouts     uint64 `json:"timeouts"`

	// Bypass readings: the most grants to other sessions that any single
	// reader/writer wait on a lock in this shard sat through, counting
	// completed and still-open waits.
	MaxReaderBypass int `json:"max_reader_bypass"`
	MaxWriterBypass int `json:"max_writer_bypass"`
}

// MaxLine bounds one encoded message; a line longer than this is a
// protocol violation and kills the connection.
const MaxLine = 1 << 20

// Append marshals msg and appends it plus the newline terminator to buf,
// returning the extended buffer. Callers hand the result to a single
// Write so every message is one write call (the chaos layer depends on
// this framing).
func Append(buf []byte, msg any) ([]byte, error) {
	b, err := json.Marshal(msg)
	if err != nil {
		return buf, err
	}
	if len(b)+1 > MaxLine {
		return buf, fmt.Errorf("wire: message exceeds %d bytes", MaxLine)
	}
	return append(append(buf, b...), '\n'), nil
}

// NewScanner returns a line scanner over r sized for protocol messages.
func NewScanner(r io.Reader) *bufio.Scanner {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 4096), MaxLine)
	return sc
}

// DecodeError reports a message that could not be parsed: truncated,
// bit-flipped, or not JSON at all. Both protocol ends return it typed —
// a malformed message is a protocol verdict, never a panic or a silent
// zero-value misparse.
type DecodeError struct {
	// What is "request" or "response".
	What string
	Err  error
}

func (e *DecodeError) Error() string {
	return fmt.Sprintf("wire: malformed %s: %v", e.What, e.Err)
}

func (e *DecodeError) Unwrap() error { return e.Err }

// DecodeRequest parses one request line. A request without an op is
// rejected: it cannot be dispatched, and treating it as a zero-value
// request would silently misparse garbage that happens to be valid JSON.
func DecodeRequest(b []byte) (*Request, error) {
	var req Request
	if err := json.Unmarshal(b, &req); err != nil {
		return nil, &DecodeError{What: "request", Err: err}
	}
	if req.Op == "" {
		return nil, &DecodeError{What: "request", Err: fmt.Errorf("missing op")}
	}
	return &req, nil
}

// DecodeResponse parses one response line. A response with neither OK nor
// a failure code is rejected for the same reason.
func DecodeResponse(b []byte) (*Response, error) {
	var resp Response
	if err := json.Unmarshal(b, &resp); err != nil {
		return nil, &DecodeError{What: "response", Err: err}
	}
	if !resp.OK && resp.Code == "" {
		return nil, &DecodeError{What: "response", Err: fmt.Errorf("failure without code")}
	}
	return &resp, nil
}
