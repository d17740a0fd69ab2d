package durable

import (
	"encoding/json"
	"sort"
)

// Fencing tokens fold the server epoch into their high bits: any token
// minted in epoch e+1 is numerically greater than every token minted in
// epoch e, whatever its counter part. That dominance is the whole fence:
// the counter part is a per-shard write count that starts at zero in
// every epoch and is never logged, so a restart restores no counter, and
// a WAL that lost its final pre-crash grants under a lossy fsync policy
// loses nothing a token depends on. The durably bumped epoch keeps every
// new token strictly above every old one, so a restarted server can
// never re-mint a token a client already observed.
const (
	// EpochBits is the width of the epoch field (high bits); the counter
	// takes the rest. 16 bits of epoch is 65535 restarts per data
	// directory; 48 bits of counter is ~2.8e14 write passages per shard
	// per epoch.
	EpochBits   = 16
	counterBits = 64 - EpochBits
	counterMask = (uint64(1) << counterBits) - 1
)

// MakeToken folds an epoch and a per-shard counter into one fencing token.
func MakeToken(epoch, counter uint64) uint64 {
	return epoch<<counterBits | counter&counterMask
}

// TokenEpoch extracts the epoch a token was minted under.
func TokenEpoch(tok uint64) uint64 { return tok >> counterBits }

// TokenCounter extracts a token's counter part.
func TokenCounter(tok uint64) uint64 { return tok & counterMask }

// HoldState is one held lock entry.
type HoldState struct {
	Key  string `json:"key"`
	Mode string `json:"mode"`
}

// CachedResp is one entry of a session's at-most-once response cache, in
// completion order.
type CachedResp struct {
	Seq  uint64          `json:"seq"`
	Resp json.RawMessage `json:"resp"`
}

// SessionState is one session lease with everything needed to restore it:
// the lease geometry (TTL plus the absolute expiry the sweeper re-arms
// from), holds, and the response cache.
type SessionState struct {
	TTLMS  int64        `json:"ttl_ms"`
	Expiry int64        `json:"expiry"` // unix nanoseconds
	Holds  []HoldState  `json:"holds,omitempty"`
	Resps  []CachedResp `json:"resps,omitempty"`
	// MaxSeq is the highest request seq the session ever began; a
	// resuming client continues its numbering above it so stale cache
	// entries can never answer a fresh request.
	MaxSeq uint64 `json:"max_seq,omitempty"`
}

// Counters are the ledger-relevant counters, totalled over the whole
// service: no stored value depends on the shard a key hashes to. They
// are durable because rwload's zero-lost/zero-dup reconciliation
// compares them to client observations across server crashes; volatile
// counters (sheds, timeouts) stay in the server and reset on restart.
type Counters struct {
	ReadGrants   uint64 `json:"read_grants"`
	WriteGrants  uint64 `json:"write_grants"`
	Releases     uint64 `json:"releases"`
	Revoked      uint64 `json:"revoked"`
	RevokedWrite uint64 `json:"revoked_write"`
	// Fenced / FencedWrite are the subset of Revoked torn down by epoch
	// bumps (restart fencing) rather than lease expiry.
	Fenced      uint64 `json:"fenced"`
	FencedWrite uint64 `json:"fenced_write"`
}

// State is the full durable service state. The Store maintains it as a
// shadow (applying every appended record), snapshots marshal it, and
// replay rebuilds it; sharing one apply function between the shadow and
// replay guarantees they agree.
type State struct {
	Epoch    uint64                   `json:"epoch"`
	Sessions map[string]*SessionState `json:"sessions"`
	Counters Counters                 `json:"counters"`
}

// NewState returns an empty state.
func NewState() *State {
	return &State{Sessions: map[string]*SessionState{}}
}

// Clone deep-copies the state (the server installs from a clone so the
// shadow can keep mutating).
func (st *State) Clone() *State {
	out := &State{Epoch: st.Epoch, Sessions: map[string]*SessionState{}, Counters: st.Counters}
	for id, s := range st.Sessions {
		cp := *s
		cp.Holds = append([]HoldState(nil), s.Holds...)
		cp.Resps = make([]CachedResp, len(s.Resps))
		for i, r := range s.Resps {
			cp.Resps[i] = CachedResp{Seq: r.Seq, Resp: append(json.RawMessage(nil), r.Resp...)}
		}
		out.Sessions[id] = &cp
	}
	return out
}

// HoldCount totals held entries across sessions.
func (st *State) HoldCount() int {
	n := 0
	for _, s := range st.Sessions {
		n += len(s.Holds)
	}
	return n
}

// SessionIDs returns the session ids in sorted order (deterministic
// restore and logging).
func (st *State) SessionIDs() []string {
	ids := make([]string, 0, len(st.Sessions))
	for id := range st.Sessions {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}

func findHold(list []HoldState, key, mode string) (int, bool) {
	for i, h := range list {
		if h.Key == key && h.Mode == mode {
			return i, true
		}
	}
	return -1, false
}

func removeHold(list []HoldState, key, mode string) ([]HoldState, bool) {
	if i, ok := findHold(list, key, mode); ok {
		return append(list[:i], list[i+1:]...), true
	}
	return list, false
}

func (c *Counters) countRevoked(mode string, fenced bool) {
	c.Revoked++
	if mode == "w" {
		c.RevokedWrite++
	}
	if fenced {
		c.Fenced++
		if mode == "w" {
			c.FencedWrite++
		}
	}
}

// Apply folds one record into the state. It is shared by replay and the
// Store's shadow, is total (any record sequence yields some state, never
// a panic), and is idempotent where replay needs it to be: duplicate
// holds are not double-inserted, and records referencing missing
// sessions are accounted as revocations rather than dropped — a grant
// that raced a lease expiry into the log must still show up in the
// ledger counters.
func (st *State) Apply(rec *Record) {
	if rec == nil {
		return
	}
	switch rec.Type {
	case RecHello:
		st.Sessions[rec.Session] = &SessionState{TTLMS: rec.TTLMS, Expiry: rec.Expiry}
	case RecRenew:
		if s := st.Sessions[rec.Session]; s != nil && rec.Expiry > s.Expiry {
			s.Expiry = rec.Expiry
		}
	case RecBye:
		// A clean goodbye released its holds first (each with its own
		// record); leftovers mean the bye raced teardown — count them as
		// releases, the clean-path accounting.
		if s := st.Sessions[rec.Session]; s != nil {
			st.Counters.Releases += uint64(len(s.Holds))
		}
		delete(st.Sessions, rec.Session)
	case RecExpire:
		if s := st.Sessions[rec.Session]; s != nil {
			for _, h := range s.Holds {
				st.Counters.countRevoked(h.Mode, false)
			}
		}
		delete(st.Sessions, rec.Session)
	case RecGrant:
		if rec.Mode == "w" {
			st.Counters.WriteGrants++
		} else {
			st.Counters.ReadGrants++
		}
		s := st.Sessions[rec.Session]
		if s == nil {
			// Ghost grant: the session's expiry record won the append
			// race. The grant still happened — ledger-wise it is an
			// immediately revoked passage.
			st.Counters.countRevoked(rec.Mode, false)
			return
		}
		if _, dup := findHold(s.Holds, rec.Key, rec.Mode); !dup {
			s.Holds = append(s.Holds, HoldState{Key: rec.Key, Mode: rec.Mode})
		}
	case RecRelease:
		if s := st.Sessions[rec.Session]; s != nil {
			var ok bool
			if s.Holds, ok = removeHold(s.Holds, rec.Key, rec.Mode); ok {
				st.Counters.Releases++
			}
		}
	case RecResp:
		if s := st.Sessions[rec.Session]; s != nil {
			s.Resps = append(s.Resps, CachedResp{Seq: rec.Seq, Resp: rec.Resp})
			for len(s.Resps) > RespCacheCap {
				s.Resps = s.Resps[1:]
			}
			if rec.Seq > s.MaxSeq {
				s.MaxSeq = rec.Seq
			}
		}
	case RecEpoch:
		if rec.Epoch > st.Epoch {
			st.Epoch = rec.Epoch
		}
		// An epoch bump fences every hold: holds never cross an epoch
		// boundary (this is the no-double-grant argument — a pre-crash
		// hold is revoked here, and its token's epoch is strictly
		// dominated by every token the new epoch mints).
		for _, id := range st.SessionIDs() {
			s := st.Sessions[id]
			for _, h := range s.Holds {
				st.Counters.countRevoked(h.Mode, true)
			}
			s.Holds = nil
		}
	}
}

// RespCacheCap bounds each session's at-most-once response cache, in the
// server and in the shadow alike, so a snapshot cannot grow without
// bound. A retransmit older than the cache window re-executes its
// operation; with monotonically increasing client seqs and clients that
// give up on a request long before 512 newer ones complete, that window
// is never hit in practice.
const RespCacheCap = 512
