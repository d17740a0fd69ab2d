package lockd

import "sync"

// Ledger is a client-side passage ledger: it records the fencing token of
// every write passage a client observed, to reconcile them against the
// server's grant counters. A token observed twice on one key is a
// duplicated passage, an at-most-once violation; the same token on
// another key is not. The zero value is an empty ledger, safe for
// concurrent use.
type Ledger struct {
	mu   sync.Mutex
	seen map[passage]struct{} //rwguard:mu
	dups uint64               //rwguard:mu
}

type passage struct {
	key   string
	token uint64
}

// LedgerCounts counts Observed write passages: Unique (key, token) pairs and Dups repeats.
type LedgerCounts struct{ Observed, Unique, Dups uint64 }

// ObserveWrite records a write passage on key granted with token.
func (l *Ledger) ObserveWrite(key string, token uint64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	p := passage{key, token}
	if _, dup := l.seen[p]; dup {
		l.dups++
		return
	}
	if l.seen == nil {
		l.seen = map[passage]struct{}{}
	}
	l.seen[p] = struct{}{}
}

// Counts returns the ledger's counts so far.
func (l *Ledger) Counts() LedgerCounts {
	l.mu.Lock()
	defer l.mu.Unlock()
	unique := uint64(len(l.seen))
	return LedgerCounts{unique + l.dups, unique, l.dups}
}

// Lost reconciles the ledger with the server's write grants and
// write-lease revocations over the same period: it returns the grants
// neither observed nor revoked, or 0 if observed and revoked passages
// outnumber them (a hold whose release was lost is both).
func (l *Ledger) Lost(grants, revoked uint64) uint64 {
	accounted := l.Counts().Unique + revoked
	if grants <= accounted {
		return 0
	}
	return grants - accounted
}
