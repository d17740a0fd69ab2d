package lockd

import "testing"

// TestLedger feeds hand-built observation sequences to the passage
// ledger: a token seen twice on one key is a duplicate, the same token
// on another key is not, and reconciliation counts every grant that is
// neither observed nor revoked as lost.
func TestLedger(t *testing.T) {
	type obs struct {
		key   string
		token uint64
	}
	for _, tc := range []struct {
		name            string
		seq             []obs
		want            LedgerCounts
		grants, revoked uint64
		wantLost        uint64
	}{
		{name: "empty", want: LedgerCounts{}},
		{name: "distinct tokens", seq: []obs{{"a", 1}, {"a", 2}, {"b", 1}},
			want: LedgerCounts{Observed: 3, Unique: 3}, grants: 3},
		{name: "repeated token", seq: []obs{{"a", 1}, {"a", 2}, {"a", 1}},
			want: LedgerCounts{Observed: 3, Unique: 2, Dups: 1}, grants: 2},
		{name: "token seen three times", seq: []obs{{"a", 7}, {"a", 7}, {"a", 7}},
			want: LedgerCounts{Observed: 3, Unique: 1, Dups: 2}, grants: 1},
		{name: "same token on another key", seq: []obs{{"a", 5}, {"b", 5}, {"c", 5}},
			want: LedgerCounts{Observed: 3, Unique: 3}, grants: 3},
		{name: "revoked grants reconcile", seq: []obs{{"a", 1}, {"a", 3}},
			want: LedgerCounts{Observed: 2, Unique: 2}, grants: 4, revoked: 2},
		{name: "unaccounted grant is lost", seq: []obs{{"a", 1}, {"a", 3}},
			want: LedgerCounts{Observed: 2, Unique: 2}, grants: 5, revoked: 2, wantLost: 1},
		{name: "observed and revoked counts once", seq: []obs{{"a", 1}, {"a", 2}},
			want: LedgerCounts{Observed: 2, Unique: 2}, grants: 2, revoked: 1},
		{name: "duplicate does not hide a lost grant", seq: []obs{{"a", 1}, {"a", 1}},
			want: LedgerCounts{Observed: 2, Unique: 1, Dups: 1}, grants: 2, wantLost: 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var l Ledger
			for _, o := range tc.seq {
				l.ObserveWrite(o.key, o.token)
			}
			if got := l.Counts(); got != tc.want {
				t.Errorf("counts %+v, want %+v", got, tc.want)
			}
			if got := l.Lost(tc.grants, tc.revoked); got != tc.wantLost {
				t.Errorf("Lost(%d, %d) = %d, want %d", tc.grants, tc.revoked, got, tc.wantLost)
			}
		})
	}
}
