package ir

import (
	"testing"

	"netdebug/internal/bitfield"
)

// TestTableMatch pins the one place a table's lookup structure is
// decided: ternary beats lpm beats exact whatever the key order, and the
// lpm key's index is reported even when a ternary key outranks it.
func TestTableMatch(t *testing.T) {
	key := func(k MatchKind) TableKey { return TableKey{Kind: k, Expr: Const{Val: bitfield.New(0, 8)}} }
	for _, c := range []struct {
		kinds  []MatchKind
		want   MatchKind
		lpmIdx int
	}{
		{nil, MatchExact, -1},
		{[]MatchKind{MatchExact, MatchExact}, MatchExact, -1},
		{[]MatchKind{MatchExact, MatchLPM}, MatchLPM, 1},
		{[]MatchKind{MatchLPM, MatchExact}, MatchLPM, 0},
		{[]MatchKind{MatchTernary, MatchExact}, MatchTernary, -1},
		{[]MatchKind{MatchTernary, MatchLPM, MatchExact}, MatchTernary, 1},
		{[]MatchKind{MatchExact, MatchLPM, MatchTernary}, MatchTernary, 1},
	} {
		tbl := &Table{Name: "t"}
		for _, k := range c.kinds {
			tbl.Keys = append(tbl.Keys, key(k))
		}
		if kind, lpmIdx := tbl.Match(); kind != c.want || lpmIdx != c.lpmIdx {
			t.Errorf("keys %v: Match() = %v, %d; want %v, %d", c.kinds, kind, lpmIdx, c.want, c.lpmIdx)
		}
	}
}
