package cupid

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"valentine/internal/core"
	"valentine/internal/table"
)

var fuzzNameVocab = []string{
	"customer", "id", "name", "order", "date", "price", "amount",
	"email", "zip", "code", "item", "status", "quantity", "address",
}

func fuzzTable(rng *rand.Rand, tname string) *table.Table {
	t := table.New(tname)
	cols := 1 + rng.Intn(4)
	rows := 4 + rng.Intn(15)
	for c := 0; c < cols; c++ {
		name := fuzzNameVocab[rng.Intn(len(fuzzNameVocab))]
		if rng.Intn(2) == 0 {
			name += "_" + fuzzNameVocab[rng.Intn(len(fuzzNameVocab))]
		}
		vals := make([]string, rows)
		numeric := rng.Intn(2) == 0
		for r := range vals {
			if numeric {
				vals[r] = fmt.Sprintf("%d", rng.Intn(900))
			} else {
				vals[r] = fmt.Sprintf("txt-%d", rng.Intn(40))
			}
		}
		t.AddColumn(fmt.Sprintf("%s%d", name, c), vals)
	}
	return t
}

// TestScoreBoundAdmissible fuzzes the admissibility contract: the bound
// chained from table-level component maxima through Cupid's own monotone
// wsim formula must dominate every score the matcher emits, across the
// Table II weight grid.
func TestScoreBoundAdmissible(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	grids := []core.Params{
		nil, // defaults
		{"w_struct": 0.5, "leaf_w_struct": 0.5},
		{"w_struct": 0.6, "leaf_w_struct": 0.1, "th_accept": 0.1},
		{"th_accept": 0.5, "th_high": 0.4},
	}
	for trial := 0; trial < 60; trial++ {
		src := fuzzTable(rng, "orders")
		tgt := fuzzTable(rng, "order_items")
		mi, err := New(grids[trial%len(grids)])
		if err != nil {
			t.Fatal(err)
		}
		m := mi.(*Matcher)
		sp, tp := core.ProfilePair(nil, src, tgt)
		bound := m.ScoreBoundProfiles(sp, tp)
		matches, err := core.MatchProfilesWithContext(context.Background(), m, sp, tp)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		for _, match := range matches {
			if match.Score > bound {
				t.Fatalf("trial %d: score %v exceeds bound %v for %s~%s",
					trial, match.Score, bound, match.SourceColumn, match.TargetColumn)
			}
		}
	}
}

// TestScoreBoundBelowAcceptIsZero: shared tokens push the bound up, so a
// collapsed-to-zero bound must mean the matcher truly emits nothing.
func TestScoreBoundZeroMeansNoMatches(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	mi, err := New(nil)
	if err != nil {
		t.Fatal(err)
	}
	m := mi.(*Matcher)
	for trial := 0; trial < 40; trial++ {
		src := fuzzTable(rng, "alpha")
		tgt := fuzzTable(rng, "beta")
		sp, tp := core.ProfilePair(nil, src, tgt)
		if m.ScoreBoundProfiles(sp, tp) != 0 {
			continue
		}
		matches, err := core.MatchProfilesWithContext(context.Background(), m, sp, tp)
		if err != nil {
			t.Fatal(err)
		}
		if len(matches) != 0 {
			t.Fatalf("trial %d: bound 0 but matcher emitted %d matches", trial, len(matches))
		}
	}
}
