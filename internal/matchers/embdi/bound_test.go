package embdi

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"valentine/internal/core"
	"valentine/internal/table"
)

// fuzzPair builds a small pair of tables; with sharedVocab false the two
// sides draw values from disjoint vocabularies, so their graphs cannot
// bridge. Tables stay tiny — every bridged trial trains word2vec.
func fuzzPair(rng *rand.Rand, sharedVocab bool) (*table.Table, *table.Table) {
	build := func(name, prefix string) *table.Table {
		t := table.New(name)
		cols := 1 + rng.Intn(2)
		rows := 6 + rng.Intn(10)
		for c := 0; c < cols; c++ {
			vals := make([]string, rows)
			for r := range vals {
				if rng.Intn(12) == 0 {
					vals[r] = ""
				} else {
					vals[r] = fmt.Sprintf("%s%d", prefix, rng.Intn(12))
				}
			}
			t.AddColumn(fmt.Sprintf("%s_c%d", name, c), vals)
		}
		return t
	}
	tgtPrefix := "a"
	if !sharedVocab {
		tgtPrefix = "b"
	}
	return build("left", "a"), build("right", tgtPrefix)
}

// TestScoreBoundAdmissible fuzzes the admissibility contract: disjoint
// distinct values certify a disconnected graph (bound 0.5, and the matcher
// emits exactly 0.5); any shared value keeps the conservative bound 1.
func TestScoreBoundAdmissible(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 10; trial++ {
		shared := trial%2 == 0
		src, tgt := fuzzPair(rng, shared)
		mi, err := New(core.Params{"max_rows": 50})
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
				t.Fatalf("trial %d (shared=%v): score %v exceeds bound %v",
					trial, shared, match.Score, bound)
			}
		}
		if !shared {
			if bound != 0.5 {
				t.Fatalf("trial %d: disjoint vocabularies should bound at 0.5, got %v", trial, bound)
			}
			for _, match := range matches {
				if match.Score != 0.5 {
					t.Fatalf("trial %d: disconnected pair scored %v, want the neutral 0.5", trial, match.Score)
				}
			}
		}
	}
}

// TestScoreBoundFlattenConservative: flattened mode tokenizes cells into
// words the profiles do not cache, so the bound must stay at 1.
func TestScoreBoundFlattenConservative(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	src, tgt := fuzzPair(rng, false)
	mi, err := New(core.Params{"flatten": 1})
	if err != nil {
		t.Fatal(err)
	}
	sp, tp := core.ProfilePair(nil, src, tgt)
	if b := mi.(*Matcher).ScoreBoundProfiles(sp, tp); b != 1 {
		t.Fatalf("flatten bound = %v, want the conservative 1", b)
	}
}
