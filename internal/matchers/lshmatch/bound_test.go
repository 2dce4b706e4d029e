package lshmatch

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"valentine/internal/core"
	"valentine/internal/intern"
	"valentine/internal/profile"
	"valentine/internal/table"
)

// TestScoreBoundZeroImpliesZeroScores: the only non-trivial lsh bound is 0,
// claimed when interned profiles share a dictionary and no column pair has
// any exact value overlap. Every full score must then be 0 too.
func TestScoreBoundZeroImpliesZeroScores(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	m, err := New(nil)
	if err != nil {
		t.Fatal(err)
	}
	lm := m.(*Matcher)
	dict := intern.NewDict()
	for trial := 0; trial < 30; trial++ {
		src := randomTable(rng, "left", "a", 2, 40)
		var tgt *table.Table
		if trial%2 == 0 {
			tgt = randomTable(rng, "right", "a", 2, 40) // shared vocabulary
		} else {
			tgt = randomTable(rng, "right", "b", 2, 40) // disjoint vocabulary
		}
		sp := profile.NewInterned(src, dict)
		tp := profile.NewInterned(tgt, dict)
		bound := lm.ScoreBoundProfiles(sp, tp)
		if bound != 0 {
			continue
		}
		matches, err := core.MatchProfilesWithContext(context.Background(), m, sp, tp)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		for _, match := range matches {
			if match.Score != 0 {
				t.Fatalf("trial %d: bound 0 but score %v for %s~%s",
					trial, match.Score, match.SourceColumn, match.TargetColumn)
			}
		}
	}
}

// TestScoreBoundDisjointVocabulary: fully disjoint interned tables must
// bound to exactly 0 — that is the pruning signal the discover cascade
// relies on for junk candidates.
func TestScoreBoundDisjointVocabulary(t *testing.T) {
	m, err := New(nil)
	if err != nil {
		t.Fatal(err)
	}
	dict := intern.NewDict()
	rng := rand.New(rand.NewSource(3))
	sp := profile.NewInterned(randomTable(rng, "left", "x", 3, 50), dict)
	tp := profile.NewInterned(randomTable(rng, "right", "y", 3, 50), dict)
	if bound := m.(*Matcher).ScoreBoundProfiles(sp, tp); bound != 0 {
		t.Fatalf("disjoint bound = %v, want 0", bound)
	}
	// Without a shared dictionary the overlap kernels cannot run; the bound
	// must fall back to the conservative 1.
	other := profile.NewInterned(randomTable(rng, "right", "y", 3, 50), intern.NewDict())
	if bound := m.(*Matcher).ScoreBoundProfiles(sp, other); bound != 1 {
		t.Fatalf("cross-dictionary bound = %v, want 1", bound)
	}
}

func randomTable(rng *rand.Rand, name, prefix string, cols, rows int) *table.Table {
	t := table.New(name)
	for c := 0; c < cols; c++ {
		vals := make([]string, rows)
		for r := range vals {
			vals[r] = fmt.Sprintf("%s-%d", prefix, rng.Intn(60))
		}
		t.AddColumn(fmt.Sprintf("c%d", c), vals)
	}
	return t
}
