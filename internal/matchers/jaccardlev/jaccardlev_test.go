package jaccardlev

import (
	"context"
	"testing"

	"valentine/internal/core"
	"valentine/internal/fabrication"
	"valentine/internal/matchers/matchertest"
	"valentine/internal/profile"
	"valentine/internal/table"
)

func newM(t *testing.T, p core.Params) core.Matcher {
	t.Helper()
	m, err := New(p)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestName(t *testing.T) {
	if newM(t, nil).Name() != "jaccard-levenshtein" {
		t.Error("name")
	}
}

func TestJoinableVerbatimPerfect(t *testing.T) {
	pair := matchertest.Pair(t, core.ScenarioJoinable, fabrication.Variant{})
	matchertest.RequireRecallAtLeast(t, newM(t, nil), pair, 0.99)
}

func TestUnionableOverlapHigh(t *testing.T) {
	pair := matchertest.Pair(t, core.ScenarioUnionable, fabrication.Variant{})
	matchertest.RequireRecallAtLeast(t, newM(t, nil), pair, 0.8)
}

func TestSemanticallyJoinableDegrades(t *testing.T) {
	j := matchertest.Pair(t, core.ScenarioJoinable, fabrication.Variant{})
	sj := matchertest.Pair(t, core.ScenarioSemJoinable, fabrication.Variant{})
	m := newM(t, nil)
	rj := matchertest.Recall(t, m, j)
	rsj := matchertest.Recall(t, m, sj)
	if rsj > rj {
		t.Errorf("sem-joinable recall %.3f should not beat joinable %.3f", rsj, rj)
	}
}

func TestLowerThresholdHelpsNoisyInstances(t *testing.T) {
	sj := matchertest.Pair(t, core.ScenarioSemJoinable, fabrication.Variant{})
	strict := matchertest.Recall(t, newM(t, core.Params{"threshold": 0.95}), sj)
	loose := matchertest.Recall(t, newM(t, core.Params{"threshold": 0.5}), sj)
	if loose < strict {
		t.Errorf("loose threshold %.3f should be ≥ strict %.3f on noisy instances", loose, strict)
	}
}

func TestInvariants(t *testing.T) {
	for _, s := range core.Scenarios() {
		pair := matchertest.Pair(t, s, fabrication.Variant{NoisySchema: true, NoisyInstances: true})
		matchertest.CheckMatchInvariants(t, newM(t, nil), pair)
	}
}

// sampleOf builds the dictionary-less colSample of a raw value list.
func sampleOf(vals []string) *colSample {
	c := table.Column{Name: "x", Values: vals}
	cs := sampleColumn(profile.NewColumn("t", &c), len(vals)+1, false)
	return &cs
}

func TestFuzzyJaccardBasics(t *testing.T) {
	if got := fuzzyJaccard(sampleOf([]string{"abc", "def"}), sampleOf([]string{"abc", "def"}), 0.8); got != 1 {
		t.Errorf("identical sets = %v", got)
	}
	if got := fuzzyJaccard(sampleOf([]string{"abc"}), sampleOf([]string{"xyz"}), 0.8); got != 0 {
		t.Errorf("disjoint = %v", got)
	}
	// typo within threshold 0.6: "color" vs "colour" sim = 1-1/6 ≈ 0.83
	if got := fuzzyJaccard(sampleOf([]string{"colour"}), sampleOf([]string{"color"}), 0.8); got != 1 {
		t.Errorf("fuzzy match = %v", got)
	}
	if got := fuzzyJaccard(sampleOf(nil), sampleOf([]string{"x"}), 0.8); got != 0 {
		t.Errorf("empty side = %v", got)
	}
	if got := fuzzyJaccard(sampleOf(nil), sampleOf(nil), 0.8); got != 0 {
		t.Errorf("both empty = %v", got)
	}
}

// TestInternedPrescreenMatchesMapPath: the sorted-merge exact-overlap
// prescreen over interned ids must score every pair exactly as the
// map-membership path does.
func TestInternedPrescreenMatchesMapPath(t *testing.T) {
	vals := func(n, off int) []string {
		out := make([]string, n)
		for i := range out {
			out[i] = matchName(i + off)
		}
		return out
	}
	src := table.New("s")
	src.AddColumn("a", vals(80, 0))
	src.AddColumn("b", vals(80, 100))
	tgt := table.New("t")
	tgt.AddColumn("x", vals(80, 20))
	tgt.AddColumn("y", vals(80, 500))
	m := newM(t, core.Params{"threshold": 0.6})
	plain, err := core.MatchProfilesWithContext(context.Background(), m, profile.New(src), profile.New(tgt))
	if err != nil {
		t.Fatal(err)
	}
	sp, tp := profile.NewPair(src, tgt)
	interned, err := core.MatchProfilesWithContext(context.Background(), m, sp, tp)
	if err != nil {
		t.Fatal(err)
	}
	if len(plain) != len(interned) {
		t.Fatalf("match counts differ: %d vs %d", len(plain), len(interned))
	}
	for i := range plain {
		if plain[i] != interned[i] {
			t.Fatalf("match %d differs: %+v vs %+v", i, plain[i], interned[i])
		}
	}
}

func TestSampleDistinctCaps(t *testing.T) {
	vals := make([]string, 500)
	for i := range vals {
		vals[i] = matchName(i)
	}
	c := table.Column{Name: "x", Values: vals}
	s := sampleColumn(profile.NewColumn("t", &c), 50, false).vals
	if len(s) != 50 {
		t.Fatalf("sample = %d", len(s))
	}
	// determinism
	s2 := sampleColumn(profile.NewColumn("t", &c), 50, false).vals
	for i := range s {
		if s[i] != s2[i] {
			t.Fatal("sampling not deterministic")
		}
	}
}

func matchName(i int) string {
	return "val_" + string(rune('a'+i%26)) + string(rune('a'+(i/26)%26)) + string(rune('a'+(i/676)%26))
}

func TestMatchValidatesInput(t *testing.T) {
	bad := table.New("")
	good := table.New("t")
	good.AddColumn("a", []string{"1"})
	if _, err := core.MatchWithContext(context.Background(), newM(t, nil), nil, bad, good); err == nil {
		t.Error("invalid source should fail")
	}
	if _, err := core.MatchWithContext(context.Background(), newM(t, nil), nil, good, bad); err == nil {
		t.Error("invalid target should fail")
	}
}
