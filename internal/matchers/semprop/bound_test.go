package semprop

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"valentine/internal/core"
	"valentine/internal/table"
)

// The fuzz vocabulary mixes EFO-ish terms (which link into the ontology and
// exercise the semantic band) with junk names (which fall through to the
// syntactic band or to zero).
var fuzzNameVocab = []string{
	"assay", "compound", "target", "protein", "measurement", "concentration",
	"potency", "publication", "identifier", "date", "unit", "organism",
	"foo", "bar", "widget", "zz", "payload",
}

func fuzzTable(rng *rand.Rand, tname string, vocab int) *table.Table {
	t := table.New(tname)
	cols := 1 + rng.Intn(4)
	rows := 5 + rng.Intn(25)
	for c := 0; c < cols; c++ {
		name := fuzzNameVocab[rng.Intn(len(fuzzNameVocab))]
		if rng.Intn(3) == 0 {
			name += "_" + fuzzNameVocab[rng.Intn(len(fuzzNameVocab))]
		}
		vals := make([]string, rows)
		for r := range vals {
			vals[r] = fmt.Sprintf("v%d", rng.Intn(vocab))
		}
		t.AddColumn(fmt.Sprintf("%s%d", name, c), vals)
	}
	return t
}

// TestScoreBoundAdmissible fuzzes the admissibility contract: the two-band
// bound (link-strength cap for the semantic band, max signature Jaccard for
// the syntactic one) must dominate every score the matcher emits.
func TestScoreBoundAdmissible(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	params := []core.Params{
		nil,
		{"sem_threshold": 0.4, "coh_sem_threshold": 0.2, "minhash_threshold": 0.2},
		{"sem_threshold": 0.6, "coh_sem_threshold": 0.4, "minhash_threshold": 0.3},
	}
	for trial := 0; trial < 50; trial++ {
		mi, err := New(params[trial%len(params)])
		if err != nil {
			t.Fatal(err)
		}
		m := mi.(*Matcher)
		src := fuzzTable(rng, "assays", 20+rng.Intn(40))
		tgt := fuzzTable(rng, "compounds", 20+rng.Intn(40))
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

// TestLinkCacheSharedAcrossCalls: the bound and the full scoring path must
// see the same memoized links — the memoization is what makes the bound
// prepay rather than duplicate the ontology linking.
func TestLinkCacheSharedAcrossCalls(t *testing.T) {
	mi, err := New(nil)
	if err != nil {
		t.Fatal(err)
	}
	m := mi.(*Matcher)
	rng := rand.New(rand.NewSource(20))
	src := fuzzTable(rng, "assays", 30)
	sp, _ := core.ProfilePair(nil, src, fuzzTable(rng, "other", 30))
	first := m.cachedLinks(sp)
	second := m.cachedLinks(sp)
	if len(first) != len(second) {
		t.Fatalf("cached links changed shape: %d vs %d", len(first), len(second))
	}
	for i := range first {
		if len(first[i]) != len(second[i]) {
			t.Fatalf("column %d links not memoized", i)
		}
	}
}
