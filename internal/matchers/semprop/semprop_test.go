package semprop

import (
	"context"
	"testing"

	"valentine/internal/core"
	"valentine/internal/datagen"
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
	if newM(t, nil).Name() != "semprop" {
		t.Error("name")
	}
}

func TestChEMBLColumnsLinkToOntology(t *testing.T) {
	src := datagen.ChEMBL(datagen.Options{Rows: 40})
	m := newM(t, nil).(*Matcher)
	classVecs := m.classVectors()
	links := m.linkColumns(profile.New(src), classVecs)
	linked := 0
	for _, l := range links {
		if len(l) > 0 {
			linked++
		}
	}
	if linked < 3 {
		t.Errorf("only %d/%d ChEMBL columns link to the EFO-like ontology, want ≥ 3", linked, len(links))
	}
}

func TestSemanticBandRanksLinkedPairs(t *testing.T) {
	// Columns with ontology-aligned names should relate semantically even
	// with disjoint values.
	src := table.New("assays_a")
	src.AddColumn("organism", []string{"Homo sapiens", "Mus musculus"})
	src.AddColumn("potency", []string{"12.5", "99.0"})
	tgt := table.New("assays_b")
	tgt.AddColumn("species", []string{"Rattus norvegicus", "Canis familiaris"})
	tgt.AddColumn("activity", []string{"1.1", "2.2"})
	ms, err := core.MatchWithContext(context.Background(), newM(t, core.Params{"sem_threshold": 0.4}), nil, src, tgt)
	if err != nil {
		t.Fatal(err)
	}
	score := map[[2]string]float64{}
	for _, m := range ms {
		score[[2]string{m.SourceColumn, m.TargetColumn}] = m.Score
	}
	if score[[2]string{"organism", "species"}] <= score[[2]string{"organism", "activity"}] {
		t.Errorf("organism~species %.3f should beat organism~activity %.3f",
			score[[2]string{"organism", "species"}], score[[2]string{"organism", "activity"}])
	}
}

func TestSyntacticFallbackUsesValueOverlap(t *testing.T) {
	// Names outside the ontology with heavy value overlap should still
	// rank through the MinHash fallback.
	vals := []string{"aa", "bb", "cc", "dd", "ee", "ff", "gg", "hh"}
	src := table.New("x")
	src.AddColumn("colp", vals)
	src.AddColumn("colq", []string{"1", "2", "3", "4", "5", "6", "7", "8"})
	tgt := table.New("y")
	tgt.AddColumn("colr", vals)
	tgt.AddColumn("cols", []string{"9", "10", "11", "12", "13", "14", "15", "16"})
	ms, err := core.MatchWithContext(context.Background(), newM(t, nil), nil, src, tgt)
	if err != nil {
		t.Fatal(err)
	}
	score := map[[2]string]float64{}
	for _, m := range ms {
		score[[2]string{m.SourceColumn, m.TargetColumn}] = m.Score
	}
	if score[[2]string{"colp", "colr"}] <= score[[2]string{"colp", "cols"}] {
		t.Errorf("value-overlap pair should win the fallback band: %.3f vs %.3f",
			score[[2]string{"colp", "colr"}], score[[2]string{"colp", "cols"}])
	}
}

func TestChEMBLFabricatedRunEndToEnd(t *testing.T) {
	f := fabrication.New(3)
	pair, err := f.Joinable(datagen.ChEMBL(datagen.Options{Rows: 60}), 0.5, 1.0, false)
	if err != nil {
		t.Fatal(err)
	}
	r := matchertest.Recall(t, newM(t, nil), pair)
	if r < 0 || r > 1 {
		t.Fatalf("recall out of range: %v", r)
	}
}

func TestSignatureJaccard(t *testing.T) {
	a := []uint64{1, 2, 3, 4}
	if got := signatureJaccard(a, a); got != 1 {
		t.Errorf("identical = %v", got)
	}
	b := []uint64{1, 2, 9, 9}
	if got := signatureJaccard(a, b); got != 0.5 {
		t.Errorf("half = %v", got)
	}
	if got := signatureJaccard(a, []uint64{1}); got != 0 {
		t.Errorf("length mismatch = %v", got)
	}
	empty := []uint64{^uint64(0), ^uint64(0)}
	if got := signatureJaccard(empty, empty); got != 0 {
		t.Errorf("empty-column signatures should not match: %v", got)
	}
}

func TestInvariants(t *testing.T) {
	for _, s := range core.Scenarios() {
		pair := matchertest.Pair(t, s, fabrication.Variant{NoisySchema: true})
		matchertest.CheckMatchInvariants(t, newM(t, nil), pair)
	}
}

func TestMatchValidates(t *testing.T) {
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
