package simflood

import (
	"context"
	"testing"

	"valentine/internal/core"
	"valentine/internal/fabrication"
	"valentine/internal/graph"
	"valentine/internal/matchers/matchertest"
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
	if newM(t, nil).Name() != "similarity-flooding" {
		t.Error("name")
	}
}

func TestFormulaParsing(t *testing.T) {
	cases := map[string]graph.FixpointFormula{
		"basic": graph.FormulaBasic, "A": graph.FormulaA,
		"b": graph.FormulaB, "C": graph.FormulaC, "junk": graph.FormulaC,
	}
	for in, want := range cases {
		m, err := New(core.Params{"formula": in})
		if err != nil {
			t.Fatal(err)
		}
		if got := m.(*Matcher).Formula; got != want {
			t.Errorf("formula %q = %v, want %v", in, got, want)
		}
	}
}

func TestVerbatimSchemataPerfect(t *testing.T) {
	for _, s := range core.Scenarios() {
		pair := matchertest.Pair(t, s, fabrication.Variant{})
		matchertest.RequireRecallAtLeast(t, newM(t, nil), pair, 0.99)
	}
}

func TestNoisySchemataStillUseful(t *testing.T) {
	// SF degrades with noisy schemata but retains signal through the
	// type/name structure (paper: median ≈ 0.6 on noisy schemata).
	pair := matchertest.Pair(t, core.ScenarioUnionable, fabrication.Variant{NoisySchema: true})
	matchertest.RequireRecallAtLeast(t, newM(t, nil), pair, 0.3)
}

func TestBuildGraphShape(t *testing.T) {
	tab := table.New("t")
	tab.AddColumn("a", []string{"1"})
	tab.AddColumn("b", []string{"x"})
	g := buildGraph(tab)
	// nodes: tbl + 2 cols + up to 2 types (int,string) + 2 names
	if !g.HasNode("tbl:t") || !g.HasNode("col:a") || !g.HasNode("typ:int") {
		t.Fatalf("missing expected nodes: %v", g.Nodes())
	}
	if len(g.Out("tbl:t")) != 2 {
		t.Errorf("root should have 2 column edges, got %d", len(g.Out("tbl:t")))
	}
	if len(g.Out("col:a")) != 2 {
		t.Errorf("column should have type+name edges, got %d", len(g.Out("col:a")))
	}
}

func TestInitialSim(t *testing.T) {
	if got := initialSim("col:city", "col:city"); got != 1 {
		t.Errorf("identical = %v", got)
	}
	if got := initialSim("col:city", "typ:string"); got != 0 {
		t.Errorf("kind mismatch = %v", got)
	}
	if got := initialSim("col:city", "col:cty"); got <= 0.5 {
		t.Errorf("near name = %v", got)
	}
}

func TestOnlyColumnPairsReturned(t *testing.T) {
	pair := matchertest.Pair(t, core.ScenarioUnionable, fabrication.Variant{})
	ms, err := core.MatchWithContext(context.Background(), newM(t, nil), nil, pair.Source, pair.Target)
	if err != nil {
		t.Fatal(err)
	}
	if len(ms) == 0 {
		t.Fatal("no matches")
	}
	for _, m := range ms {
		if pair.Source.Column(m.SourceColumn) == nil || pair.Target.Column(m.TargetColumn) == nil {
			t.Fatalf("non-column pair leaked: %v", m)
		}
	}
}

func TestFormulasProduceDifferentRankings(t *testing.T) {
	pair := matchertest.Pair(t, core.ScenarioUnionable, fabrication.Variant{NoisySchema: true})
	a, err := core.MatchWithContext(context.Background(), newM(t, core.Params{"formula": "basic"}), nil, pair.Source, pair.Target)
	if err != nil {
		t.Fatal(err)
	}
	c, err := core.MatchWithContext(context.Background(), newM(t, core.Params{"formula": "C"}), nil, pair.Source, pair.Target)
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != len(c) {
		return // different sizes already proves difference
	}
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("formula choice had no effect")
	}
}

func TestInvariants(t *testing.T) {
	for _, s := range core.Scenarios() {
		pair := matchertest.Pair(t, s, fabrication.Variant{NoisySchema: true, NoisyInstances: true})
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
