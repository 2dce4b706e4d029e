package coma

import (
	"context"
	"testing"

	"valentine/internal/core"
	"valentine/internal/fabrication"
	"valentine/internal/matchers/matchertest"
)

func TestAggregationValidation(t *testing.T) {
	if _, err := New(core.Params{"aggregation": "bogus"}); err == nil {
		t.Error("unknown aggregation should fail")
	}
	if _, err := New(core.Params{"direction": "sideways"}); err == nil {
		t.Error("unknown direction should fail")
	}
	for _, agg := range []string{"average", "max", "min", "harmonic"} {
		if _, err := New(core.Params{"aggregation": agg}); err != nil {
			t.Errorf("aggregation %q rejected: %v", agg, err)
		}
	}
}

func TestAggregationOrdering(t *testing.T) {
	// For any element pair: min ≤ harmonic ≤ average ≤ max.
	pair := matchertest.Pair(t, core.ScenarioUnionable, fabrication.Variant{NoisySchema: true})
	get := func(agg string) map[[2]string]float64 {
		m, err := New(core.Params{"aggregation": agg, "direction": "forward"})
		if err != nil {
			t.Fatal(err)
		}
		ms, err := core.MatchWithContext(context.Background(), m, nil, pair.Source, pair.Target)
		if err != nil {
			t.Fatal(err)
		}
		out := map[[2]string]float64{}
		for _, x := range ms {
			out[[2]string{x.SourceColumn, x.TargetColumn}] = x.Score
		}
		return out
	}
	minS, harS, avgS, maxS := get("min"), get("harmonic"), get("average"), get("max")
	for k := range avgS {
		if !(minS[k] <= harS[k]+1e-9 && harS[k] <= avgS[k]+1e-9 && avgS[k] <= maxS[k]+1e-9) {
			t.Fatalf("aggregation ordering violated at %v: min=%v har=%v avg=%v max=%v",
				k, minS[k], harS[k], avgS[k], maxS[k])
		}
	}
}

func TestDirectionForwardDiffers(t *testing.T) {
	pair := matchertest.Pair(t, core.ScenarioViewUnionable, fabrication.Variant{NoisySchema: true})
	both, err := New(core.Params{"direction": "both"})
	if err != nil {
		t.Fatal(err)
	}
	fwd, err := New(core.Params{"direction": "forward"})
	if err != nil {
		t.Fatal(err)
	}
	mb, err := core.MatchWithContext(context.Background(), both, nil, pair.Source, pair.Target)
	if err != nil {
		t.Fatal(err)
	}
	mf, err := core.MatchWithContext(context.Background(), fwd, nil, pair.Source, pair.Target)
	if err != nil {
		t.Fatal(err)
	}
	differ := false
	for i := range mb {
		if mb[i].Score != mf[i].Score {
			differ = true
			break
		}
	}
	if !differ {
		t.Error("direction setting had no effect")
	}
	// both directions stay symmetric-friendly: recall still high on
	// verbatim pairs for either direction
	verbatim := matchertest.Pair(t, core.ScenarioUnionable, fabrication.Variant{})
	matchertest.RequireRecallAtLeast(t, fwd, verbatim, 0.99)
}
